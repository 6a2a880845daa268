"""Simulated distributed data nodes and the sharded gallery coordinator.

Paper Figure 1 shows the retrieval system locating "videos in various
distributed data nodes that are close to [the query] in the feature
space".  :class:`ShardedGallery` reproduces that topology in-process: the
gallery is sharded across ``num_nodes`` :class:`DataNode`s and a
coordinator performs scatter/gather top-k merging.  Nodes can be taken
down to test degraded retrieval, a
:class:`~repro.resilience.FaultPlan` can script richer incidents
(flakiness, slowness, score corruption, outage windows), and the
coordinator keeps a ``networkx`` star topology for introspection.

With a :class:`~repro.resilience.ResilienceConfig` the coordinator turns
into a self-healing retrieval plane:

* each row is stored on ``replication`` consecutive nodes, and the
  quorum-aware merge keeps retrieval **exact** while at least one
  replica of every shard is live;
* per-node calls run under retry-with-backoff and a circuit breaker;
* slow nodes are dropped from the merge when faster replicas cover
  their shards (hedged scatter reads);
* when coverage is lost the query either degrades (serves the partial
  merge) or raises :class:`~repro.errors.RetrievalUnavailable` so
  attack loops can checkpoint and resume; when no node answers at all
  it raises under either policy.

Without a resilience config the same scatter runs under
:data:`PLAIN_RESILIENCE` (no retries or breakers, degrade on data loss).

Online galleries (:meth:`ShardedGallery.enable_churn`) add live
mutation under traffic: :meth:`~ShardedGallery.delete` and
:meth:`~ShardedGallery.reembed` tombstone rows logically (physical rows
stay until :meth:`~ShardedGallery.compact`), every mutation bumps a
version counter, and readers pin an immutable
:class:`~repro.retrieval.snapshot.GallerySnapshot` so each query sees
exactly one gallery version even while writers race.  Placement is
round-robin by default or a deterministic
:class:`~repro.retrieval.placement.ConsistentHashRing`
(``placement="hash"``), which makes :meth:`~ShardedGallery.rebalance`
relocate only ``~1/n`` of the rows when the node count changes.
"""

from __future__ import annotations

import heapq
import threading
import time

import networkx as nx
import numpy as np

from repro.errors import DeadlineExceeded, NodeDownError, RetrievalUnavailable
from repro.obs import counter, histogram, span
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.config import ResilienceConfig
from repro.resilience.retry import RetryExecutor
from repro.retrieval.index import FeatureIndex
from repro.retrieval.lists import RetrievalEntry
from repro.retrieval.placement import ConsistentHashRing
from repro.retrieval.similarity import SimilarityFn, negative_l2
from repro.retrieval.snapshot import (
    GallerySnapshot,
    entry_candidates,
    filter_entries,
)

#: Per-node search latencies are sub-millisecond at test scale.
NODE_LATENCY_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0)

#: The scatter policy of a gallery built without a resilience config:
#: no retries, no breakers, and a partial merge when a shard is lost.
PLAIN_RESILIENCE = ResilienceConfig(retry=None, breaker=None,
                                    on_data_loss="degrade")


class DataNode:
    """One storage shard holding a local :class:`~repro.retrieval.protocol.Index`.

    The index implementation is pluggable: by default a brute-force
    :class:`FeatureIndex`, or any factory from the compressed tier
    registry (:mod:`repro.hashindex.tiers`) — the node only relies on
    the shared :class:`~repro.retrieval.protocol.Index` protocol.

    An installed ``fault_injector`` (usually a
    :class:`~repro.resilience.FaultPlan`) is consulted on every search
    attempt: it may raise :class:`NodeDownError`, add virtual latency
    (exposed as ``last_injected_latency_s``), or corrupt scores.
    """

    def __init__(self, node_id: str, similarity: SimilarityFn = negative_l2,
                 index_factory=None, position: int = 0) -> None:
        self.node_id = str(node_id)
        self.similarity = similarity
        self.index = FeatureIndex(similarity) if index_factory is None \
            else index_factory(similarity)
        self.position = int(position)
        self.alive = True
        self.search_count = 0
        self.fault_injector = None
        self.last_injected_latency_s = 0.0

    def reindex(self, index_factory) -> None:
        """Rebuild the local index under a new factory, keeping all rows.

        Every in-repo index buffers its rows (``_ids``/``_labels``/
        ``_features``), so a tier switch re-ingests them into the new
        index in one ``add_batch`` — compressed payloads then rebuild
        lazily on the next search.  Galleries no longer call this on
        their own nodes (they swap whole index sets atomically in
        :meth:`ShardedGallery.set_index_tier`); it remains for direct
        node-level use.
        """
        old = self.index
        new = index_factory(self.similarity)
        if len(old):
            new.add_batch(list(old._ids), list(old._labels),
                          np.stack(old._features))
        self.index = new

    def __len__(self) -> int:
        return len(self.index)

    def add(self, video_id: str, label: int, feature: np.ndarray) -> None:
        """Store one gallery row on this node."""
        self.index.add(video_id, label, feature)

    def add_batch(self, ids: list[str], labels: list[int],
                  features: np.ndarray) -> None:
        """Store many gallery rows in one pass."""
        self.index.add_batch(ids, labels, features)

    def _pre_search(self) -> float:
        """Shared down/fault checks; returns injected latency."""
        if not self.alive:
            counter("gallery.node_down_errors", node=self.node_id).inc()
            raise NodeDownError(f"node {self.node_id} is down")
        injected = 0.0
        if self.fault_injector is not None:
            injected = self.fault_injector.on_attempt(self.node_id)
        self.last_injected_latency_s = injected
        return injected

    def search(self, query: np.ndarray, k: int,
               index=None) -> list[RetrievalEntry]:
        """Local top-k search; raises :class:`NodeDownError` when down.

        ``index`` lets the coordinator pin the index object it resolved
        at scatter start, so a concurrent tier swap cannot hand this
        search a half-built replacement.
        """
        self._pre_search()
        self.search_count += 1
        target = self.index if index is None else index
        entries = target.search(query, k)
        if self.fault_injector is not None:
            entries = self.fault_injector.transform(self.node_id, entries)
        return entries

    def search_batch(self, queries: np.ndarray, k: int,
                     index=None) -> list[list[RetrievalEntry]]:
        """Local top-k for ``(B, d)`` queries in one vectorized pass."""
        self._pre_search()
        self.search_count += len(queries)
        target = self.index if index is None else index
        results = target.search_batch(queries, k)
        if self.fault_injector is not None:
            results = [self.fault_injector.transform(self.node_id, entries)
                       for entries in results]
        return results

    def labels_of(self) -> list[int]:
        """All labels stored on this node."""
        return self.index.labels_of()

    def take_down(self) -> None:
        """Simulate a node failure."""
        self.alive = False

    def bring_up(self) -> None:
        """Recover a failed node."""
        self.alive = True


class ShardedGallery:
    """Coordinator over ``num_nodes`` data nodes with scatter/gather merge.

    Rows are assigned to shards round-robin at insertion time (or by a
    consistent-hash ring with ``placement="hash"``); with
    ``resilience.replication = r`` each row additionally lands on the
    next ``r - 1`` nodes.  A search fans out to all live nodes, takes
    each node's local top-k, and merges the partial lists into a global
    top-k (deduplicating replicas with a quorum score vote).  Downed
    nodes are skipped when their shards are covered elsewhere, so
    results degrade gracefully — or stay exact under replication —
    matching how a replicated production system keeps serving under
    partial failure.
    """

    def __init__(self, num_nodes: int = 4,
                 similarity: SimilarityFn = negative_l2,
                 resilience: ResilienceConfig | None = None,
                 index_tier: str | None = None,
                 placement: str = "round-robin") -> None:
        if num_nodes < 1:
            raise ValueError("gallery needs at least one node")
        if placement not in ("round-robin", "hash"):
            raise ValueError(f"unknown placement {placement!r}")
        self.similarity = similarity
        self.nodes = [DataNode(f"node-{i}", similarity, position=i)
                      for i in range(num_nodes)]
        self.placement = placement
        self._ring = ConsistentHashRing(num_nodes) if placement == "hash" \
            else None
        # --- mutation state (inert until enable_churn()) ----------- #
        self._mutable = False
        self._version = 0
        self._lock = threading.RLock()
        self._snapshot_cache: GallerySnapshot | None = None
        self._dead_at: dict[str, int] = {}    # rowid -> tombstone version
        self._added_at: dict[str, int] = {}   # rowid -> version added
        self._alias: dict[str, str] = {}      # rowid -> public id
        self._gen: dict[str, int] = {}        # public id -> generation
        self._live_rowid: dict[str, str] = {}  # public id -> live rowid
        self._primary_of: dict[str, int] = {}  # rowid -> primary shard
        self._order: list[str] = []           # rowids in insertion order
        self._node_dead: list[set[str]] = [set() for _ in range(num_nodes)]
        self._dead_count = 0
        # Index objects currently installed, pinned as a tuple so
        # readers resolve one coherent set even mid tier-swap.
        self._pinned: tuple = tuple(node.index for node in self.nodes)
        self.index_tier = "exact"
        self.set_index_tier(index_tier)
        self._next_shard = 0
        self._row_count = 0
        self._labels: list[int] = []
        self._shard_rows = [0] * num_nodes
        self.fault_plan = None
        self.replication = 1
        self.resilience = PLAIN_RESILIENCE
        self._breakers: dict[str, CircuitBreaker] = {}
        self._retries: dict[str, RetryExecutor] = {}
        self.set_resilience(resilience)
        self._rebuild_topology()
        if placement == "hash":
            # Hash placement exists for live rebalancing, which needs
            # the per-row bookkeeping churn mode maintains.
            self.enable_churn()

    def _rebuild_topology(self) -> None:
        topology = nx.star_graph(len(self.nodes))
        relabel = {0: "coordinator"}
        relabel.update({i + 1: node.node_id
                        for i, node in enumerate(self.nodes)})
        self.topology = nx.relabel_nodes(topology, relabel)

    # -------------------------------------------------------------- #
    # Index-tier configuration
    # -------------------------------------------------------------- #
    def set_index_tier(self, tier: str | None) -> None:
        """Switch every node's local index to ``tier``.

        ``None`` resolves the ``REPRO_INDEX_TIER`` environment default
        (``"exact"`` when unset — seed behaviour).  Rows already stored
        on the nodes are re-ingested into the new indexes (tombstoned
        rows are dropped, doubling as a compaction); compressed payloads
        rebuild lazily on the next search.  Switching to the tier
        already in place is a no-op.

        The swap is atomic with respect to readers: every new index is
        fully built *before* any node's reference is replaced, and
        in-flight searches keep the complete old index set they pinned
        at scatter start, so no query ever observes a half-built index
        or a mixed-tier scatter.
        """
        # Imported lazily: repro.hashindex depends on retrieval
        # submodules, so a module-level import would be circular during
        # package initialization.
        from repro.hashindex.tiers import default_index_tier, resolve_index_tier

        resolved = default_index_tier() if tier is None \
            else str(tier).strip().lower()
        if resolved == self.index_tier:
            return
        factory = resolve_index_tier(resolved)
        with self._lock:
            new_indexes = []
            for position, node in enumerate(self.nodes):
                old = node.index
                new = factory(self.similarity)
                dead = self._node_dead[position] if self._mutable else ()
                if len(old):
                    if dead:
                        keep = [row for row, rowid in enumerate(old._ids)
                                if rowid not in dead]
                        if keep:
                            new.add_batch(
                                [old._ids[row] for row in keep],
                                [old._labels[row] for row in keep],
                                np.stack([old._features[row]
                                          for row in keep]))
                    else:
                        new.add_batch(list(old._ids), list(old._labels),
                                      np.stack(old._features))
                new_indexes.append(new)
            for node, new in zip(self.nodes, new_indexes):
                node.index = new
            if self._mutable:
                self._node_dead = [set() for _ in self.nodes]
            self._pinned = tuple(new_indexes)
            self.index_tier = resolved
            if self._mutable:
                self._bump()
        counter("gallery.index_tier_switches", tier=resolved).inc()

    # -------------------------------------------------------------- #
    # Resilience configuration
    # -------------------------------------------------------------- #
    def set_resilience(self, config: ResilienceConfig | None) -> None:
        """(Re)configure retry/breaker/replication behaviour.

        ``None`` installs :data:`PLAIN_RESILIENCE`.  Replication is a
        *placement* property: it can only change while the gallery is
        still empty.
        """
        config = PLAIN_RESILIENCE if config is None else config
        replication = min(int(config.replication), len(self.nodes))
        if self._row_count and replication != self.replication:
            raise ValueError(
                "cannot change replication on a populated gallery "
                f"(current r={self.replication}, requested r={replication})")
        self.resilience = config
        self.replication = replication
        self._breakers = {}
        self._retries = {}
        if config.breaker is not None:
            self._breakers = {
                node.node_id: CircuitBreaker(config.breaker,
                                             node_id=node.node_id)
                for node in self.nodes
            }
        if config.retry is not None:
            self._retries = {
                node.node_id: RetryExecutor(config.retry,
                                            node_id=node.node_id)
                for node in self.nodes
            }
        # Per-node scatter plan, precomputed so the hot path does no
        # dict lookups: [(node, breaker | None, retry | None), ...].
        self._node_plan = [
            (node, self._breakers.get(node.node_id),
             self._retries.get(node.node_id))
            for node in self.nodes
        ]

    def __len__(self) -> int:
        """Live logical gallery size (replicas and tombstones excluded)."""
        return self._row_count - self._dead_count

    @property
    def physical_rows(self) -> int:
        """Stored rows across every shard, replicas and tombstones included."""
        return sum(len(node) for node in self.nodes)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def live_nodes(self) -> list[DataNode]:
        return [node for node in self.nodes if node.alive]

    @property
    def version(self) -> int:
        """Monotonic mutation counter (0 until the first mutation)."""
        return self._version

    def _replica_nodes(self, primary: int) -> list[int]:
        """Node indexes storing rows whose primary shard is ``primary``."""
        count = len(self.nodes)
        return [(primary + t) % count for t in range(self.replication)]

    # -------------------------------------------------------------- #
    # Ingest
    # -------------------------------------------------------------- #
    def add(self, video_id: str, label: int, feature: np.ndarray) -> None:
        """Insert one row on the next shard and its replicas."""
        if self._mutable:
            self._add_mutable(str(video_id), int(label), feature)
            return
        primary = self._next_shard
        for node_index in self._replica_nodes(primary):
            self.nodes[node_index].add(video_id, label, feature)
        self._shard_rows[primary] += 1
        self._labels.append(int(label))
        self._row_count += 1
        self._next_shard = (primary + 1) % len(self.nodes)

    def add_batch(self, ids: list[str], labels: list[int],
                  features: np.ndarray) -> None:
        """Insert many rows, spread across shards (and their replicas).

        Rows land on exactly the shards sequential :meth:`add` calls
        would pick (round-robin from the current cursor), but each shard
        ingests its slice in one :meth:`FeatureIndex.add_batch` call.
        Mutable galleries fall back to per-row inserts to keep the
        version/bookkeeping invariants simple.
        """
        count = min(len(ids), len(labels), len(features))
        if count == 0:
            return
        if self._mutable:
            for row in range(count):
                self._add_mutable(str(ids[row]), int(labels[row]),
                                  features[row])
            return
        features = np.asarray(features[:count], dtype=np.float64)
        num_nodes = len(self.nodes)
        start = self._next_shard
        for replica in range(self.replication):
            shifted = (start + replica) % num_nodes
            for node_offset in range(min(num_nodes, count)):
                node = self.nodes[(shifted + node_offset) % num_nodes]
                rows = range(node_offset, count, num_nodes)
                node.index.add_batch(
                    [ids[row] for row in rows],
                    [labels[row] for row in rows],
                    features[node_offset::num_nodes],
                )
        for row in range(count):
            self._shard_rows[(start + row) % num_nodes] += 1
        self._labels.extend(int(label) for label in labels[:count])
        self._row_count += count
        self._next_shard = (start + count) % num_nodes

    # -------------------------------------------------------------- #
    # Online mutation (churn)
    # -------------------------------------------------------------- #
    def enable_churn(self) -> None:
        """Turn on live mutation: versioned snapshots, delete/reembed.

        A gallery populated round-robin with ``replication == 1`` can be
        switched on in place (placement is recoverable from the cursor
        arithmetic); replicated galleries must enable churn before
        ingesting rows.  Idempotent.
        """
        if self._mutable:
            return
        with self._lock:
            if self._mutable:
                return
            if self._row_count:
                if self.replication != 1:
                    raise ValueError(
                        "enable_churn() on a populated gallery requires "
                        "replication=1; enable churn before ingesting")
                num_nodes = len(self.nodes)
                for seq in range(self._row_count):
                    node_index = seq % num_nodes
                    rowid = self.nodes[node_index].index._ids[seq // num_nodes]
                    self._live_rowid[rowid] = rowid
                    self._gen[rowid] = 0
                    self._primary_of[rowid] = node_index
                    self._order.append(rowid)
            self._mutable = True
            self._snapshot_cache = None

    @property
    def mutable(self) -> bool:
        return self._mutable

    def _require_mutable(self, operation: str) -> None:
        if not self._mutable:
            raise RuntimeError(
                f"{operation}() requires enable_churn() on this gallery")

    def _bump(self) -> None:
        self._version += 1
        self._snapshot_cache = None

    def _place(self, public_id: str) -> int:
        if self._ring is not None:
            return self._ring.assign(public_id)
        return self._next_shard

    def _new_rowid(self, public_id: str) -> str:
        generation = self._gen.get(public_id, -1) + 1
        self._gen[public_id] = generation
        if generation == 0:
            return public_id
        rowid = f"{public_id}@g{generation}"
        self._alias[rowid] = public_id
        return rowid

    def _insert_row(self, public_id: str, label: int,
                    feature: np.ndarray) -> None:
        """Shared mutable-insert path; caller holds the lock."""
        rowid = self._new_rowid(public_id)
        primary = self._place(public_id)
        for node_index in self._replica_nodes(primary):
            self.nodes[node_index].add(rowid, label, feature)
        self._shard_rows[primary] += 1
        self._labels.append(int(label))
        self._order.append(rowid)
        self._row_count += 1
        if self._ring is None:
            self._next_shard = (primary + 1) % len(self.nodes)
        self._live_rowid[public_id] = rowid
        self._primary_of[rowid] = primary
        self._added_at[rowid] = self._version + 1

    def _add_mutable(self, public_id: str, label: int,
                     feature: np.ndarray) -> None:
        with self._lock:
            if public_id in self._live_rowid:
                raise ValueError(
                    f"video {public_id!r} is already live; use reembed()")
            self._insert_row(public_id, label, feature)
            counter("gallery.adds").inc()
            self._bump()

    def _tombstone(self, rowid: str) -> None:
        primary = self._primary_of[rowid]
        self._dead_at[rowid] = self._version + 1
        for node_index in self._replica_nodes(primary):
            self._node_dead[node_index].add(rowid)
        self._shard_rows[primary] -= 1
        self._dead_count += 1

    def delete(self, video_id: str) -> None:
        """Tombstone a live video; physical rows remain until compaction."""
        self._require_mutable("delete")
        with self._lock:
            public_id = str(video_id)
            rowid = self._live_rowid.pop(public_id, None)
            if rowid is None:
                raise KeyError(f"video {public_id!r} is not live")
            self._tombstone(rowid)
            counter("gallery.deletes").inc()
            self._bump()

    def reembed(self, video_id: str, label: int,
                feature: np.ndarray) -> None:
        """Replace a live video's feature row in one atomic version step.

        The old generation is tombstoned and a new aliased row inserted;
        snapshots taken before the call keep seeing the old feature,
        snapshots taken after see only the new one.
        """
        self._require_mutable("reembed")
        with self._lock:
            public_id = str(video_id)
            old_rowid = self._live_rowid.get(public_id)
            if old_rowid is None:
                raise KeyError(f"video {public_id!r} is not live")
            self._tombstone(old_rowid)
            self._insert_row(public_id, int(label), feature)
            counter("gallery.reembeds").inc()
            self._bump()

    def snapshot(self) -> GallerySnapshot:
        """An immutable view of the current gallery version."""
        self._require_mutable("snapshot")
        snap = self._snapshot_cache
        if snap is not None and snap.version == self._version:
            return snap
        with self._lock:
            snap = self._snapshot_cache
            if snap is not None and snap.version == self._version:
                return snap
            indexes = self._pinned
            snap = GallerySnapshot(
                version=self._version,
                indexes=indexes,
                watermarks=tuple(len(index) for index in indexes),
                node_dead=tuple(len(dead) for dead in self._node_dead),
                dead_at=self._dead_at,
                added_at=self._added_at,
                alias=self._alias,
                live_count=self._row_count - self._dead_count,
                tier=self.index_tier,
            )
            self._snapshot_cache = snap
            return snap

    def is_visible(self, video_id: str, version: int) -> bool:
        """Whether ``video_id`` had a live generation at ``version``."""
        public_id = str(video_id)
        generation = self._gen.get(public_id)
        if generation is None:
            return False
        for gen in range(generation + 1):
            rowid = public_id if gen == 0 else f"{public_id}@g{gen}"
            if self._added_at.get(rowid, 0) > version:
                continue
            dead = self._dead_at.get(rowid)
            if dead is None or dead > version:
                return True
        return False

    def live_ids(self) -> list[str]:
        """Public ids of all live videos, in insertion order."""
        self._require_mutable("live_ids")
        with self._lock:
            return [self._alias.get(rowid, rowid) for rowid in self._order
                    if self._dead_at.get(rowid) is None]

    # -------------------------------------------------------------- #
    # Compaction & rebalancing
    # -------------------------------------------------------------- #
    def compact(self, node_indexes: list[int] | None = None) -> int:
        """Rebuild shards from live rows only; returns rows dropped.

        Each rebuilt index is fully constructed before its node's
        reference is swapped, and the pinned tuple is replaced last, so
        readers holding older snapshots keep searching the uncompacted
        indexes they pinned.
        """
        self._require_mutable("compact")
        from repro.hashindex.tiers import resolve_index_tier

        with self._lock:
            candidates = range(len(self.nodes)) if node_indexes is None \
                else node_indexes
            targets = [index for index in candidates if self._node_dead[index]]
            if not targets:
                return 0
            factory = resolve_index_tier(self.index_tier)
            dropped = 0
            for position in targets:
                node = self.nodes[position]
                old = node.index
                dead = self._node_dead[position]
                keep = [row for row, rowid in enumerate(old._ids)
                        if rowid not in dead]
                new = factory(self.similarity)
                if keep:
                    new.add_batch(
                        [old._ids[row] for row in keep],
                        [old._labels[row] for row in keep],
                        np.stack([old._features[row] for row in keep]))
                node.index = new
                dropped += len(old) - len(keep)
                self._node_dead[position] = set()
            self._pinned = tuple(node.index for node in self.nodes)
            counter("gallery.compactions").inc(len(targets))
            counter("gallery.compacted_rows").inc(dropped)
            self._bump()
            return dropped

    def maybe_compact(self, policy) -> int:
        """Compact shards the :class:`CompactionPolicy` flags; rows dropped."""
        if policy is None or not self._mutable:
            return 0
        targets = [position for position, node in enumerate(self.nodes)
                   if policy.should_compact(len(node.index),
                                            len(self._node_dead[position]))]
        if not targets:
            return 0
        return self.compact(targets)

    def rebalance(self, num_nodes: int) -> int:
        """Re-shard live rows onto ``num_nodes`` nodes; returns rows moved.

        Requires ``placement="hash"``: the new ring agrees with the old
        one on all but ``~1/num_nodes`` of the keys, so only that slice
        relocates.  Outstanding snapshots keep their old index set and
        remain exact as long as the node count did not shrink.
        """
        self._require_mutable("rebalance")
        if self._ring is None:
            raise RuntimeError("rebalance() requires placement='hash'")
        if num_nodes < 1:
            raise ValueError("gallery needs at least one node")
        from repro.hashindex.tiers import resolve_index_tier

        with self._lock:
            new_ring = self._ring.with_nodes(num_nodes)
            rows: dict[str, tuple[int, np.ndarray]] = {}
            for node in self.nodes:
                index = node.index
                for rowid, label, feature in zip(index._ids, index._labels,
                                                 index._features):
                    rows.setdefault(rowid, (label, feature))
            factory = resolve_index_tier(self.index_tier)
            exact = self.index_tier == "exact"
            nodes = [DataNode(f"node-{i}", self.similarity, position=i,
                              index_factory=None if exact else factory)
                     for i in range(num_nodes)]
            live = [rowid for rowid in self._order
                    if self._dead_at.get(rowid) is None]
            live_labels = [label for rowid, label
                           in zip(self._order, self._labels)
                           if self._dead_at.get(rowid) is None]
            shard_rows = [0] * num_nodes
            primary_of: dict[str, int] = {}
            moved = 0
            replication = min(self.replication, num_nodes)
            for rowid, label in zip(live, live_labels):
                public_id = self._alias.get(rowid, rowid)
                primary = new_ring.assign(public_id)
                if primary != self._primary_of.get(rowid):
                    moved += 1
                feature = rows[rowid][1]
                for tail in range(replication):
                    nodes[(primary + tail) % num_nodes].add(
                        rowid, label, feature)
                shard_rows[primary] += 1
                primary_of[rowid] = primary
            self.nodes = nodes
            self._ring = new_ring
            self._shard_rows = shard_rows
            self._primary_of = primary_of
            self._node_dead = [set() for _ in range(num_nodes)]
            self._row_count = len(live)
            self._dead_count = 0
            self._order = live
            self._labels = live_labels
            self._pinned = tuple(node.index for node in self.nodes)
            self.replication = replication
            self.set_resilience(self.resilience)
            self._rebuild_topology()
            counter("gallery.rebalances").inc()
            counter("gallery.rebalance_moved_rows").inc(moved)
            self._bump()
            return moved

    # -------------------------------------------------------------- #
    # Scatter/gather search
    # -------------------------------------------------------------- #
    def _resolve_snapshot(self, snapshot: GallerySnapshot | None
                          ) -> GallerySnapshot | None:
        if snapshot is not None:
            return snapshot
        if self._mutable and self._version > 0:
            return self.snapshot()
        return None

    def search(self, query: np.ndarray, k: int,
               snapshot: GallerySnapshot | None = None
               ) -> list[RetrievalEntry]:
        """Scatter/gather top-k across live nodes, best first.

        With ``snapshot`` (or on any mutated gallery) the search is
        evaluated against exactly one gallery version.
        """
        snap = self._resolve_snapshot(snapshot)
        if self.fault_plan is not None:
            self.fault_plan.advance(1)
        with span("gallery.search", k=int(k)):
            pinned = self._pinned if snap is None else None
            partials = self._scatter(
                lambda node: [self._node_search(node, query, k, snap,
                                                pinned)])
            merged = self._merge([lists[0] for lists in partials], k)
            counter("gallery.searches").inc()
            return merged

    def search_batch(self, queries: np.ndarray, k: int,
                     snapshot: GallerySnapshot | None = None
                     ) -> list[list[RetrievalEntry]]:
        """Scatter/gather top-k for a ``(B, d)`` query matrix.

        Each live node scores the whole batch in one vectorized pass; the
        coordinator then merges partial lists per query.  Results are
        identical to B sequential :meth:`search` calls.
        """
        queries = np.asarray(queries, dtype=np.float64)
        batch = queries.shape[0]
        snap = self._resolve_snapshot(snapshot)
        if self.fault_plan is not None:
            self.fault_plan.advance(batch)
        with span("gallery.search_batch", k=int(k), batch=batch):
            pinned = self._pinned if snap is None else None
            node_results = self._scatter(
                lambda node: self._node_search_batch(node, queries, k, snap,
                                                     pinned),
                weight=batch)
            merged_lists = [
                self._merge([results[query_idx] for results in node_results],
                            k)
                for query_idx in range(batch)
            ]
            counter("gallery.searches").inc(batch)
            return merged_lists

    def _node_search(self, node: DataNode, query: np.ndarray, k: int,
                     snap: GallerySnapshot | None,
                     pinned) -> list[RetrievalEntry]:
        if snap is None:
            return node.search(query, k, index=pinned[node.position])
        node._pre_search()
        node.search_count += 1
        entries = self._snapshot_search_one(snap, node.position, query, k)
        if node.fault_injector is not None:
            entries = node.fault_injector.transform(node.node_id, entries)
        return entries

    def _node_search_batch(self, node: DataNode, queries: np.ndarray, k: int,
                           snap: GallerySnapshot | None,
                           pinned) -> list[list[RetrievalEntry]]:
        if snap is None:
            return node.search_batch(queries, k, index=pinned[node.position])
        node._pre_search()
        node.search_count += len(queries)
        results = self._snapshot_search_batch(snap, node.position, queries, k)
        if node.fault_injector is not None:
            results = [node.fault_injector.transform(node.node_id, entries)
                       for entries in results]
        return results

    def _snapshot_search_one(self, snap: GallerySnapshot, position: int,
                             query: np.ndarray, k: int
                             ) -> list[RetrievalEntry]:
        if position >= len(snap.indexes):
            # The gallery grew past the snapshot's node count (rebalance
            # while this query was in flight); new nodes hold no rows
            # visible at the snapshot's version.
            return []
        index = snap.indexes[position]
        watermark = snap.watermarks[position]
        fetch = int(k) + snap.node_dead[position]
        if hasattr(index, "rank_limited"):
            candidates = index.candidates(
                *index.rank_limited(query, fetch, watermark))
        else:
            # Compressed tiers cannot cap scored rows, so over-fetch by
            # the rows appended past the watermark and filter instead.
            fetch += max(0, len(index) - watermark)
            candidates = entry_candidates(index.search(query, fetch))
        return filter_entries(candidates, snap, int(k))

    def _snapshot_search_batch(self, snap: GallerySnapshot, position: int,
                               queries: np.ndarray, k: int
                               ) -> list[list[RetrievalEntry]]:
        if position >= len(snap.indexes):
            return [[] for _ in range(len(queries))]
        index = snap.indexes[position]
        watermark = snap.watermarks[position]
        fetch = int(k) + snap.node_dead[position]
        if hasattr(index, "rank_batch_limited"):
            ranked = zip(*index.rank_batch_limited(queries, fetch, watermark))
            candidate_lists = [index.candidates(scores, order)
                               for scores, order in ranked]
        else:
            fetch += max(0, len(index) - watermark)
            candidate_lists = [entry_candidates(raw) for raw in
                               index.search_batch(queries, fetch)]
        return [filter_entries(candidates, snap, int(k))
                for candidates in candidate_lists]

    # -------------------------------------------------------------- #
    # Scatter
    # -------------------------------------------------------------- #
    def _scatter(self, call, weight: int = 1) -> list:
        """Retry + breaker + deadline + hedged scatter over all nodes.

        A gallery without a resilience config scatters under
        :data:`PLAIN_RESILIENCE`: failing nodes are skipped and the
        rest are merged.
        """
        config = self.resilience
        results: dict[int, list] = {}
        latencies: dict[int, float] = {}
        for index, (node, breaker, retry) in enumerate(self._node_plan):
            if breaker is not None and not breaker.allow():
                counter("resilience.breaker_short_circuits",
                        node=node.node_id).inc()
                continue
            try:
                value, latency = self._attempt_node(node, call, retry)
            except (NodeDownError, DeadlineExceeded):
                if breaker is not None:
                    breaker.record_failure()
                counter("gallery.node_skipped", node=node.node_id).inc()
                continue
            if breaker is not None:
                breaker.record_success()
            results[index] = value
            latencies[index] = latency
            histogram("gallery.node_latency_s",
                      buckets=NODE_LATENCY_BUCKETS,
                      node=node.node_id).observe(latency)

        # Hedged reads: drop slow nodes whose shards faster replicas
        # already cover (the replica responses are the hedge).
        if config.hedge_after_s is not None:
            for index in sorted(results):
                if latencies[index] <= config.hedge_after_s:
                    continue
                node_id = self.nodes[index].node_id
                if self._covers_all_shards(set(results) - {index}):
                    del results[index]
                    counter("resilience.hedge_wins", node=node_id).inc()
                else:
                    counter("resilience.hedge_losses", node=node_id).inc()

        if not self._covers_all_shards(set(results)):
            counter("resilience.uncovered_queries").inc(weight)
            if config.on_data_loss == "raise":
                missing = [
                    primary for primary in range(len(self.nodes))
                    if self._shard_rows[primary]
                    and not any(replica in results
                                for replica in self._replica_nodes(primary))
                ]
                raise RetrievalUnavailable(
                    f"no live replica for shard(s) {missing}")
            if not results:
                # Zero answering nodes is not a degraded answer — it is
                # no answer; an empty list would read as "the gallery is
                # empty", so "degrade" raises here too.
                raise RetrievalUnavailable(
                    "no live node answered the scatter "
                    f"({self._row_count} rows unreachable)")
            counter("gallery.degraded_searches").inc(weight)
        elif len(results) < len(self.nodes):
            counter("resilience.degraded_covered_queries").inc(weight)
        return [results[index] for index in sorted(results)]

    def _attempt_node(self, node: DataNode, call, retry: RetryExecutor | None):
        """One node's scatter leg under retry and the per-query deadline."""
        config = self.resilience

        def attempt():
            start = time.perf_counter()
            value = call(node)
            latency = (time.perf_counter() - start
                       + node.last_injected_latency_s)
            if config.deadline_s is not None and latency > config.deadline_s:
                counter("resilience.deadline_exceeded",
                        node=node.node_id).inc()
                raise DeadlineExceeded(
                    f"node {node.node_id} answered in {latency:.4f}s "
                    f"(> deadline {config.deadline_s}s)")
            return value, latency

        if retry is None:
            return attempt()
        return retry.run(attempt)

    def _covers_all_shards(self, available: set[int]) -> bool:
        """Whether every non-empty shard has a replica in ``available``."""
        if len(available) == len(self.nodes):
            return True  # every node answered — trivially covered
        return all(
            rows == 0
            or any(replica in available
                   for replica in self._replica_nodes(primary))
            for primary, rows in enumerate(self._shard_rows)
        )

    # -------------------------------------------------------------- #
    # Merge
    # -------------------------------------------------------------- #
    def _merge(self, partials: list[list[RetrievalEntry]],
               k: int) -> list[RetrievalEntry]:
        """Merge per-node top-k lists into the global top-k, best first.

        Without replication this is a plain ordered merge.  With
        replication, the same row may arrive from several replicas; the
        merge deduplicates by video id and resolves score disagreements
        (a corrupt replica) by majority vote — the first-seen score wins
        ties, and a disagreement increments
        ``resilience.quorum_mismatches``.
        """
        merged = heapq.merge(*partials, key=lambda entry: -entry.score)
        if self.replication == 1:
            return list(merged)[: int(k)]
        votes: dict[str, dict[float, int]] = {}
        first: dict[str, tuple[int, RetrievalEntry]] = {}
        for position, entry in enumerate(merged):
            votes.setdefault(entry.video_id, {})
            scores = votes[entry.video_id]
            scores[entry.score] = scores.get(entry.score, 0) + 1
            if entry.video_id not in first:
                first[entry.video_id] = (position, entry)
        resolved = []
        for video_id, scores in votes.items():
            if len(scores) > 1:
                counter("resilience.quorum_mismatches").inc()
            score = max(scores.items(), key=lambda item: item[1])[0]
            position, entry = first[video_id]
            resolved.append((-score, position,
                             RetrievalEntry(video_id, entry.label, score)))
        resolved.sort(key=lambda item: (item[0], item[1]))
        return [entry for _, _, entry in resolved[: int(k)]]

    def labels_of(self) -> list[int]:
        """All live logical labels, in insertion order (replicas deduped)."""
        if not self._mutable or not self._dead_count:
            return list(self._labels)
        return [label for rowid, label in zip(self._order, self._labels)
                if self._dead_at.get(rowid) is None]
