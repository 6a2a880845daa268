"""White-box retrieval engine: feature extractor + sharded gallery."""

from __future__ import annotations

import numpy as np

from repro.errors import RetrievalUnavailable
from repro.models.feature_extractor import FeatureExtractor
from repro.perf.cache import EmbeddingCache, content_key
from repro.resilience.config import ResilienceConfig
from repro.retrieval.lists import RetrievalList
from repro.retrieval.nodes import ShardedGallery
from repro.retrieval.similarity import SimilarityFn, create_similarity, negative_l2
from repro.video.types import Video


class RetrievalEngine:
    """``R(·)``: embeds queries and searches the distributed gallery.

    This is the *owner-side* view of the system — it exposes the model.
    Attackers must use :class:`~repro.retrieval.service.RetrievalService`.

    Query embeddings flow through a content-hash LRU cache
    (:class:`~repro.perf.cache.EmbeddingCache`): re-querying unchanged
    pixels skips the model forward and returns bit-identical features.
    The cache assumes the extractor's weights are frozen for the engine's
    lifetime (true for every victim service here); call
    :meth:`clear_embedding_cache` after mutating them.  ``cache_size=0``
    (or ``REPRO_EMBED_CACHE=0``) disables caching.
    """

    def __init__(self, extractor: FeatureExtractor,
                 similarity: SimilarityFn | str = negative_l2,
                 num_nodes: int = 4, cache_size: int | None = None,
                 resilience: ResilienceConfig | None = None,
                 index_tier: str | None = None,
                 placement: str = "round-robin") -> None:
        if isinstance(similarity, str):
            similarity = create_similarity(similarity)
        self.extractor = extractor
        self.gallery = ShardedGallery(num_nodes=num_nodes,
                                      similarity=similarity,
                                      resilience=resilience,
                                      index_tier=index_tier,
                                      placement=placement)
        self.embedding_cache = EmbeddingCache(cache_size)
        #: None = follow the global REPRO_NN_FUSE switch.
        self._fuse: bool | None = None

    def configure_resilience(self, resilience: ResilienceConfig | None) -> None:
        """Install (or clear) a resilience config on the gallery.

        Replication is a placement property, so changing it requires an
        empty gallery; runtime knobs (retry, breaker, deadlines, hedging)
        can change at any time.
        """
        self.gallery.set_resilience(resilience)

    def configure_index_tier(self, tier: str | None) -> None:
        """Switch the gallery's per-node index tier (see
        :mod:`repro.hashindex.tiers`); stored rows are re-ingested."""
        self.gallery.set_index_tier(tier)

    def configure_fuse(self, fuse: bool | None) -> None:
        """Force trace-and-fuse query embedding on/off for this engine.

        ``None`` reverts to the global ``REPRO_NN_FUSE`` switch
        (:func:`repro.nn.jit.enabled`).  Replay is bit-identical to
        eager, so flipping this never changes retrieval results.
        """
        self._fuse = None if fuse is None else bool(fuse)

    def _fuse_effective(self, override: bool | None = None) -> bool:
        """Resolve the fuse switch for the next embedding batch.

        An installed :class:`~repro.resilience.FaultPlan` forces eager:
        fault-injection runs audit the exact op-by-op execution, and the
        suppression is surfaced on the ``nn.jit.fallbacks`` counter.
        ``override`` short-circuits the engine/global switches — the
        serving front end passes ``False`` when it runs more than one
        worker, because the fuse replay arenas are per-model, not
        per-thread.
        """
        from repro.nn import jit

        if override is not None:
            fuse = bool(override)
        else:
            fuse = jit.enabled() if self._fuse is None else self._fuse
        if fuse and getattr(self.gallery, "fault_plan", None) is not None:
            from repro.obs import counter

            counter("nn.jit.fallbacks", reason="fault_plan").inc()
            return False
        return fuse

    @property
    def index_tier(self) -> str:
        return self.gallery.index_tier

    @property
    def resilience(self) -> ResilienceConfig:
        """The gallery's scatter policy (``PLAIN_RESILIENCE`` if none set)."""
        return self.gallery.resilience

    # -------------------------------------------------------------- #
    # Embedding (cached)
    # -------------------------------------------------------------- #
    def embed_queries(self, videos: list[Video],
                      batch_size: int = 16,
                      fuse_override: bool | None = None) -> np.ndarray:
        """Embed videos through the cache; misses share one forward batch."""
        if not videos:
            return np.zeros((0, self.extractor.feature_dim))
        fuse = self._fuse_effective(fuse_override)
        if not self.embedding_cache.enabled:
            return self.extractor.embed_videos(videos, batch_size=batch_size,
                                               fuse=fuse)
        keys = [content_key(video.pixels) for video in videos]
        features: list[np.ndarray | None] = [
            self.embedding_cache.get(key) for key in keys
        ]
        miss_rows = [i for i, feature in enumerate(features) if feature is None]
        if miss_rows:
            fresh = self.extractor.embed_videos(
                [videos[i] for i in miss_rows], batch_size=batch_size,
                fuse=fuse)
            for row, feature in zip(miss_rows, fresh):
                self.embedding_cache.put(keys[row], feature)
                features[row] = feature
        return np.stack(features)

    def clear_embedding_cache(self) -> None:
        """Drop cached embeddings (required after changing model weights)."""
        self.embedding_cache.clear()

    # -------------------------------------------------------------- #
    # Gallery management
    # -------------------------------------------------------------- #
    def index_videos(self, videos: list[Video], batch_size: int = 16) -> None:
        """Embed and insert videos into the gallery."""
        features = self.embed_queries(videos, batch_size=batch_size)
        self.gallery.add_batch(
            [v.video_id for v in videos], [v.label for v in videos], features
        )

    @property
    def gallery_size(self) -> int:
        return len(self.gallery)

    # -------------------------------------------------------------- #
    # Online gallery mutation (churn)
    # -------------------------------------------------------------- #
    def enable_churn(self) -> None:
        """Allow live add/delete/re-embed on the gallery (idempotent)."""
        self.gallery.enable_churn()

    def add_video(self, video: Video) -> None:
        """Embed and insert one new video into a live gallery."""
        self.gallery.enable_churn()
        feature = self.embed_queries([video])[0]
        self.gallery.add(video.video_id, video.label, feature)

    def remove_video(self, video_id: str) -> None:
        """Tombstone a live gallery video."""
        self.gallery.delete(video_id)

    def reembed_video(self, video: Video) -> None:
        """Re-embed a live gallery video (e.g. after content edits)."""
        feature = self.embed_queries([video])[0]
        self.gallery.reembed(video.video_id, video.label, feature)

    # -------------------------------------------------------------- #
    # Retrieval
    # -------------------------------------------------------------- #
    def retrieve(self, video: Video, m: int) -> RetrievalList:
        """Return ``R^m(v)``: the ``m`` most similar gallery videos."""
        feature = self.embed_queries([video])[0]
        return RetrievalList(self.gallery.search(feature, m))

    def retrieve_batch(self, videos: list[Video], m: int,
                       snapshots: list | None = None,
                       fuse_override: bool | None = None
                       ) -> list[RetrievalList]:
        """``R^m`` for every video, embedded in one forward batch.

        Identical results to per-video :meth:`retrieve` calls; the model
        forward, gallery scoring, and top-k all run batched.

        ``snapshots`` pins each query to the
        :class:`~repro.retrieval.snapshot.GallerySnapshot` it was
        admitted under (one per video): queries sharing a snapshot are
        still scored in one vectorized pass per group, and per-query
        results match sequential :meth:`retrieve` calls made at the
        corresponding gallery versions.

        With a :class:`~repro.resilience.FaultPlan` installed the gallery
        legs run per query instead: the fault clock, rng draws, and the
        index at which an outage interrupts the batch are then all
        bit-identical to a sequential loop.  A propagating
        :class:`~repro.errors.RetrievalUnavailable` is annotated with the
        already-served prefix (``served``, ``served_count``) so callers
        can settle per-video serve-or-refund accounting.
        """
        if not videos:
            return []
        features = self.embed_queries(videos, fuse_override=fuse_override)
        if snapshots is not None:
            return self._retrieve_batch_pinned(features, m, snapshots)
        if getattr(self.gallery, "fault_plan", None) is None:
            try:
                return [
                    RetrievalList(entries)
                    for entries in self.gallery.search_batch(features, m)
                ]
            except RetrievalUnavailable as exc:
                # Unavailability without a fault plan is node *state*
                # (downed nodes), constant across the batch: a
                # sequential loop would have failed on its very first
                # query.
                exc.served = []
                exc.served_count = 0
                raise
        results = []
        for feature in features:
            try:
                results.append(RetrievalList(self.gallery.search(feature, m)))
            except RetrievalUnavailable as exc:
                exc.served = results
                exc.served_count = len(results)
                raise
        return results

    def _retrieve_batch_pinned(self, features: np.ndarray, m: int,
                               snapshots: list) -> list[RetrievalList]:
        """Batched search with one pinned snapshot per query.

        Consecutive runs of queries sharing a snapshot version score in
        one :meth:`ShardedGallery.search_batch` call; an interrupting
        :class:`RetrievalUnavailable` is annotated with the served
        prefix like the fault-plan path.
        """
        if len(snapshots) != len(features):
            raise ValueError(
                f"got {len(snapshots)} snapshots for {len(features)} queries")
        results: list[RetrievalList] = []
        row = 0
        try:
            while row < len(features):
                snap = snapshots[row]
                end = row + 1
                while end < len(features) and (
                        snapshots[end] is snap
                        or (snap is not None and snapshots[end] is not None
                            and snapshots[end].version == snap.version)):
                    end += 1
                for entries in self.gallery.search_batch(
                        features[row:end], m, snapshot=snap):
                    results.append(RetrievalList(entries))
                row = end
        except RetrievalUnavailable as exc:
            exc.served = results
            exc.served_count = len(results)
            raise
        return results

    def retrieve_by_feature(self, feature: np.ndarray, m: int) -> RetrievalList:
        """Search with a precomputed embedding (used by defenses)."""
        return RetrievalList(self.gallery.search(feature, m))
