"""Immutable gallery snapshots for snapshot-consistent reads.

A mutable :class:`~repro.retrieval.nodes.ShardedGallery` hands every
reader a :class:`GallerySnapshot` — a frozen view of *one* gallery
version.  A query evaluated against a snapshot sees exactly the rows
that were live at that version: rows added later are hidden by the
per-node ``watermarks`` (physical row counts captured at snapshot
time), rows deleted later stay visible because their tombstone version
in ``dead_at`` exceeds the snapshot's, and rows deleted at or before
the snapshot are filtered out (the per-node ``node_dead`` counts size
the over-fetch that guarantees ``k`` live results still surface).
:func:`filter_entries` walks a shard's ranked candidates and builds
result entries only for the rows it keeps.

The dictionaries are *shared* with the gallery, not copied: mutations
only ever add keys with versions greater than any existing snapshot,
so an old snapshot's filter decisions never change.  That makes
snapshots O(nodes) to build and free to hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.retrieval.lists import RetrievalEntry


@dataclass(frozen=True)
class GallerySnapshot:
    """One immutable version of a sharded gallery."""

    #: Monotonic version counter; bumped once per mutation.
    version: int
    #: The per-node index objects pinned by this snapshot.  Tier swaps
    #: and compactions install *new* index objects, so a reader holding
    #: this tuple never observes a half-built index.
    indexes: tuple
    #: Physical rows per node at snapshot time; rows appended later sit
    #: beyond the watermark and are invisible to this snapshot.
    watermarks: tuple
    #: Tombstoned rows still physically present per node (within the
    #: watermark); used to over-fetch so filtering keeps ``k`` results.
    node_dead: tuple
    #: rowid -> version at which the row was tombstoned (shared, grow-only).
    dead_at: Mapping
    #: rowid -> version at which the row was added (shared, grow-only;
    #: rows from before churn was enabled are absent and default to 0).
    added_at: Mapping
    #: rowid -> public video id for re-embedded generations (shared).
    alias: Mapping
    #: Live (visible) row count at this version.
    live_count: int
    #: Index tier the pinned indexes were built with.
    tier: str

    def visible(self, rowid: str) -> bool:
        """Is the physical row ``rowid`` live at this version?"""
        dead = self.dead_at.get(rowid)
        if dead is not None and dead <= self.version:
            return False
        return self.added_at.get(rowid, 0) <= self.version

    def public_id(self, rowid: str) -> str:
        """Map a physical rowid to its public video id."""
        return self.alias.get(rowid, rowid)


def filter_entries(candidates: Iterable, snapshot: GallerySnapshot,
                   k: int) -> list[RetrievalEntry]:
    """Entries for the first ``k`` candidates visible at ``snapshot``.

    ``candidates`` yields ``(rowid, label, score)`` triples best first
    and may be lazy: it is consumed only until ``k`` rows are kept, and
    an entry is built only for a kept row.  Re-embedded generations are
    mapped back to their public video id so callers never observe
    internal rowids.
    """
    out: list[RetrievalEntry] = []
    for rowid, label, score in candidates:
        if not snapshot.visible(rowid):
            continue
        out.append(RetrievalEntry(snapshot.public_id(rowid), label, score))
        if len(out) >= k:
            break
    return out


def entry_candidates(entries: Iterable) -> Iterator[tuple]:
    """Built entries as :func:`filter_entries` candidates."""
    return ((entry.video_id, entry.label, entry.score) for entry in entries)


__all__ = ["GallerySnapshot", "entry_candidates", "filter_entries"]
