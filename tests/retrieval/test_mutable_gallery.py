"""Online-gallery semantics: add/delete/re-embed, snapshots, compaction.

The churn contract under test: every mutation bumps the gallery
version, readers pin an immutable snapshot and keep seeing exactly that
version while writers race ahead, tombstones never resurrect, and
compaction/rebalancing are invisible to retrieval results.
"""

import numpy as np
import pytest

from repro.hashindex import CompactionPolicy
from repro.qa.generators import draw_clustered_gallery
from repro.qa.invariants import check_snapshot_consistency
from repro.retrieval import ShardedGallery


def build_gallery(seed=0, rows=24, nodes=3, dim=8, placement="round-robin",
                  churn_first=False):
    rng = np.random.default_rng(seed)
    ids, labels, features = draw_clustered_gallery(rng, rows, dim)
    gallery = ShardedGallery(num_nodes=nodes, placement=placement)
    if churn_first:
        gallery.enable_churn()
    for video_id, label, feature in zip(ids, labels, features):
        gallery.add(video_id, label, feature)
    return gallery, ids, features, rng


class TestMutationBasics:
    def test_enable_churn_on_populated_round_robin(self):
        gallery, ids, features, _ = build_gallery()
        gallery.enable_churn()
        assert gallery.mutable
        assert gallery.live_ids() == list(ids)
        assert gallery.version == 0

    def test_delete_hides_logically_keeps_physically(self):
        gallery, ids, features, _ = build_gallery()
        gallery.enable_churn()
        before = gallery.physical_rows
        gallery.delete(ids[3])
        assert len(gallery) == len(ids) - 1
        assert gallery.physical_rows == before
        assert ids[3] not in gallery.live_ids()
        assert gallery.version == 1
        hits = gallery.search(features[3], k=len(ids))
        assert ids[3] not in {entry.video_id for entry in hits}

    def test_delete_then_readd_same_id(self):
        gallery, ids, features, _ = build_gallery()
        gallery.enable_churn()
        gallery.delete(ids[0])
        gallery.add(ids[0], 7, features[0] + 1.0)
        assert ids[0] in gallery.live_ids()
        hits = gallery.search(features[0] + 1.0, k=3)
        assert hits[0].video_id == ids[0]
        assert hits[0].label == 7

    def test_reembed_is_one_atomic_version_step(self):
        gallery, ids, features, _ = build_gallery()
        gallery.enable_churn()
        old_snap = gallery.snapshot()
        moved = features[5] + 10.0
        gallery.reembed(ids[5], 99, moved)
        assert gallery.version == 1
        assert len(gallery) == len(ids)
        # New readers see only the new feature, under the public id.
        hits = gallery.search(moved, k=2)
        assert hits[0].video_id == ids[5] and hits[0].label == 99
        # Readers pinned before the re-embed see only the old row.
        old_hits = gallery.search(features[5], k=1, snapshot=old_snap)
        assert old_hits[0].video_id == ids[5]
        assert old_hits[0].label != 99

    def test_mutation_error_paths(self):
        gallery, ids, features, _ = build_gallery()
        with pytest.raises(RuntimeError, match="enable_churn"):
            gallery.delete(ids[0])
        gallery.enable_churn()
        with pytest.raises(KeyError):
            gallery.delete("no-such-video")
        with pytest.raises(KeyError):
            gallery.reembed("no-such-video", 0, features[0])
        with pytest.raises(ValueError, match="already live"):
            gallery.add(ids[0], 1, features[0])
        gallery.delete(ids[0])
        with pytest.raises(KeyError):
            gallery.delete(ids[0])  # tombstones do not delete twice


class TestSnapshotConsistency:
    def test_pinned_snapshot_survives_later_mutations(self):
        gallery, ids, features, rng = build_gallery(rows=18)
        gallery.enable_churn()
        snap = gallery.snapshot()
        query = features[2]
        pinned_before = gallery.search(query, k=6, snapshot=snap)
        gallery.delete(ids[2])
        gallery.add("late-arrival", 50, query + 0.001)
        gallery.reembed(ids[4], 51, rng.normal(size=query.shape))
        pinned_after = gallery.search(query, k=6, snapshot=snap)
        assert [(e.video_id, e.score) for e in pinned_before] == \
            [(e.video_id, e.score) for e in pinned_after]
        check_snapshot_consistency(gallery, snap, pinned_after, k=6)
        fresh = gallery.search(query, k=6)
        fresh_ids = {entry.video_id for entry in fresh}
        assert ids[2] not in fresh_ids
        assert "late-arrival" in fresh_ids
        check_snapshot_consistency(gallery, gallery.snapshot(), fresh, k=6)

    def test_snapshot_never_shows_rows_from_the_future(self):
        gallery, ids, features, _ = build_gallery(rows=10)
        gallery.enable_churn()
        snap = gallery.snapshot()
        probe = features[0] + 0.0005
        gallery.add("future-row", 60, probe)
        hits = gallery.search(probe, k=4, snapshot=snap)
        assert "future-row" not in {entry.video_id for entry in hits}
        check_snapshot_consistency(gallery, snap, hits, k=4)


    def test_snapshot_batch_builds_entries_only_for_returned_rows(
            self, monkeypatch):
        # Each shard carries >= 64 tombstones, so a snapshot read
        # over-fetches k + 64 rows per node; only the rows it returns
        # may become RetrievalEntry objects.
        from repro.retrieval import RetrievalEntry

        gallery, ids, features, rng = build_gallery(rows=320, nodes=2)
        gallery.enable_churn()
        for video_id in ids[:160]:
            gallery.delete(video_id)
        snap = gallery.snapshot()
        assert min(snap.node_dead) >= 64
        built = []
        shipped_init = RetrievalEntry.__init__

        def counting_init(entry, *args, **kwargs):
            built.append(1)
            shipped_init(entry, *args, **kwargs)

        monkeypatch.setattr(RetrievalEntry, "__init__", counting_init)
        queries = features[:6] + 0.01 * rng.normal(size=(6, 8))
        results = gallery.search_batch(queries, k=8, snapshot=snap)
        monkeypatch.undo()
        assert all(len(result) == 8 for result in results)
        assert len(built) <= 8 * gallery.num_nodes * len(queries)


class TestCompaction:
    def test_compact_drops_tombstones_without_changing_results(self):
        gallery, ids, features, _ = build_gallery(rows=20)
        gallery.enable_churn()
        for victim in ids[:6]:
            gallery.delete(victim)
        query = features[10]
        before = gallery.search(query, k=8)
        physical = gallery.physical_rows
        dropped = gallery.compact()
        assert dropped == 6
        assert gallery.physical_rows == physical - 6
        after = gallery.search(query, k=8)
        assert [(e.video_id, e.score) for e in before] == \
            [(e.video_id, e.score) for e in after]

    def test_maybe_compact_respects_policy_thresholds(self):
        gallery, ids, _, _ = build_gallery(rows=20)
        gallery.enable_churn()
        strict = CompactionPolicy(min_dead_fraction=0.9, min_dead_rows=50)
        gallery.delete(ids[0])
        assert gallery.maybe_compact(strict) == 0
        eager = CompactionPolicy(min_dead_fraction=0.01, min_dead_rows=1)
        assert gallery.maybe_compact(eager) == 1
        assert gallery.maybe_compact(eager) == 0  # nothing left to drop

    def test_old_snapshot_still_reads_after_compaction(self):
        gallery, ids, features, _ = build_gallery(rows=16)
        gallery.enable_churn()
        snap = gallery.snapshot()
        for victim in ids[:5]:
            gallery.delete(victim)
        gallery.compact()
        hits = gallery.search(features[1], k=5, snapshot=snap)
        # The pinned snapshot predates the deletes: the victims are
        # still visible through the old index objects it captured.
        assert ids[1] in {entry.video_id for entry in hits}
        check_snapshot_consistency(gallery, snap, hits, k=5)


class TestRebalance:
    def test_rebalance_moves_a_bounded_slice(self):
        gallery, ids, features, _ = build_gallery(
            rows=40, nodes=4, placement="hash")
        query = features[7]
        before = gallery.search(query, k=10)
        moved = gallery.rebalance(5)
        assert 0 < moved <= len(ids) // 2
        assert gallery.num_nodes == 5
        after = gallery.search(query, k=10)
        assert [(e.video_id, e.score) for e in before] == \
            [(e.video_id, e.score) for e in after]

    def test_rebalance_requires_hash_placement(self):
        gallery, _, _, _ = build_gallery()
        gallery.enable_churn()
        with pytest.raises(RuntimeError, match="hash"):
            gallery.rebalance(5)
