"""Tests for the distributed sharded gallery (incl. failure injection)."""

import numpy as np
import pytest

from repro.obs import counter, get_registry
from repro.resilience import ResilienceConfig
from repro.retrieval import (
    DataNode,
    FeatureIndex,
    NodeDownError,
    RetrievalUnavailable,
    ShardedGallery,
)


@pytest.fixture
def gallery(rng):
    gallery = ShardedGallery(num_nodes=3)
    for i in range(12):
        gallery.add(f"v{i}", i % 4, rng.normal(size=5))
    return gallery


class TestSharding:
    def test_round_robin_placement(self, gallery):
        sizes = [len(node) for node in gallery.nodes]
        assert sizes == [4, 4, 4]

    def test_total_length(self, gallery):
        assert len(gallery) == 12

    def test_needs_at_least_one_node(self):
        with pytest.raises(ValueError):
            ShardedGallery(num_nodes=0)

    def test_topology_is_star(self, gallery):
        assert gallery.topology.number_of_nodes() == 4
        assert gallery.topology.degree("coordinator") == 3


class TestScatterGather:
    def test_merge_matches_flat_index(self, rng):
        gallery = ShardedGallery(num_nodes=4)
        flat = FeatureIndex()
        features = rng.normal(size=(20, 6))
        for i, feature in enumerate(features):
            gallery.add(f"v{i}", 0, feature)
            flat.add(f"v{i}", 0, feature)
        query = rng.normal(size=6)
        merged = [e.video_id for e in gallery.search(query, k=7)]
        reference = [e.video_id for e in flat.search(query, k=7)]
        assert merged == reference

    def test_search_scores_descending(self, gallery, rng):
        entries = gallery.search(rng.normal(size=5), k=8)
        scores = [e.score for e in entries]
        assert scores == sorted(scores, reverse=True)

    def test_labels_of_spans_shards(self, gallery):
        assert len(gallery.labels_of()) == 12


class TestFailureInjection:
    def test_downed_node_raises_on_direct_search(self, rng):
        node = DataNode("n0")
        node.add("v", 0, rng.normal(size=3))
        node.take_down()
        with pytest.raises(NodeDownError):
            node.search(rng.normal(size=3), 1)

    def test_gallery_degrades_gracefully(self, gallery, rng):
        query = rng.normal(size=5)
        full = gallery.search(query, k=12)
        gallery.nodes[0].take_down()
        degraded = gallery.search(query, k=12)
        assert len(degraded) == 8  # one shard of 4 missing
        surviving = {e.video_id for e in degraded}
        assert surviving.issubset({e.video_id for e in full})

    def test_recovery(self, gallery, rng):
        gallery.nodes[1].take_down()
        gallery.nodes[1].bring_up()
        assert len(gallery.search(rng.normal(size=5), k=12)) == 12

    def test_all_nodes_down_raises_unavailable(self, gallery, rng):
        # Regression: the plain scatter used to return empty partials —
        # and thus an empty retrieval list, as if the gallery held no
        # videos — when zero nodes were live.
        for node in gallery.nodes:
            node.take_down()
        assert gallery.live_nodes == []
        with pytest.raises(RetrievalUnavailable):
            gallery.search(rng.normal(size=5), k=5)

    def test_all_nodes_down_raises_unavailable_batched(self, gallery, rng):
        for node in gallery.nodes:
            node.take_down()
        with pytest.raises(RetrievalUnavailable):
            gallery.search_batch(rng.normal(size=(3, 5)), k=5)

    def test_all_nodes_down_raises_on_resilient_scatter_too(self, rng):
        gallery = ShardedGallery(num_nodes=3,
                                 resilience=ResilienceConfig(replication=1))
        gallery.add_batch([f"v{i}" for i in range(6)], [0] * 6,
                          rng.normal(size=(6, 5)))
        for node in gallery.nodes:
            node.take_down()
        with pytest.raises(RetrievalUnavailable):
            gallery.search(rng.normal(size=5), k=4)

    @pytest.mark.parametrize("batched", [False, True])
    def test_all_nodes_down_raises_under_degrade_policy(self, rng, batched):
        # Regression: "degrade" served the partial merge even when no
        # node answered, returning [] as if the gallery were empty.
        gallery = ShardedGallery(
            num_nodes=3, resilience=ResilienceConfig(on_data_loss="degrade"))
        gallery.add_batch([f"v{i}" for i in range(6)], [0] * 6,
                          rng.normal(size=(6, 5)))
        for node in gallery.nodes:
            node.take_down()
        with pytest.raises(RetrievalUnavailable, match="no live node"):
            if batched:
                gallery.search_batch(rng.normal(size=(2, 5)), k=4)
            else:
                gallery.search(rng.normal(size=5), k=4)

    def test_all_nodes_down_on_an_empty_gallery_is_still_empty(self, rng):
        # No rows stored → an empty list is the *correct* answer, not an
        # outage, whichever scatter strategy runs.
        plain = ShardedGallery(num_nodes=2)
        resilient = ShardedGallery(num_nodes=2,
                                   resilience=ResilienceConfig(replication=1))
        for gallery in (plain, resilient):
            for node in gallery.nodes:
                node.take_down()
            assert gallery.search(rng.normal(size=5), k=3) == []

    def test_search_counts(self, gallery, rng):
        gallery.search(rng.normal(size=5), k=3)
        assert all(node.search_count == 1 for node in gallery.nodes)


class TestDegradedObservability:
    """Degraded retrieval stays correct and shows up in the obs counters."""

    def test_merge_still_correct_with_node_down(self, rng):
        gallery = ShardedGallery(num_nodes=4)
        flat_surviving = FeatureIndex()
        features = rng.normal(size=(20, 6))
        downed_shard = 2
        for i, feature in enumerate(features):
            gallery.add(f"v{i}", 0, feature)
            if i % 4 != downed_shard:  # rows land round-robin on shard i%4
                flat_surviving.add(f"v{i}", 0, feature)
        gallery.nodes[downed_shard].take_down()
        query = rng.normal(size=6)
        merged = [e.video_id for e in gallery.search(query, k=7)]
        reference = [e.video_id for e in flat_surviving.search(query, k=7)]
        assert merged == reference

    def test_node_skipped_counter_increments(self, gallery, rng):
        downed = gallery.nodes[0]
        before = counter("gallery.node_skipped", node=downed.node_id).value
        downed.take_down()
        gallery.search(rng.normal(size=5), k=3)
        gallery.search(rng.normal(size=5), k=3)
        after = counter("gallery.node_skipped", node=downed.node_id).value
        assert after - before == 2

    def test_degraded_searches_counter(self, gallery, rng):
        searches_before = counter("gallery.searches").value
        degraded_before = counter("gallery.degraded_searches").value
        gallery.search(rng.normal(size=5), k=3)  # healthy
        gallery.nodes[1].take_down()
        gallery.search(rng.normal(size=5), k=3)  # degraded
        assert counter("gallery.searches").value - searches_before == 2
        assert counter("gallery.degraded_searches").value \
            - degraded_before == 1

    def test_direct_search_on_down_node_counted(self, rng):
        node = DataNode("obs-test-node")
        node.add("v", 0, rng.normal(size=3))
        node.take_down()
        key = "gallery.node_down_errors"
        before = counter(key, node=node.node_id).value
        with pytest.raises(NodeDownError):
            node.search(rng.normal(size=3), 1)
        assert counter(key, node=node.node_id).value - before == 1

    def test_node_latency_histogram_observed(self, gallery, rng):
        registry = get_registry()
        node_id = gallery.nodes[0].node_id
        hist = registry.histogram("gallery.node_latency_s", node=node_id)
        before = hist.count
        gallery.search(rng.normal(size=5), k=3)
        assert hist.count == before + 1
        assert hist.maximum >= 0.0
