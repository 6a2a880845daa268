"""Tier selection wiring: registry, env flag, gallery/service plumbing,
and the end-to-end DUO attack against a compressed tier."""

import numpy as np
import pytest

from repro.hashindex import BinaryHashIndex, IVFPQIndex
from repro.hashindex.tiers import (
    DEFAULT_TIER,
    INDEX_TIER_ENV,
    INDEX_TIERS,
    default_index_tier,
    resolve_index_tier,
)
from repro.qa.generators import draw_clustered_gallery
from repro.qa.world import build_world
from repro.retrieval import FeatureIndex, RetrievalEngine, ShardedGallery
from repro.retrieval.config import ServiceConfig
from repro.retrieval.index import FeatureIndex as ExactIndex


class TestRegistry:
    def test_known_tiers(self):
        assert set(INDEX_TIERS) == {"exact", "ivf", "hamming", "ivfpq"}

    def test_factories_build_the_right_types(self):
        from repro.retrieval.ann import IVFIndex
        from repro.retrieval.similarity import negative_l2

        assert isinstance(resolve_index_tier("exact")(negative_l2),
                          FeatureIndex)
        assert isinstance(resolve_index_tier("ivf")(negative_l2), IVFIndex)
        assert isinstance(resolve_index_tier("hamming")(negative_l2),
                          BinaryHashIndex)
        assert isinstance(resolve_index_tier("ivfpq")(negative_l2),
                          IVFPQIndex)
        # The shipped rerank depth is a fixed per-tier value; changing it
        # (for the recall floor) must show up here.
        assert INDEX_TIERS["hamming"](negative_l2).rerank == 64
        assert INDEX_TIERS["ivfpq"](negative_l2).rerank == 64

    def test_unknown_tier_raises(self):
        with pytest.raises(KeyError):
            resolve_index_tier("annoy")

    def test_env_flag_selects_default(self, monkeypatch):
        monkeypatch.delenv(INDEX_TIER_ENV, raising=False)
        assert default_index_tier() == DEFAULT_TIER
        monkeypatch.setenv(INDEX_TIER_ENV, "hamming")
        assert default_index_tier() == "hamming"

    def test_env_flag_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv(INDEX_TIER_ENV, "faiss")
        with pytest.raises(ValueError):
            default_index_tier()

    def test_service_config_validates_tier(self):
        assert ServiceConfig(index_tier="ivfpq").index_tier == "ivfpq"
        with pytest.raises(KeyError):
            ServiceConfig(index_tier="annoy")


def _filled_gallery(tier=None, num_nodes=2, rows=60, dim=12, seed=4):
    rng = np.random.default_rng(seed)
    ids, labels, features = draw_clustered_gallery(rng, rows, dim)
    gallery = ShardedGallery(num_nodes=num_nodes, index_tier=tier)
    gallery.add_batch(ids, labels, features)
    return gallery, features


class TestGalleryWiring:
    def test_env_flag_reaches_fresh_gallery(self, monkeypatch):
        monkeypatch.setenv(INDEX_TIER_ENV, "hamming")
        gallery, _ = _filled_gallery()
        assert gallery.index_tier == "hamming"
        for node in gallery.nodes:
            assert isinstance(node.index, BinaryHashIndex)

    def test_switch_preserves_rows_and_reranked_results(self):
        gallery, features = _filled_gallery(tier="exact")
        exact_results = gallery.search(features[3], k=5)
        before = sum(len(node.index) for node in gallery.nodes)
        gallery.set_index_tier("hamming")
        assert gallery.index_tier == "hamming"
        assert sum(len(node.index) for node in gallery.nodes) == before
        # Exact rerank means the compressed tier reproduces the exact
        # ranking on this small, well-separated gallery.
        assert gallery.search(features[3], k=5) == exact_results

    def test_switch_to_same_tier_is_noop(self):
        gallery, _ = _filled_gallery(tier="exact")
        nodes_before = [node.index for node in gallery.nodes]
        gallery.set_index_tier("exact")
        assert [node.index for node in gallery.nodes] == nodes_before

    def test_rows_added_after_switch_are_searchable(self):
        gallery, features = _filled_gallery(tier="ivfpq")
        gallery.add("late-row", 42, features[0] + 0.001)
        result = gallery.search(features[0] + 0.001, k=1)
        assert result[0].video_id == "late-row"


class TestServiceWiring:
    def test_service_build_applies_config_tier(self):
        from repro.qa.world import tiny_extractor
        from repro.retrieval.service import RetrievalService

        engine = RetrievalEngine(tiny_extractor(3), num_nodes=2)
        service = RetrievalService.build(engine, m=3, index_tier="hamming")
        assert engine.index_tier == "hamming"
        assert service.config.index_tier == "hamming"
        for node in engine.gallery.nodes:
            assert isinstance(node.index, BinaryHashIndex)

    def test_build_world_tier_switch_preserves_rankings(self):
        """The compressed tiers serve end-to-end through
        RetrievalService + ShardedGallery with exact-rerank parity on
        the tiny qa world."""
        world = build_world(11, cache_size=0)
        query = world.original
        baseline = [e.video_id for e in world.service.query(query)]
        for tier in ("hamming", "ivfpq"):
            world = build_world(11, cache_size=0)
            world.engine.configure_index_tier(tier)
            assert world.engine.index_tier == tier
            assert [e.video_id for e in world.service.query(query)] == baseline


def _qa_priors(shape, seed, k=48):
    rng = np.random.default_rng(seed)
    per_frame = int(np.prod(shape[1:]))
    flat = np.zeros(int(np.prod(shape)), dtype=bool)
    flat[rng.choice(2 * per_frame, size=min(k, 2 * per_frame),
                    replace=False)] = True
    theta = np.zeros(shape)
    theta.reshape(-1)[flat] = rng.uniform(-0.1, 0.1, size=flat.sum())
    frame_mask = np.zeros(shape[0])
    frame_mask[:2] = 1.0
    from repro.attacks.duo.priors import TransferPriors

    return TransferPriors(pixel_mask=flat.reshape(shape).astype(float),
                          frame_mask=frame_mask, theta=theta)


@pytest.mark.parametrize("tier", ["hamming", "ivfpq"])
def test_duo_attack_completes_under_budget_on_compressed_tier(tier):
    """ISSUE acceptance: a DUO sparse-query attack against the
    compressed tier completes under the same query budget the exact
    tier needs (the rerank stage returns exact scores, so the attack
    loop sees the same objective landscape)."""
    from repro.attacks.duo.sparse_query import SparseQuery
    from repro.attacks.objective import RetrievalObjective

    def run(selected_tier, budget):
        world = build_world(11, cache_size=0, query_budget=budget)
        world.engine.configure_index_tier(selected_tier)
        objective = RetrievalObjective(world.service, world.original,
                                       world.target)
        attack = SparseQuery(iter_num_q=2, tau=30, rng=16, batched=True)
        priors = _qa_priors(world.original.pixels.shape, 20)
        adversarial, trace = attack.run(world.original, priors, objective)
        return adversarial, list(trace), world.service.query_count

    _, _, exact_queries = run("exact", budget=None)
    adversarial, trace, used = run(tier, budget=exact_queries)
    assert used <= exact_queries
    assert len(trace) > 0
    assert adversarial.pixels.shape == (8, 16, 16, 3) or \
        adversarial.pixels.ndim == 4
