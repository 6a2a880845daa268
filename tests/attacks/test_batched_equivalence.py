"""Batched candidate evaluation must be indistinguishable from sequential.

The fast paths (``RetrievalObjective.values``, speculative ±ε pairs in
SparseQuery/SimBA, probe batching in NES) promise *exact* sequential
semantics: same rng consumption, same query counts, same traces, same
accepted perturbations.  These tests run each attack twice — batching
forced off, then on — against the same victim and assert the observable
state is identical.
"""

import numpy as np
import pytest

from repro.attacks.duo import SparseQuery, TransferPriors
from repro.attacks.objective import (
    RetrievalObjective,
    UntargetedRetrievalObjective,
)
from repro.attacks.search import nes_search, simba_search
from repro.retrieval import RetrievalEngine, RetrievalService


@pytest.fixture(scope="module")
def cacheless_engine(tiny_victim):
    """The victim's model + gallery behind a cache-free engine.

    Disabling the embedding cache keeps the equivalence runs honest: the
    second run must reproduce the first through an actual batched model
    forward, not by replaying cached embeddings.
    """
    engine = RetrievalEngine(tiny_victim.engine.extractor, num_nodes=3,
                             cache_size=0)
    engine.gallery = tiny_victim.engine.gallery
    return engine


def fresh_service(engine, **kwargs):
    return RetrievalService.build(engine, m=8, **kwargs)


def make_priors(original, rng, k=60):
    """Synthetic transfer priors over ``k`` random support coordinates."""
    shape = original.pixels.shape
    per_frame = int(np.prod(shape[1:]))
    # Support confined to the first two frames so the frame mask bites.
    flat_support = np.zeros(int(np.prod(shape)), dtype=bool)
    flat_support[rng.choice(2 * per_frame, size=k, replace=False)] = True
    pixel_mask = flat_support.reshape(shape)
    theta = np.zeros(shape)
    theta.reshape(-1)[flat_support] = rng.uniform(-0.1, 0.1, size=k)
    frame_mask = np.zeros(shape[0])
    frame_mask[:2] = 1.0
    return TransferPriors(pixel_mask=pixel_mask, frame_mask=frame_mask,
                          theta=theta)


class TestSparseQueryEquivalence:
    def test_trace_and_result_identical(self, cacheless_engine, attack_pair,
                                        rng):
        original, target = attack_pair
        priors = make_priors(original, rng)
        runs = {}
        for batched in (False, True):
            service = fresh_service(cacheless_engine)
            objective = RetrievalObjective(service, original, target)
            query = SparseQuery(iter_num_q=6, tau=30, rng=123,
                                batched=batched)
            adversarial, trace = query.run(original, priors, objective)
            runs[batched] = (adversarial, trace, objective.queries,
                             list(objective.trace), service.query_count)
        seq, bat = runs[False], runs[True]
        np.testing.assert_array_equal(bat[0].pixels, seq[0].pixels)
        assert bat[1] == seq[1]          # attack trace, bit-identical
        assert bat[2] == seq[2]          # objective query count
        assert bat[3] == seq[3]          # objective trace
        assert bat[4] == seq[4]          # service query count

    def test_auto_mode_disables_under_preprocessor(self, cacheless_engine,
                                                   attack_pair, rng):
        original, target = attack_pair
        priors = make_priors(original, rng)
        calls = []

        def preprocessor(video):
            calls.append(video.video_id)
            return video

        service = fresh_service(cacheless_engine, preprocessor=preprocessor)
        objective = RetrievalObjective(service, original, target)
        query = SparseQuery(iter_num_q=3, tau=30, rng=1)  # batched=None
        query.run(original, priors, objective)
        # Every preprocessor call corresponds to a counted query: no
        # phantom evaluations leaked through speculation.
        assert len(calls) == service.query_count

    def test_budget_exhaustion_identical(self, cacheless_engine, attack_pair,
                                         rng):
        from repro.retrieval import QueryBudgetExceeded

        original, target = attack_pair
        priors = make_priors(original, rng)
        counts = {}
        for batched in (False, True):
            service = fresh_service(cacheless_engine, query_budget=7)
            objective = RetrievalObjective(service, original, target)
            query = SparseQuery(iter_num_q=50, tau=30, rng=123,
                                batched=batched)
            with pytest.raises(QueryBudgetExceeded):
                query.run(original, priors, objective)
            counts[batched] = (service.query_count, list(objective.trace))
        assert counts[True] == counts[False]


class TestSimbaEquivalence:
    def test_trace_identical(self, cacheless_engine, attack_pair, rng):
        original, target = attack_pair
        support = np.zeros(original.pixels.shape, dtype=bool)
        support[:2] = True
        runs = {}
        for batched in (False, True):
            service = fresh_service(cacheless_engine)
            objective = RetrievalObjective(service, original, target)
            report = simba_search(
                original, objective, support, tau=0.1, iterations=6,
                rng=np.random.default_rng(7), batched=batched,
            )
            runs[batched] = (report.perturbation, report.trace,
                             objective.queries, service.query_count)
        seq, bat = runs[False], runs[True]
        np.testing.assert_array_equal(bat[0], seq[0])
        assert bat[1:] == seq[1:]

    def test_auto_mode_speculates_only_on_a_safe_service(
            self, cacheless_engine, attack_pair):
        original, target = attack_pair
        support = np.zeros(original.pixels.shape, dtype=bool)
        support[:2] = True
        for instrumented in (False, True):
            service = fresh_service(cacheless_engine)
            if instrumented:
                # An instance-level ``query`` override (a detector or a
                # spy) makes the service unsafe to speculate against.
                service.query = service.query
            objective = RetrievalObjective(service, original, target)
            assert objective.speculation_safe is not instrumented
            speculated = []
            speculate = objective.speculate

            def spy(candidates, speculate=speculate, speculated=speculated):
                speculated.append(len(candidates))
                return speculate(candidates)

            objective.speculate = spy
            simba_search(original, objective, support, tau=0.1,
                         iterations=6,
                         rng=np.random.default_rng(7))  # batched=None
            assert objective.queries == service.query_count
            if instrumented:
                assert speculated == []   # the sequential loop
            else:
                assert speculated and set(speculated) == {2}


class TestNesEquivalence:
    def test_trace_identical(self, cacheless_engine, attack_pair):
        original, target = attack_pair
        support = np.zeros(original.pixels.shape, dtype=bool)
        support[:2] = True
        runs = {}
        for batched in (False, True):
            service = fresh_service(cacheless_engine)
            objective = RetrievalObjective(service, original, target)
            report = nes_search(
                original, objective, support, tau=0.06, iterations=2,
                samples=2, rng=np.random.default_rng(11), batched=batched,
            )
            runs[batched] = (report.perturbation, report.trace,
                             objective.queries, list(objective.trace),
                             service.query_count)
        seq, bat = runs[False], runs[True]
        np.testing.assert_array_equal(bat[0], seq[0])
        assert bat[1:] == seq[1:]

    def test_auto_mode_batches_only_when_values_exists(
            self, cacheless_engine, attack_pair):
        original, target = attack_pair
        support = np.zeros(original.pixels.shape, dtype=bool)
        support[:2] = True
        for has_values in (True, False):
            service = fresh_service(cacheless_engine)
            objective = RetrievalObjective(service, original, target)
            batches = []
            values = objective.values

            def spy(candidates, values=values, batches=batches):
                batches.append(len(candidates))
                return values(candidates)

            # ``values = None`` stands in for an objective without a
            # batch entry point.
            objective.values = spy if has_values else None
            nes_search(original, objective, support, tau=0.06, iterations=2,
                       samples=2, rng=np.random.default_rng(11))
            assert batches == ([4, 4] if has_values else [])
            assert objective.queries == service.query_count


class TestObjectiveValues:
    def test_values_matches_value_loop(self, cacheless_engine, attack_pair,
                                       rng):
        original, target = attack_pair
        candidates = [
            original.perturbed(rng.uniform(-0.05, 0.05,
                                           size=original.pixels.shape))
            for _ in range(4)
        ]
        service_a = fresh_service(cacheless_engine)
        sequential = RetrievalObjective(service_a, original, target)
        expected = [sequential.value(c) for c in candidates]

        service_b = fresh_service(cacheless_engine)
        batched = RetrievalObjective(service_b, original, target)
        got = batched.values(candidates)

        assert got == expected
        assert batched.queries == sequential.queries
        assert batched.trace == sequential.trace
        assert service_b.query_count == service_a.query_count

    def test_untargeted_values_and_speculate(self, cacheless_engine,
                                             attack_pair, rng):
        original, _ = attack_pair
        candidates = [
            original.perturbed(rng.uniform(-0.05, 0.05,
                                           size=original.pixels.shape))
            for _ in range(3)
        ]
        service_a = fresh_service(cacheless_engine)
        sequential = UntargetedRetrievalObjective(service_a, original)
        expected = [sequential.value(c) for c in candidates]

        service_b = fresh_service(cacheless_engine)
        batched = UntargetedRetrievalObjective(service_b, original)
        assert batched.values(candidates) == expected

        service_c = fresh_service(cacheless_engine)
        speculating = UntargetedRetrievalObjective(service_c, original)
        speculated = speculating.speculate(candidates)
        assert speculated == expected
        assert speculating.queries == 1  # nothing committed yet
        assert speculating.trace == []
        speculating.commit(speculated[0])
        assert speculating.queries == 2
        assert speculating.trace == [expected[0]]
