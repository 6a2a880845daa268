"""The single attack result type: its names, fields and stats."""

import numpy as np
import pytest

from repro.video.types import Video


class TestImportability:
    def test_legacy_alias_is_the_same_class(self):
        from repro.attacks import AttackReport, AttackResult
        from repro.attacks.base import AttackResult as base_result
        from repro.attacks.report import AttackReport as report_class

        assert AttackResult is AttackReport
        assert base_result is AttackReport
        assert report_class is AttackReport

    def test_package_exports(self):
        import repro.attacks as attacks

        for name in ("AttackReport", "AttackResult", "AttackConfig",
                     "build_attack", "ComposedAttack", "ATTACK_STRATEGIES"):
            assert hasattr(attacks, name), name


class TestFields:
    def make_report(self, **kwargs):
        from repro.attacks.report import AttackReport

        video = Video(np.zeros((2, 4, 4, 3)))
        return AttackReport(adversarial=video,
                            perturbation=np.zeros((2, 4, 4, 3)), **kwargs)

    def test_defaults(self):
        report = self.make_report()
        assert report.queries == 0
        assert report.trace == []
        assert report.metadata == {}

    def test_old_keywords_and_unpacking_are_gone(self):
        with pytest.raises(TypeError):
            self.make_report(queries_used=1)
        with pytest.raises(TypeError):
            self.make_report(objective_trace=[])
        with pytest.raises(TypeError):
            adversarial, perturbation, trace = self.make_report()

    def test_stats_summarize_the_perturbation(self):
        report = self.make_report()
        stats = report.stats
        assert stats.linf == 0.0


class TestSearchPrimitivesReturnReports:
    def test_simba_returns_report_not_tuple(self):
        from repro.attacks.objective import RetrievalObjective
        from repro.attacks.report import AttackReport
        from repro.attacks.search import simba_search
        from repro.attacks.vanilla import random_support
        from repro.qa.world import build_world

        world = build_world(54, cache_size=0)
        objective = RetrievalObjective(world.service, world.original,
                                       world.target)
        support = random_support(world.original.pixels.shape, 20, 2, rng=3)
        report = simba_search(world.original, objective, support, tau=0.1,
                              iterations=2, rng=3)
        assert isinstance(report, AttackReport)
        assert report.queries == len(report.trace)
