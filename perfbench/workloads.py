"""The four workloads: seeded inputs, fixtures, measured units, checks.

Every workload builds its fixtures through the public constructors
(``create_feature_extractor``, ``RetrievalEngine``,
``RetrievalService.build``, ``ServingConfig()``, ``build_attack``) and
changes no configuration: the seed only chooses the generated inputs
(videos, attack pairs, request timelines, churn streams, the
experiment scale's seed).

A workload is driven by ``run.py`` in *units*.  ``unit(index, kind,
clock, record)`` runs one unit and times only its measured region inside
``with clock:``; ``finish()`` runs the checks that need the whole run
(reference replays) and returns their errors.  ``kind`` is ``default``,
``traced`` or ``trace_off`` (program tracing switched off); ``record``
asks the workload to keep the layer statistics only it can see.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

#: Clip geometry and model size of ``run_all --quick`` (``QUICK_SCALE``).
GEOMETRY = {"height": 16, "width": 16, "num_frames": 8}
FEATURE_DIM = 16
MODEL_WIDTH = 4
#: The first victim and surrogate backbones of the model registry.
VICTIM, SURROGATE = "i3d", "c3d"


def child_seed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from ``(seed, *path)``; negative path entries
    (the warm-up unit's index) wrap modulo 2**32."""
    words = [seed, *(part % 2**32 for part in path)]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


@dataclass
class UnitResult:
    """What one unit did: its work, its failures and its wall time."""

    ops: int
    attempted: int
    failed: int
    wall_s: float
    errors: list[str] = field(default_factory=list)


@dataclass
class World:
    """One victim deployment: its service and the attacker's surrogate."""

    service: object
    surrogate: object = None


def build_world(seed: int, gallery, with_surrogate: bool = False) -> World:
    """Build the victim (and surrogate) and index ``gallery`` — the set-up."""
    from repro.models import create_feature_extractor
    from repro.retrieval.engine import RetrievalEngine
    from repro.retrieval.service import RetrievalService

    def model(name: str, index: int):
        extractor = create_feature_extractor(
            name, feature_dim=FEATURE_DIM, width=MODEL_WIDTH,
            rng=np.random.default_rng(child_seed(seed, index)))
        extractor.eval()
        extractor.requires_grad_(False)
        return extractor

    engine = RetrievalEngine(model(VICTIM, 1))
    engine.index_videos(gallery)
    return World(service=RetrievalService.build(engine),
                 surrogate=model(SURROGATE, 2) if with_surrogate else None)


def ledger(service) -> tuple[int, int, int]:
    return (service.query_count, service.queries_issued,
            service.queries_refunded)


# ---------------------------------------------------------------------- #
# attack-duo
# ---------------------------------------------------------------------- #
class AttackDuo:
    """Closed loop, one attacker: DUO end to end over seeded pairs.

    An op is one charged victim query; a call is one call into
    ``RetrievalService.query`` / ``query_batch`` / ``speculate``.
    """

    name = "attack-duo"
    #: Unit kinds of the traced run, and whether it starts with an
    #: untimed warm-up unit.
    kinds = ("default", "traced", "trace_off")
    warmup = True
    gallery_rows = 256
    #: Traced rounds whose layer counts the traced run reports.
    fixed_rounds = 2

    def __init__(self, seed: int, work_dir: str) -> None:
        from repro.video import load_dataset

        self.seed = seed
        dataset = load_dataset("ucf101", seed=seed, num_classes=8,
                               train_videos=self.gallery_rows,
                               test_videos=8, **GEOMETRY)
        self.gallery = dataset.train
        self.pairs = dataset.sample_attack_pairs(64, rng_or_seed=seed)
        self.world = None
        self.serving = ServingStats()

    def setup(self) -> World:
        return build_world(self.seed, self.gallery, with_surrogate=True)

    def adopt(self, worlds: list[World]) -> None:
        self.world = worlds[-1]

    def unit(self, index: int, kind: str, clock, record: bool) -> UnitResult:
        from repro.attacks import AttackConfig
        from repro.attacks.registry import build_attack

        # The traced run compares kinds on the same pair, each against a
        # freshly built service so every side starts with a cold cache.
        world = self.setup() if clock.trace_run else self.world
        original, target = self.pairs[index % len(self.pairs)]
        config = AttackConfig(strategy="duo",
                              seed=child_seed(self.seed, 7, index))
        attack = build_attack(config, service=world.service,
                              surrogate=world.surrogate)
        before = ledger(world.service)
        with clock:
            report = attack.run(original, target)
        after = ledger(world.service)
        charged, issued, refunded = (a - b for a, b in zip(after, before))
        return UnitResult(ops=charged, attempted=issued, failed=refunded,
                          wall_s=clock.wall_s,
                          errors=self._check(config, world, report, charged))

    @staticmethod
    def _check(config, world, report, charged: int) -> list[str]:
        from repro.metrics.perturbation import perturbation_summary
        from repro.qa.invariants import check_budget_conservation

        errors = []
        try:
            check_budget_conservation(world.service)
        except AssertionError as exc:
            errors.append(f"attack ledger: {exc}")
        rounds = report.metadata["rounds"]
        # Each round is bounded by k/n/τ and re-anchors at the previous
        # round's output, so the whole run is bounded by rounds × budget.
        stats = perturbation_summary(report.perturbation)
        limits = (("values perturbed", stats.spa, rounds * config.k),
                  ("frames perturbed", stats.frames, rounds * config.n),
                  ("l_inf", stats.linf, rounds * config.tau_unit() + 1e-9))
        for label, value, limit in limits:
            if value > limit:
                errors.append(f"attack {label} {value} > {limit}")
        pixels = report.adversarial.pixels
        if pixels.min() < 0.0 or pixels.max() > 1.0:
            errors.append("attack pixels left [0, 1]")
        # Two reference queries, then at most a ±pair per SimBA step.
        cap = 2 + rounds * 2 * config.iterations
        if config.budget is not None:
            cap = min(cap, config.budget)
        if not 0 < report.queries <= cap:
            errors.append(f"attack used {report.queries} queries, cap {cap}")
        if report.queries != charged:
            errors.append(f"attack reports {report.queries} queries, "
                          f"service charged {charged}")
        return errors

    def finish(self) -> list[str]:
        return []


# ---------------------------------------------------------------------- #
# serve-read / serve-churn
# ---------------------------------------------------------------------- #
def tenant_specs(per_tenant: int):
    """Three interactive tenants and one bulk tenant sharing the nominal
    capacity of the default cost model equally."""
    from repro.serving import ServingConfig, TenantSpec

    config = ServingConfig()
    batch = config.max_batch_size
    capacity = batch / (config.service_base_s
                        + config.service_per_item_s * batch)
    share = capacity / 4.0
    return [TenantSpec("alice", share, per_tenant),
            TenantSpec("bob", share, per_tenant),
            TenantSpec("carol", share, per_tenant),
            TenantSpec("bulk-miner", share, per_tenant, priority="bulk")]


def fingerprint(report) -> tuple:
    """Statuses, ranked ids, per-tenant counts and events of a report."""
    return (tuple(response.status for response in report.responses),
            tuple(None if response.result is None
                  else tuple(response.result.ids)
                  for response in report.responses),
            tuple(sorted(report.served_by_tenant.items())),
            report.gallery_events)


class ServeRead:
    """Open-loop multi-tenant timelines against a static gallery.

    An op is one served request; a call is one call into
    ``RetrievalService.query_batch`` / ``compute_batch``.
    """

    name = "serve-read"
    kinds = ("default", "traced", "trace_off")
    warmup = True
    gallery_rows = 2048
    #: Query videos are drawn from a pool smaller than the embed cache.
    query_pool = 64
    per_tenant = 50
    #: Distinct timelines; units cycle through them.
    timelines = 16
    fixed_rounds = 6

    def __init__(self, seed: int, work_dir: str) -> None:
        from repro.serving import generate_timeline
        from repro.video import load_dataset

        self.seed = seed
        dataset = load_dataset("ucf101", seed=seed, num_classes=16,
                               train_videos=self.gallery_rows,
                               test_videos=self.query_pool, **GEOMETRY)
        self.gallery = dataset.train
        self.pool = dataset.test
        specs = tenant_specs(self.per_tenant)
        self._timelines = [
            generate_timeline(child_seed(seed, 3, index), specs, self.pool)
            for index in range(self.timelines)]
        self.outputs: list[tuple[int, tuple, tuple]] = []
        self.serving = ServingStats()

    def setup(self) -> World:
        return build_world(self.seed, self.gallery)

    def adopt(self, worlds: list[World]) -> None:
        self.world, self.reference = worlds[0], worlds[1]

    def items(self, index: int) -> list:
        return self._timelines[index % self.timelines]

    def unit(self, index: int, kind: str, clock, record: bool) -> UnitResult:
        from repro.serving import ServingConfig, ServingFrontend

        items = self.items(index)
        frontend = ServingFrontend(self.world.service, ServingConfig())
        before = ledger(self.world.service)
        with clock:
            report = frontend.run(items)
        delta = tuple(a - b for a, b in
                      zip(ledger(self.world.service), before))
        self.outputs.append((index, fingerprint(report), delta))
        if record:
            self.serving.add(report)
        return UnitResult(ops=report.served, attempted=len(report.responses),
                          failed=len(report.responses) - report.served,
                          wall_s=clock.wall_s)

    def finish(self) -> list[str]:
        """Replay each distinct timeline one query at a time on a second,
        identically built service and compare every unit against it."""
        from repro.serving import ServingConfig, replay_sequential

        expected = {}
        errors = []
        for index, observed, delta in self.outputs:
            key = index % self.timelines
            if key not in expected:
                service = self.reference.service
                before = ledger(service)
                report = replay_sequential(self.items(index), service,
                                           ServingConfig())
                expected[key] = (fingerprint(report), tuple(
                    a - b for a, b in zip(ledger(service), before)))
            errors += compare(index, (observed, delta), expected[key])
        return errors


class ServeChurn(ServeRead):
    """The same tenant mix plus an interleaved add/delete/re-embed stream.

    Each unit is a fresh timeline plus its own churn events, applied to
    the one live gallery in order; the reference replays the same units
    in the same order on a second service.
    """

    name = "serve-churn"
    #: Events per unit of ``4 × per_tenant`` requests, of each kind.
    churn_per_kind = 24
    fixed_rounds = 12

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        self._stream = self.unit_stream()

    def unit_stream(self):
        """Units in order; deletes and re-embeds target live videos."""
        from repro.serving import AddVideo, DeleteVideo, generate_churn, \
            generate_timeline

        specs = tenant_specs(self.per_tenant)
        live = [video.video_id for video in self.gallery]
        index = 0
        while True:
            requests = generate_timeline(child_seed(self.seed, 5, index),
                                         specs, self.pool)
            events = generate_churn(
                child_seed(self.seed, 6, index), live,
                adds=self.churn_per_kind, deletes=self.churn_per_kind,
                reembeds=self.churn_per_kind,
                horizon_s=requests[-1].arrival_s,
                frames=GEOMETRY["num_frames"], height=GEOMETRY["height"],
                width=GEOMETRY["width"], label_base=10_000)
            for event in events:
                if isinstance(event, DeleteVideo):
                    live.remove(event.video_id)
                elif isinstance(event, AddVideo):
                    live.append(event.video.video_id)
            yield requests + events
            index += 1

    def items(self, index: int) -> list:
        return next(self._stream)

    def finish(self) -> list[str]:
        from repro.serving import ServingConfig, replay_sequential_mutating

        errors = []
        stream = self.unit_stream()
        service = self.reference.service
        for index, observed, delta in self.outputs:
            before = ledger(service)
            report = replay_sequential_mutating(next(stream), service,
                                                ServingConfig())
            expected = (fingerprint(report), tuple(
                a - b for a, b in zip(ledger(service), before)))
            errors += compare(index, (observed, delta), expected)
        return errors


def compare(index: int, observed: tuple, expected: tuple) -> list[str]:
    (report, ledger_delta), (reference, reference_delta) = observed, expected
    labels = ("statuses", "ranked ids", "per-tenant counts",
              "applied events")
    errors = [f"unit {index}: {label} differ from the sequential reference"
              for label, mine, theirs in zip(labels, report, reference)
              if mine != theirs]
    if ledger_delta != reference_delta:
        errors.append(f"unit {index}: query ledger {ledger_delta} != "
                      f"reference {reference_delta}")
    return errors


class ServingStats:
    """Scheduler statistics of the recorded (traced) serving units."""

    def __init__(self) -> None:
        self.batches = 0
        self.dispatched = 0
        self.waits_s: list[float] = []

    def add(self, report) -> None:
        from repro.serving import ServingConfig

        config = ServingConfig()
        self.batches += report.batches
        self.dispatched += report.dispatched
        # Latency is dispatch wait plus the batch's virtual service cost.
        self.waits_s += [
            response.latency_s - config.service_base_s
            - config.service_per_item_s * response.batch_size
            for response in report.responses if response.ok]

    def values(self) -> dict:
        from layers import percentile_ms

        return {
            "serving.batches": self.batches,
            "serving.mean_batch":
                self.dispatched / self.batches if self.batches else 0.0,
            "serving.queue_wait_virtual_ms_p50":
                percentile_ms(self.waits_s, 50),
            "serving.queue_wait_virtual_ms_p95":
                percentile_ms(self.waits_s, 95),
        }


# ---------------------------------------------------------------------- #
# paper-quick
# ---------------------------------------------------------------------- #
class PaperQuick:
    """``run_all --quick`` for the Fig. 3, Fig. 4 and Table II runners.

    Each unit starts from a fresh fixture cache and results directory,
    so victim training, surrogate stealing and training, mAP evaluation
    and the attack baselines all run.  An op is one regenerated table; a
    call is one call into ``RetrievalService.query`` / ``query_batch`` /
    ``speculate``.
    """

    name = "paper-quick"
    #: A unit takes about half a minute, so the traced run skips the
    #: program-tracing-off side (``obs.trace_overhead_pct`` reads 0) and
    #: the warm-up to stay well inside its time limit.
    kinds = ("default", "traced")
    warmup = False
    runners = ("fig3", "fig4", "table2")
    fixed_rounds = 1

    def __init__(self, seed: int, work_dir: str) -> None:
        from repro.experiments import QUICK_SCALE

        self.scale = QUICK_SCALE.replace(seed=seed)
        self.work_dir = work_dir
        self.serving = ServingStats()

    def setup(self):
        """Render the scaled datasets every runner draws its clips from."""
        from repro.experiments.fixtures import dataset_for

        datasets = [dataset_for(name, self.scale)
                    for name in ("ucf101", "hmdb51")]
        return [(dataset.train, dataset.test) for dataset in datasets]

    def adopt(self, worlds: list) -> None:
        pass

    def unit(self, index: int, kind: str, clock, record: bool) -> UnitResult:
        from repro.experiments import run_all
        from repro.experiments.report import TableResult
        from spans import Patcher, spanned

        tables: dict[str, object] = {}
        patch = Patcher()

        def keep(name):
            def make(func):
                def runner(scale):
                    tables[name] = func(scale)
                    return tables[name]
                return spanned(clock.recorder, name, "experiments")(runner)
            return make

        errors = []
        cache = tempfile.mkdtemp(prefix="fixtures-", dir=self.work_dir)
        out = tempfile.mkdtemp(prefix="results-", dir=self.work_dir)
        try:
            for name in self.runners:
                patch.set(run_all.RUNNERS, name,
                          keep(name)(run_all.RUNNERS[name]))
            patch.set(run_all, "QUICK_SCALE", self.scale)
            os.environ["REPRO_CACHE"] = cache
            with contextlib.redirect_stdout(io.StringIO()), clock:
                code = run_all.main([*self.runners, "--quick", "--out", out])
            if code != 0:
                errors.append(f"run_all exited with {code}")
            for name in self.runners:
                table = tables.get(name)
                if not isinstance(table, TableResult) or not table.rows:
                    errors.append(f"runner {name} returned no table")
                elif not os.path.getsize(os.path.join(out, f"{name}.txt")):
                    errors.append(f"runner {name} wrote an empty table")
        except Exception as exc:  # a runner that raised is a failed op
            errors.append(f"run_all raised {type(exc).__name__}: {exc}")
        finally:
            os.environ.pop("REPRO_CACHE", None)
            patch.undo()
            shutil.rmtree(cache, ignore_errors=True)
            shutil.rmtree(out, ignore_errors=True)
        built = sum(1 for name in self.runners if name in tables)
        return UnitResult(ops=built, attempted=len(self.runners),
                          failed=len(self.runners) - built,
                          wall_s=clock.wall_s, errors=errors)

    def finish(self) -> list[str]:
        return []


WORKLOAD_TYPES = {cls.name: cls for cls in
                  (AttackDuo, ServeRead, ServeChurn, PaperQuick)}
