"""The repository's end-to-end benchmark, at the shipped defaults.

Usage (from the repository root)::

    python3 perfbench/run.py --workload attack-duo --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with no span recording.
``--trace 1`` interleaves three kinds of unit — untraced, traced by the
benchmark's wrappers, and with the program's own tracing off
(``REPRO_TRACE=0``) — and reports the per-layer metrics of the traced
units plus both tracing overheads; it writes the spans to
``.perfbench_out/``.  Every unit's outputs are checked; a wrong output
prints ``"correct": false`` and exits 1.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark refuses to run when any ``REPRO_*`` variable is set, so
what it measures is what ships; it sets only its own fixture-cache
directory and, in the traced run, ``REPRO_TRACE``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("attack-duo", "serve-read", "serve-churn", "paper-quick")
#: BLAS pools pinned to one thread unless the caller chose otherwise.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Fixture builds per run; ``setup_s`` is their median.
SETUPS = 3
#: Allowed gap between a traced unit's wall time and the sum of its
#: spans' self times, as a share of the wall time.
TREE_TOLERANCE = 0.02
KINDS = ("default", "traced", "trace_off")


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=non_negative, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def refuse(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


class CallTimer:
    """Wall time of each outermost call into the retrieval service."""

    ENTRY_POINTS = ("query", "query_batch", "speculate", "compute_batch")
    #: Kernel runs averaged for a call's scale: one alone is too noisy.
    SMOOTHING = 4

    def __init__(self, speed: HostSpeed | None = None) -> None:
        import threading

        self.speed = speed
        self.samples: list[float] = []
        #: Each sample at reference speed (the latest kernel time's scale).
        self.norm_samples: list[float] = []
        self.active = False
        self._local = threading.local()

    def install(self):
        import functools

        from repro.retrieval.service import RetrievalService
        from spans import Patcher

        patch = Patcher()

        def make(func):
            @functools.wraps(func)
            def timed(*args, **kwargs):
                local = self._local
                depth = getattr(local, "depth", 0)
                if not self.active or depth:
                    return func(*args, **kwargs)
                speed = self.speed
                if speed is not None and speed.due():
                    speed.take()
                local.depth = 1
                start = time.perf_counter()
                try:
                    return func(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    local.depth = 0
                    self.samples.append(elapsed)
                    if speed is not None:
                        self.norm_samples.append(
                            elapsed * speed.factor(-self.SMOOTHING))
            return timed

        for name in self.ENTRY_POINTS:
            patch.method(RetrievalService, name, make)
        return patch


class HostSpeed:
    """A fixed reference kernel, timed around and inside measured units.

    On a shared virtual machine the vCPUs can share physical cores with
    other tenants; speed then flips by about 1.5x for seconds to minutes
    at a time, which moves raw wall times of whole runs by as much.  End-to-end timings
    are therefore reported at reference speed: a measured interval is
    scaled by ``REFERENCE_S`` over the mean time of the kernel runs
    taken just before it, inside it (at most every ``INTERVAL_S``, at a
    service-call boundary, with their time taken out of the interval)
    and just after it.  The kernel mixes the program's main costs
    (interpreter work, a small GEMM with top-k selection, blake2b
    hashing) and runs no program code, so no change to the program can
    move it.  Raw times are printed beside the normalised ones.
    """

    REFERENCE_S = 0.005
    INTERVAL_S = 0.25

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._left = rng.random((16, 256))
        self._right = rng.random((256, 512))
        self._buffer = rng.random(6144).tobytes()
        self.samples: list[float] = []
        #: Kernel time spent so far; subtracted from measured intervals.
        self.spent_s = 0.0
        self.take()

    def take(self) -> None:
        import hashlib

        import numpy as np

        start = time.perf_counter()
        table: dict[int, int] = {}
        for step in range(15_000):
            table[step & 255] = table.get(step & 255, 0) + step
        for _ in range(8):
            np.argpartition(-(self._left @ self._right), 9, axis=1)
        for _ in range(10):
            hashlib.blake2b(self._buffer, digest_size=16).digest()
        self.taken_at = time.perf_counter()
        self.samples.append(self.taken_at - start)
        self.spent_s += self.samples[-1]

    def due(self) -> bool:
        return time.perf_counter() - self.taken_at >= self.INTERVAL_S

    def factor(self, first: int = -1) -> float:
        """Scale for samples ``first`` onwards (default: the latest)."""
        window = self.samples[first:]
        return self.REFERENCE_S / (sum(window) / len(window))


class Clock:
    """Times one unit's measured region; in a traced unit it also opens
    the unit's root span and switches the recorder on for its duration."""

    def __init__(self, recorder, calls: CallTimer, kind: str,
                 trace_run: bool, work_id: str) -> None:
        self.recorder, self.calls, self.kind = recorder, calls, kind
        self.trace_run = trace_run
        self.work_id = work_id
        self.root = None
        self.wall_s = 0.0

    def __enter__(self) -> "Clock":
        from repro.obs import get_registry, get_tracer

        # Program metrics and spans are scoped to the unit, as run_all
        # scopes them to one experiment.
        get_registry().reset()
        get_tracer().reset()
        self.calls.active = self.kind == "default" and not self.trace_run
        if self.kind == "traced":
            self.recorder.work_id = self.work_id
            self.recorder.enabled = True
            self.root = self.recorder.open(f"unit.{self.work_id}", "bench")
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._start
        self.calls.active = False
        if self.root is None:
            return
        from repro.obs import get_registry, get_tracer

        recorder = self.recorder
        recorder.close(self.root)
        tracer = get_tracer()
        recorder.counts["obs.spans"] += tracer.num_records + \
            tracer.dropped_records
        recorder.counts["serving.pool_fallbacks"] += sum(
            value for key, value in
            get_registry().snapshot()["counters"].items()
            if key.startswith("serving.pool_fallbacks"))
        recorder.enabled = False


class Measurement:
    """Runs units of one workload and folds their results together."""

    def __init__(self, workload, trace: bool,
                 speed: HostSpeed | None = None) -> None:
        from spans import SpanRecorder

        self.workload = workload
        self.trace = trace
        self.speed = speed
        #: Default-kind wall time at reference speed.
        self.norm_wall = 0.0
        self.recorder = SpanRecorder()
        self.calls = CallTimer(speed)
        self.totals = {"ops": 0, "attempted": 0, "failed": 0}
        self.walls = dict.fromkeys(KINDS, 0.0)
        self.ops = dict.fromkeys(KINDS, 0)
        self.errors: list[str] = []
        #: Root spans and self-time sum errors of the recorded units.
        self.roots: list[int] = []
        self.tree_errors: list[float] = []
        self.counts = None

    def unit(self, kind: str, index: int, record: bool = False) -> None:
        """Run one unit; ``index`` < 0 marks an untimed warm-up unit."""
        import layers
        from spans import tree_error

        patch = layers.install(self.recorder) if kind == "traced" else None
        if kind == "trace_off":
            os.environ["REPRO_TRACE"] = "0"
        clock = Clock(self.recorder, self.calls, kind, self.trace, str(index))
        speed = self.speed
        if speed is not None:
            first, spent = len(speed.samples) - 1, speed.spent_s
        try:
            result = self.workload.unit(index, kind, clock, record)
        finally:
            os.environ.pop("REPRO_TRACE", None)
            if patch is not None:
                patch.undo()
        if speed is not None:
            # Kernel runs inside the unit are not the program's time.
            result.wall_s -= speed.spent_s - spent
            speed.take()
            self.norm_wall += result.wall_s * speed.factor(first)
        for key in self.totals:
            self.totals[key] += getattr(result, key)
        if index >= 0:
            self.walls[kind] += result.wall_s
            self.ops[kind] += result.ops
        if record:
            self.roots.append(clock.root)
            self.tree_errors.append(tree_error(self.recorder.spans,
                                               clock.root, result.wall_s))
        self.errors += [f"{self.workload.name} unit {index} ({kind}): {error}"
                        for error in result.errors]

    def run(self, seconds: float) -> None:
        """Units until ``seconds`` have passed (and, traced, until every
        recorded round is done), then the workload's closing checks."""
        workload = self.workload
        begin = time.perf_counter()
        patch = self.calls.install()
        try:
            if self.trace and workload.warmup:
                # One untimed unit first, so no kind pays the process's
                # one-off warm-up (conv plans, lazy imports) alone.
                self.unit("default", -1)
            round_index = 0
            while True:
                kinds = workload.kinds if self.trace else KINDS[:1]
                shift = round_index % len(kinds)
                record = self.trace and round_index < workload.fixed_rounds
                for kind in kinds[shift:] + kinds[:shift]:
                    self.unit(kind, round_index, record and kind == "traced")
                round_index += 1
                if round_index == workload.fixed_rounds:
                    # Later traced units only add to the overhead figures.
                    self.counts = self.recorder.counts.copy()
                if time.perf_counter() - begin >= seconds and \
                        (not self.trace or self.counts is not None):
                    break
            self.errors += workload.finish()
        finally:
            patch.undo()
        if self.totals["ops"] <= 0:
            self.errors.append("no operation completed")

    def end_to_end(self, setup_times: list[float]) -> dict:
        """The end-to-end metrics; timings at reference speed."""
        import layers

        ops = max(self.ops["default"], 1)
        return {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "norm_ms_per_op": 1e3 * self.norm_wall / ops,
            "call_norm_ms_p50":
                layers.percentile_ms(self.calls.norm_samples, 50),
            "call_norm_ms_p95":
                layers.percentile_ms(self.calls.norm_samples, 95),
        }

    def raw_summary(self) -> str:
        """The same timings as measured, before normalisation."""
        import layers

        ops = max(self.ops["default"], 1)
        samples = self.calls.samples
        return (f"{self.ops['default']} ops in {self.walls['default']:.3f} s;"
                f" raw ms/op {1e3 * self.walls['default'] / ops:.6g},"
                f" raw call ms p50 {layers.percentile_ms(samples, 50):.6g}"
                f" p95 {layers.percentile_ms(samples, 95):.6g}"
                f" over {len(samples)} calls")

    def per_layer(self) -> dict:
        import layers

        recorder = self.recorder
        if self.counts is not None:
            recorder.counts = self.counts
        metrics = layers.layer_values(recorder, self.roots)
        metrics.update(self.workload.serving.values())
        metrics["serving.pool_fallbacks"] = \
            recorder.counts["serving.pool_fallbacks"]
        metrics["obs.trace_overhead_pct"] = overhead(
            self.walls, self.ops, "default", "trace_off")
        metrics["bench.trace_overhead_pct"] = overhead(
            self.walls, self.ops, "traced", "default")
        metrics["failed_frac"] = \
            self.totals["failed"] / max(self.totals["attempted"], 1)
        self.errors += [f"traced unit self times miss its wall time by "
                        f"{error:.1%} (tolerance {TREE_TOLERANCE:.0%})"
                        for error in self.tree_errors
                        if error > TREE_TOLERANCE]
        return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import layers
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOAD_TYPES[name](seed, str(OUT_DIR))
    speed = None if trace else HostSpeed()
    setup_raw, setup_times, worlds = [], [], []
    for _ in range(SETUPS):
        start = time.perf_counter()
        worlds.append(workload.setup())
        setup_raw.append(time.perf_counter() - start)
        if speed is not None:
            speed.take()
            setup_times.append(setup_raw[-1] * speed.factor(-2))
    workload.adopt(worlds)
    del worlds

    measurement = Measurement(workload, trace, speed)
    measurement.run(seconds)
    print("# config " + json.dumps(resolved_config(), sort_keys=True))
    if trace:
        metrics = measurement.per_layer()
        declared = layers.PER_LAYER
        path = write_spans(name, seed, measurement.recorder,
                           measurement.roots, metrics)
        print(f"# spans written to {path.relative_to(ROOT)}")
        print_layer_table(metrics)
    else:
        metrics = measurement.end_to_end(setup_times)
        declared = layers.END_TO_END
        print(f"# {name}: {measurement.raw_summary()}; raw set-ups "
              f"{', '.join(f'{t:.4f}' for t in setup_raw)} s; reference "
              f"kernel median {1e3 * statistics.median(speed.samples):.4f} "
              f"ms (normalised to {1e3 * HostSpeed.REFERENCE_S:g} ms)")
    errors = measurement.errors
    for error in errors[:20]:
        print(f"# WRONG OUTPUT: {error}")
    width = max(len(entry[0]) for entry in declared)
    for metric, unit, *_ in declared:
        print(f"{metric:<{width}}  {metrics[metric]:>16.6g}  {unit}")
    totals = measurement.totals
    print(json.dumps({
        "correct": not errors,
        "attempted": int(totals["attempted"]),
        "failed": int(totals["failed"]),
        "metrics": {metric: {"value": float(metrics[metric]), "unit": unit}
                    for metric, unit, *_ in declared},
    }))
    return 0 if not errors else 1


def overhead(walls: dict, ops: dict, side: str, base: str) -> float:
    """Percent extra wall time per op of ``side`` over ``base``."""
    if not ops[side] or not ops[base] or not walls[base]:
        return 0.0
    return 100.0 * ((walls[side] / ops[side]) / (walls[base] / ops[base]) - 1)


def resolved_config() -> dict:
    """The shipped defaults this run measured, plus the machine."""
    import numpy as np

    import workloads
    from repro.models import create_feature_extractor
    from repro.nn import jit
    from repro.obs import tracing_enabled
    from repro.retrieval.engine import RetrievalEngine
    from repro.router import active_router
    from repro.serving import ServingConfig

    engine = RetrievalEngine(create_feature_extractor(
        workloads.VICTIM, feature_dim=workloads.FEATURE_DIM,
        width=workloads.MODEL_WIDTH, rng=np.random.default_rng(0)))
    serving = ServingConfig()
    return {
        "embed_cache_capacity": engine.embedding_cache.capacity,
        "gallery_nodes": engine.gallery.num_nodes,
        "index_tier": engine.index_tier,
        "serving_batch": serving.max_batch_size,
        "serving_workers": serving.workers,
        "serving_churn": serving.churn,
        "fuse": jit.enabled(),
        "router": active_router().enabled,
        "program_tracing": tracing_enabled(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "numpy": np.__version__,
    }


def write_spans(name: str, seed: int, recorder, roots: list[int],
                metrics: dict) -> Path:
    from spans import END, LAYER, NAME, PARENT, START, WORK, subtree

    spans = recorder.spans
    members = [index for root in roots for index in subtree(spans, root)]
    origin = spans[roots[0]][START] if roots else 0.0
    path = OUT_DIR / f"{name}-seed{seed}-spans.json"
    path.write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "layers": metrics,
        "spans": [{"id": index, "name": spans[index][NAME],
                   "layer": spans[index][LAYER],
                   "start_s": spans[index][START] - origin,
                   "end_s": spans[index][END] - origin,
                   "parent": spans[index][PARENT],
                   "work": spans[index][WORK]} for index in members],
    }))
    return path


def print_layer_table(metrics: dict) -> None:
    import layers

    total = metrics["trace.wall_s"] or 1.0
    print("# layer self time over the recorded traced units")
    for layer, metric in sorted(layers.SELF_TIME.items(),
                                key=lambda item: -metrics[item[1]]):
        print(f"#   {layer:<20} {metrics[metric]:10.4f} s "
              f"{100 * metrics[metric] / total:6.2f} %")


def run_all_workloads(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak memory stays its own."""
    worst = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(command, check=False).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    overridden = sorted(var for var in os.environ if var.startswith("REPRO_"))
    if overridden:
        return refuse(f"refusing to run with {', '.join(overridden)} set: "
                      "the benchmark measures the shipped defaults")
    if not (ROOT / "src" / "repro").is_dir():
        return refuse(f"no program sources under {ROOT / 'src'}")
    if args.workload == "all":
        return run_all_workloads(args)
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
