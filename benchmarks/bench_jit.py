"""Benchmark the trace-and-fuse execution layer (``repro.nn.jit``).

Two measurements:

1. **per-model forward** — eager vs traced replay (``fuse=False``) vs
   traced+fused replay (``fuse=True``) at the attack batch shapes, for
   the ResNet18+LSTM victim and the C3D surrogate.  Replay skips graph
   construction and Python op dispatch; fusion additionally collapses
   elementwise chains into shared buffers.
2. **end-to-end SparseQuery** — the black-box attack loop against a live
   victim service with fuse off vs on.  The victim embedding forward
   dominates the query path, so this is the headline number the ROADMAP
   gate reads (≥1.5× over the current fast path in the full run).  The
   two sides run as interleaved pairs (9 in smoke, 15 in the full run)
   and the median of the per-pair ratios is the speedup.

Usage::

    PYTHONPATH=src python benchmarks/bench_jit.py           # full
    PYTHONPATH=src python benchmarks/bench_jit.py --smoke   # CI

The full run records ``BENCH_jit.json`` at the repo root.  ``--smoke``
is the CI gate: it asserts replay stays bit-identical on the bench
fixture, holds the fused speedups above a 1.3× floor, and fails if a
ratio regressed more than 10% against the recorded baseline (ratios,
not wall times, so the check is machine-independent).  Smoke never
overwrites the baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.attacks.duo.sparse_query import SparseQuery  # noqa: E402
from repro.attacks.objective import RetrievalObjective  # noqa: E402
from repro.models import create_feature_extractor  # noqa: E402
from repro.nn import Tensor, jit, no_grad  # noqa: E402
from repro.qa.pairs import _qa_priors  # noqa: E402
from repro.qa.world import build_world  # noqa: E402

#: Victim and surrogate extractors at the attack batch shapes.
MODEL_CASES = [
    ("resnet18.b2", "resnet18", (2, 3, 8, 16, 16)),
    ("resnet18.b1", "resnet18", (1, 3, 8, 16, 16)),
    ("c3d.b1", "c3d", (1, 3, 6, 12, 12)),
]


def _time_once(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def interleaved_best(fns: list, trials: int) -> list[float]:
    """Min-of-``trials`` for N thunks, alternating every trial."""
    for fn in fns:  # joint warm-up (traces, conv plans, BLAS init)
        fn()
    best = [float("inf")] * len(fns)
    for _ in range(trials):
        for i, fn in enumerate(fns):
            best[i] = min(best[i], _time_once(fn))
    return best


def bench_models(trials: int) -> list[dict]:
    rows = []
    for name, backbone, shape in MODEL_CASES:
        extractor = create_feature_extractor(backbone, feature_dim=16,
                                             width=2, rng=0)
        extractor.eval()
        extractor.requires_grad_(False)
        traced = jit.compile(extractor, fuse=False)
        fused = jit.CompiledModule(extractor, fuse=True)
        x = Tensor(np.random.default_rng(1).standard_normal(shape))

        def eager_fn(extractor=extractor, x=x):
            with no_grad():
                extractor(x)

        def traced_fn(traced=traced, x=x):
            with no_grad():
                traced(x)

        def fused_fn(fused=fused, x=x):
            with no_grad():
                fused(x)

        # Replay must stay bit-identical on the bench fixture itself.
        with no_grad():
            reference = extractor(x).data
            np.testing.assert_array_equal(reference, traced(x).data)
            np.testing.assert_array_equal(reference, fused(x).data)

        eager_s, traced_s, fused_s = interleaved_best(
            [eager_fn, traced_fn, fused_fn], trials)
        rows.append({
            "name": name,
            "eager_us": eager_s * 1e6,
            "traced_us": traced_s * 1e6,
            "fused_us": fused_s * 1e6,
            "traced_speedup": eager_s / traced_s,
            "fused_speedup": eager_s / fused_s,
            "fused_steps": fused.stats()["fused_steps"],
            "bytes_saved": fused.stats()["bytes_saved"],
        })
    return rows


def sparse_query_seconds(fuse: bool, iterations: int, repeat: int) -> float:
    """Wall time of one seeded SparseQuery attack on a fresh victim."""
    world = build_world(73, cache_size=0)
    world.engine.configure_fuse(fuse)
    objective = RetrievalObjective(world.service, world.original,
                                   world.target)
    attack = SparseQuery(iter_num_q=iterations, tau=30, rng=repeat,
                         batched=True)
    priors = _qa_priors(world.original.pixels.shape, repeat + 9)
    start = time.perf_counter()
    attack.run(world.original, priors, objective)
    return time.perf_counter() - start


def bench_sparse_query(iterations: int, pairs: int) -> dict:
    """Eager vs fused SparseQuery, timed in interleaved pairs.

    Each pair runs one eager then one fused attack with the same seed;
    the speedup is the median of the per-pair ratios, which a load burst
    on a shared host skews far less than a ratio of two single runs.
    """
    sparse_query_seconds(False, iterations, 0)  # warm-up: BLAS, plans
    sparse_query_seconds(True, iterations, 0)
    eager_s, fused_s = [], []
    for repeat in range(pairs):
        eager_s.append(sparse_query_seconds(False, iterations, repeat))
        fused_s.append(sparse_query_seconds(True, iterations, repeat))
    return {
        "iterations": iterations,
        "pairs": pairs,
        "eager_s": float(np.median(eager_s)),
        "fused_s": float(np.median(fused_s)),
        "speedup": float(np.median(np.divide(eager_s, fused_s))),
    }


def check_regression(result: dict, baseline_path: Path,
                     tolerance: float = 0.10) -> list[str]:
    """Compare speedup *ratios* against the recorded baseline."""
    if not baseline_path.exists():
        return [f"no recorded baseline at {baseline_path}; skipping check"]
    baseline = json.loads(baseline_path.read_text())
    failures = []
    checks = [
        ("fused min", result["fused_min_speedup"],
         baseline.get("fused_min_speedup")),
        ("sparse query", result["sparse_query"]["speedup"],
         baseline.get("sparse_query", {}).get("speedup")),
    ]
    for label, measured, recorded in checks:
        if recorded is None:
            continue
        floor = recorded * (1.0 - tolerance)
        if measured < floor:
            failures.append(
                f"{label} speedup regressed: {measured:.2f}x < "
                f"{floor:.2f}x (recorded {recorded:.2f}x - {tolerance:.0%})")
    return failures


#: Absolute floor the smoke gate holds the fused speedups to.
SMOKE_FLOOR = 1.3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark trace-and-fuse replay vs eager execution.")
    parser.add_argument("--iterations", type=int, default=60,
                        help="SparseQuery pixel iterations per attack run")
    parser.add_argument("--pairs", type=int, default=None,
                        help="interleaved eager/fused attack pairs, odd "
                             "and at least 5 (default 15, smoke 9); the "
                             "median ratio is kept")
    parser.add_argument("--trials", type=int, default=40,
                        help="interleaved trials per model forward")
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: fewer trials and pairs, assert "
                             "bit-identity, "
                             f"{SMOKE_FLOOR}x floor, and no regression vs "
                             "the recorded baseline")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_jit.json"),
                        help="output JSON path (full runs only)")
    args = parser.parse_args(argv)

    # Smoke keeps the recorded baseline's iteration count: the fused
    # side pays a fixed per-victim trace cost, so a shorter attack
    # reads a lower ratio than the one it is gated against.
    iterations = args.iterations
    pairs = args.pairs or (9 if args.smoke else 15)
    if pairs < 5 or pairs % 2 == 0:
        parser.error("--pairs must be odd and at least 5")
    trials = 10 if args.smoke else args.trials

    model_rows = bench_models(trials)

    result = {
        "bench": "jit",
        "timestamp": time.time(),
        "smoke": args.smoke,
        "models": model_rows,
        "fused_min_speedup": min(row["fused_speedup"] for row in model_rows),
        "sparse_query": bench_sparse_query(iterations, pairs),
    }
    print(json.dumps(result, indent=2))

    out_path = Path(args.out)
    if args.smoke:
        # The smoke run gates; it never overwrites the recorded baseline.
        failures = []
        if result["fused_min_speedup"] < SMOKE_FLOOR:
            failures.append(
                f"fused model speedup {result['fused_min_speedup']:.2f}x "
                f"below the {SMOKE_FLOOR}x floor")
        if result["sparse_query"]["speedup"] < SMOKE_FLOOR:
            failures.append(
                f"end-to-end SparseQuery speedup "
                f"{result['sparse_query']['speedup']:.2f}x below the "
                f"{SMOKE_FLOOR}x floor")
        notes = check_regression(result, out_path)
        for note in notes:
            print(f"[bench_jit] {note}")
        failures += [note for note in notes if "regressed" in note]
        if failures:
            for failure in failures:
                print(f"[bench_jit] FAIL: {failure}")
            return 1
        print("[bench_jit] smoke OK")
    else:
        out_path.write_text(json.dumps(result, indent=2) + "\n")
        print(f"[bench_jit] wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
