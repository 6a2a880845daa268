#!/usr/bin/env bash
# One-stop verification entry point for CI and pre-PR checks:
#   1. the tier-1 pytest suite,
#   2. the observability overhead smoke bench (writes BENCH_obs.json),
#   3. the perf hot-path smoke bench (gates against BENCH_perf.json),
#   4. the fault-injection smoke tests + resilience overhead bench
#      (gates the <5% fault-free wrapper overhead contract),
#   5. the qa correctness harness: differential oracles, invariant
#      checks, and the golden-trace regression gate,
#   6. the serving front-end suite + its smoke bench (gates the 1.5x
#      batched-throughput floor and timeline determinism), the
#      slow/churn-marked gallery stress tests, and the worker-pool +
#      churn smoke bench (gates the 1.5x pooled virtual speedup,
#      sequential-vs-pooled mutating-timeline equality, and the 1.1x
#      snapshot-read speedup over the filter-all reference),
#   7. the compressed index tier suite + the ANN smoke bench (gates
#      recall@10 >= 0.9 and the memmap residency ceiling),
#   8. the trace-and-fuse smoke bench (gates the 1.3x replay floor and
#      the median eager/fused SparseQuery pair ratio vs BENCH_jit.json) and
#      a second golden-trace pass with REPRO_NN_FUSE=1 (replay must be
#      byte-identical to the eager goldens),
#   9. the env-flag conformance suite,
#  10. the attack strategy grid smoke bench (every registry composition
#      under budget against the stateful detector + admission control;
#      writes BENCH_attacks.json),
#  11. the end-to-end benchmark's self-tests (perfbench/tests).
# "verify.sh: OK" is printed only after every stage has run.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== obs overhead smoke bench =="
python benchmarks/bench_obs_overhead.py --smoke

echo "== perf hot-path smoke bench =="
python benchmarks/bench_perf_hotpath.py --smoke

echo "== fault-injection smoke tests =="
python -m pytest -x -q tests/resilience

echo "== resilience smoke bench =="
python benchmarks/bench_resilience.py --smoke

echo "== qa correctness harness =="
python -m pytest -x -q tests/qa

echo "== qa golden-trace gate =="
python -m repro.qa.regen --check

echo "== serving front-end tests =="
python -m pytest -x -q tests/serving

echo "== serving smoke bench =="
python benchmarks/bench_serving.py --smoke

echo "== gallery-churn stress tests (slow/churn markers) =="
python -m pytest -q -m "churn or slow" tests/serving tests/retrieval

echo "== worker-pool + churn smoke bench =="
python benchmarks/bench_serving.py --churn --smoke

echo "== compressed index tier tests =="
python -m pytest -x -q tests/hashindex

echo "== ann smoke bench =="
python benchmarks/bench_ann.py --smoke

echo "== jit trace-and-fuse smoke bench =="
python benchmarks/bench_jit.py --smoke

echo "== qa golden-trace gate (REPRO_NN_FUSE=1) =="
REPRO_NN_FUSE=1 python -m repro.qa.regen --check

echo "== env-flag conformance tests =="
python -m pytest -x -q tests/utils

echo "== attack strategy grid smoke bench =="
python benchmarks/bench_attack_grid.py --smoke

echo "== end-to-end benchmark self-tests =="
python -m pytest -q perfbench/tests

echo "verify.sh: OK"
