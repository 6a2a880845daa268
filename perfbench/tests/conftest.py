"""Make the benchmark's modules and the program importable in its tests."""

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]
