"""Test-suite settings: BLAS runs on one thread, as in the benchmark
worker, and hypothesis draws the same examples on every run.

The thread count is set before numpy is first imported, because BLAS
reads it once at load time.  Pivot choices can depend on the rounding of
BLAS reductions, which depends on the thread count, so tier-1 takes the
pivot paths the benchmark takes."""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hypothesis import settings  # noqa: E402

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
