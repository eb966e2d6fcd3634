"""Test-suite settings: BLAS runs on one thread, as in the benchmark
worker, and hypothesis draws the same examples on every run.  The
`corrupted` fixture spoils a solver result for the certificate tests,
`certified` checks one against the thresholds of `optlp.solve_lp`, and
`undercut_spread` makes the symmetric optimum's spread untruthful.

The thread count is set before numpy is first imported, because BLAS
reads it once at load time.  Pivot choices can depend on the rounding of
BLAS reductions, which depends on the thread count, so tier-1 takes the
pivot paths the benchmark takes."""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402

import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from mechlab import optlp, simplex  # noqa: E402

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def corrupted():
    """corrupted(res, field, value): the OPTIMAL solver result `res` with
    its point or its duals wrong, so that the certificate `optlp.solve_lp`
    computes fails on `field`: x[0], whose lower bound is 0, moved to
    -value for "max_infeasibility", or `value` added to every dual for
    "duality_gap"."""

    def corrupt(res, field, value):
        assert res.status == simplex.OPTIMAL
        if field == "max_infeasibility":
            x = res.x.copy()
            x[0] = -value
            return dataclasses.replace(res, x=x)
        return dataclasses.replace(res, y=res.y + value)

    return corrupt


@pytest.fixture
def certified():
    """certified(res): `res`, after checking the certificate that
    `optlp.certificate` put in it against the thresholds `optlp.solve_lp`
    applies: an OPTIMAL status, a residual of at most 1e-9 and a gap of
    at most 1e-7 * max(1, |objective|), so a NaN in either fails."""

    def check(res):
        assert res.status == simplex.OPTIMAL
        assert res.max_infeasibility <= 1e-9
        assert res.duality_gap <= 1e-7 * max(1.0, abs(res.objective))
        return res

    return check


@pytest.fixture
def undercut_spread(monkeypatch):
    """Patch `optlp.symmetric_extension` so that the spread it returns has
    its largest payment cut by 10: every other profile would report that
    one, so the spread fails the truthfulness audit."""
    spread = optlp.symmetric_extension

    def undercut(mech):
        ext = spread(mech)
        t = ext.t.copy()
        t[t.argmax()] -= 10.0
        return dataclasses.replace(ext, t=t)

    monkeypatch.setattr(optlp, "symmetric_extension", undercut)
