"""Per-layer spans recorded from outside the library.

`Tracer.install()` replaces the public functions of each mechlab module
with timing wrappers.  A function is patched under every module attribute
that refers to it (``mechlab.optlp.check_ic`` as well as
``mechlab.mech.check_ic``), because modules import each other's functions
by name and an unpatched alias would go untimed.  Nothing inside the
solver is instrumented; a layer's time is the time spent inside calls to
its public functions.

Busy time counts only the outermost call of a span, so a layer that calls
itself is not counted twice.  Self time subtracts the busy time that
named inner spans accumulated while the outer call was running.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (module, attribute path) of every function it covers
SPANS = {
    "simplex": [("simplex", "solve_simplex")],
    "optlp.solve_lp": [("optlp", "solve_lp")],
    "optlp.optimal_mechanism": [("optlp", "optimal_mechanism")],
    "optlp.dense": [("optlp", "LinearProgram.dense")],
    "optlp.build": [("optlp", "build_revenue_lp")],
    "optlp.export": [("optlp", "export_lp_text")],
    "optlp.deterministic": [("optlp", "optimal_deterministic")],
    "optlp.worst_case": [("optlp", "worst_case_revenue")],
    "mech.audit": [
        ("mech", "check_ic"),
        ("mech", "check_ir"),
        ("mech", "check_feasible_identical"),
    ],
    "mech.menu_choice": [("mech", "menu_choice_indices")],
    "symmetry": [
        ("symmetry", "certify_theorem1"),
        ("symmetry", "symmetrize"),
        ("symmetry", "symmetric_extension"),
        ("symmetry", "restrict_to_cell"),
    ],
    "monotone.repair": [("monotone", "lmax_repair")],
    "typespace.enumerate": [
        ("typespace", "enumerate_identical"),
        ("typespace", "enumerate_hetero"),
    ],
    "dist.build": [
        ("dist", "uniform_distribution"),
        ("dist", "iid_distribution"),
        ("dist", "table_distribution"),
        ("dist", "restrict_to_strict"),
        ("dist", "mixture"),
        ("dist", "to_identical_density"),
        ("dist", "fosd_shift"),
        ("dist", "distribution_from_density"),
        ("dist", "identical_distribution_from_density"),
    ],
    "gen": [
        ("gen", "random_menu"),
        ("gen", "random_sorted_menu"),
        ("gen", "random_almost_deterministic_menu"),
        ("gen", "random_ic_identical"),
        ("gen", "random_ic_heterogeneous"),
        ("gen", "random_marginal"),
        ("gen", "random_exchangeable_strict"),
    ],
    "cli.write": [
        ("cli", "RunOutput.finish"),
        ("cli", "write_distribution_csv"),
        ("mech", "write_mechanism_csv"),
    ],
}

# self time of a span excludes the busy time of these spans inside it
SELF_EXCLUDES = {
    "optlp.optimal_mechanism": ("optlp.solve_lp", "mech.audit"),
    "monotone.repair": ("simplex",),
}

MODULES = ("typespace", "mech", "dist", "symmetry", "simplex", "optlp", "monotone", "gen", "cli")


# unit of every metric `layer_metrics` returns
UNITS = {
    "simplex.calls": "count",
    "simplex.busy_s": "s",
    "simplex.busy_share": "ratio",
    "simplex.iterations": "count",
    "simplex.us_per_iter": "us",
    "simplex.call_p50_ms": "ms",
    "simplex.rows_max": "count",
    "simplex.cols_max": "count",
    "optlp.rounds": "count",
    "optlp.lp_solves": "count",
    "optlp.ic_rows_final": "count",
    "optlp.ic_row_ratio": "ratio",
    "optlp.self_s": "s",
    "optlp.dense_s": "s",
    "optlp.build_s": "s",
    "optlp.export_s": "s",
    "optlp.menus": "count",
    "optlp.menus_per_s": "1/s",
    "optlp.worst_case_s": "s",
    "mech.audit_calls": "count",
    "mech.audit_s": "s",
    "mech.menu_choice_calls": "count",
    "mech.menu_choice_s": "s",
    "symmetry.calls": "count",
    "symmetry.busy_s": "s",
    "monotone.repair_calls": "count",
    "monotone.self_s": "s",
    "typespace.enumerate_s": "s",
    "dist.build_s": "s",
    "gen.busy_s": "s",
    "cli.write_s": "s",
}

# metrics that count work; they repeat exactly for a given seed
EXACT = {name for name, unit in UNITS.items() if unit == "count"} | {"optlp.ic_row_ratio"}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class Stats:
    """Counters of one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.depth = Counter()
        self.simplex_call_s = []
        self.simplex_iterations = 0
        self.simplex_rows_max = 0
        self.simplex_cols_max = 0
        self.rounds = 0
        self.ic_rows_final = 0
        self.ic_rows_possible = 0
        self.menus = 0

    def observe(self, span, args, kwargs, result, dt):
        if span == "simplex":
            m, n = _arg(args, kwargs, 1, "A").shape
            self.simplex_call_s.append(dt)
            self.simplex_iterations += int(result.iterations)
            self.simplex_rows_max = max(self.simplex_rows_max, int(m))
            self.simplex_cols_max = max(self.simplex_cols_max, int(n))
        elif span == "optlp.optimal_mechanism":
            T = len(result.mechanism.types)
            self.rounds += int(result.rounds)
            self.ic_rows_final += int(result.n_ic_rows)
            self.ic_rows_possible += T * (T - 1)
        elif span == "optlp.deterministic":
            self.menus += int(result.n_menus_searched)


class Tracer:
    """Installs span wrappers; `stats` collects until replaced."""

    def __init__(self):
        self.stats = Stats()
        self._restore = []

    def _wrap(self, span, fn):
        excludes = SELF_EXCLUDES.get(span, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self.stats
            s.calls[span] += 1
            outer = s.depth[span] == 0
            s.depth[span] += 1
            inner0 = sum(s.busy[e] for e in excludes)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                s.depth[span] -= 1
            if outer:
                s.busy[span] += dt
                if excludes:
                    s.self_s[span] += dt - (sum(s.busy[e] for e in excludes) - inner0)
            s.observe(span, args, kwargs, result, dt)
            return result

        return traced

    def install(self):
        mods = [importlib.import_module(f"mechlab.{m}") for m in MODULES]
        mods.append(importlib.import_module("mechlab"))
        for span, targets in SPANS.items():
            for modname, path in targets:
                owner = importlib.import_module(f"mechlab.{modname}")
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    fn = cls.__dict__[attr]
                    self._restore.append((cls, attr, fn))
                    setattr(cls, attr, self._wrap(span, fn))
                    continue
                fn = getattr(owner, path)
                wrapped = self._wrap(span, fn)
                for mod in mods:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, name, fn))
                            setattr(mod, name, wrapped)

    def uninstall(self):
        for owner, name, fn in reversed(self._restore):
            setattr(owner, name, fn)
        self._restore.clear()


def layer_metrics(s: Stats, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass whose ops took `wall_s`."""
    busy = s.busy
    simplex_busy = busy["simplex"]
    iters = s.simplex_iterations
    det_busy = busy["optlp.deterministic"]
    return {
        "simplex.calls": s.calls["simplex"],
        "simplex.busy_s": simplex_busy,
        "simplex.busy_share": simplex_busy / wall_s if wall_s > 0 else 0.0,
        "simplex.iterations": iters,
        "simplex.us_per_iter": 1e6 * simplex_busy / iters if iters else 0.0,
        "simplex.call_p50_ms": (
            1e3 * statistics.median(s.simplex_call_s) if s.simplex_call_s else 0.0
        ),
        "simplex.rows_max": s.simplex_rows_max,
        "simplex.cols_max": s.simplex_cols_max,
        "optlp.rounds": s.rounds,
        "optlp.lp_solves": s.calls["optlp.solve_lp"],
        "optlp.ic_rows_final": s.ic_rows_final,
        "optlp.ic_row_ratio": (
            s.ic_rows_final / s.ic_rows_possible if s.ic_rows_possible else 0.0
        ),
        "optlp.self_s": s.self_s["optlp.optimal_mechanism"],
        "optlp.dense_s": busy["optlp.dense"],
        "optlp.build_s": busy["optlp.build"],
        "optlp.export_s": busy["optlp.export"],
        "optlp.menus": s.menus,
        "optlp.menus_per_s": s.menus / det_busy if det_busy > 0 else 0.0,
        "optlp.worst_case_s": busy["optlp.worst_case"],
        "mech.audit_calls": s.calls["mech.audit"],
        "mech.audit_s": busy["mech.audit"],
        "mech.menu_choice_calls": s.calls["mech.menu_choice"],
        "mech.menu_choice_s": busy["mech.menu_choice"],
        "symmetry.calls": s.calls["symmetry"],
        "symmetry.busy_s": busy["symmetry"],
        "monotone.repair_calls": s.calls["monotone.repair"],
        "monotone.self_s": s.self_s["monotone.repair"],
        "typespace.enumerate_s": busy["typespace.enumerate"],
        "dist.build_s": busy["dist.build"],
        "gen.busy_s": busy["gen"],
        "cli.write_s": busy["cli.write"],
    }
