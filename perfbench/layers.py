"""Per-layer metrics from the spans of the traced rounds.

Times are reference-normalized like the end-to-end ones, with the mean
reference time of the round they were taken in. Counts and ``.ms`` values
are per round, ``_per_trial`` values per randomized trial (per sphere
sample on tail-probe), ``io.write.ms`` per set-up. "Self" time is a
span's duration minus the wrapped calls made inside it; the other times
are inclusive. A layer the workload does not call reads 0.
"""

from __future__ import annotations

from spans import aggregate

WRAPS = ("linalg.CQVector.__init__", "linalg.CQMatrix.__init__")
PARSE = ("io.read_tensor", "io.read_poly")
WRITE = ("io.write_tensor", "io.write_poly")
RENDER = ("experiment.render_csv", "experiment.render_markdown")
NORMALS = ("sampling.RandomSource.normals",)

CALLS, INCLUSIVE, SELF, NOTE = range(4)


def per_layer(runner, setup_spans, setup_factor: float, setup_repeats: int) -> dict:
    rounds = [(aggregate(r["spans"]), r["factor"]) for r in runner.traced_rounds]
    trials = sum(op.trials for op in runner.workload.ops)

    def total(names, field):
        """Mean over traced rounds of the summed field; times in normalized ms."""
        values = []
        for stats, factor in rounds:
            if callable(names):
                selected = [v for k, v in stats.items() if names(k)]
            else:
                selected = [stats[k] for k in names if k in stats]
            value = sum(v[field] for v in selected)
            values.append(1000 * factor * value if field in (INCLUSIVE, SELF) else value)
        return sum(values) / len(values)

    def rate_mb_per_s(names):
        seconds = total(names, INCLUSIVE) / 1000
        return total(names, NOTE) / 1e6 / seconds if seconds > 0 else 0.0

    setup_stats = aggregate(setup_spans)
    write_ms = 1000 * setup_factor * sum(setup_stats[k][INCLUSIVE] for k in WRITE if k in setup_stats)
    times = runner.round_times
    values = {
        "sampling.ms_per_trial": (total(lambda k: k.startswith("sampling."), SELF) / trials, "ms"),
        "sampling.streams": (total(("sampling.RandomSource.__init__",), CALLS), "count"),
        "sampling.normals_mb_per_s": (rate_mb_per_s(NORMALS), "MB/s"),
        "forms.contract_pair.ms_per_trial": (total(("forms.MultilinearForm.contract_pair",), SELF) / trials, "ms"),
        "forms.symmetrize.ms": (total(("forms.symmetrize",), INCLUSIVE), "ms"),
        "forms.poly_eval.calls": (total(("forms.PolyProblem.__call__",), CALLS), "count"),
        "forms.poly_eval.ms": (total(("forms.PolyProblem.__call__",), INCLUSIVE), "ms"),
        "solvers.solve_bilinear.ms_per_trial": (total(("solvers.solve_bilinear",), SELF) / trials, "ms"),
        "solvers.solve_bilinear.calls": (total(("solvers.solve_bilinear",), CALLS), "count"),
        "solvers.solve_bilinear.symmetric_calls": (total(("solvers.solve_bilinear",), NOTE), "count"),
        "solvers.trial_loop.ms_per_trial": (total(("solvers.form_trial_values",), SELF) / trials, "ms"),
        "solvers.maximize_poly.rounding_ms": (total(("solvers.maximize_poly",), SELF), "ms"),
        "solvers.best_rank_one.self_ms": (total(("solvers.best_rank_one",), SELF), "ms"),
        "linalg.wraps_per_trial": (total(WRAPS, CALLS) / trials, "count"),
        "linalg.wrap.ms_per_trial": (total(WRAPS, SELF) / trials, "ms"),
        "io.parse.ms": (total(PARSE, INCLUSIVE), "ms"),
        "io.parse_mb_per_s": (rate_mb_per_s(PARSE), "MB/s"),
        "io.write.ms": (write_ms / setup_repeats, "ms"),
        "problab.self_ms": (total(("problab.estimate_tail_prob",), SELF), "ms"),
        "experiment.render.ms": (total(RENDER, INCLUSIVE), "ms"),
        "host.ref_ms": (runner.clock.ref_ms(), "ms"),
        "trace.overhead_ratio": (
            (sum(times[True]) / len(times[True])) / (sum(times[False]) / len(times[False])),
            "ratio",
        ),
    }
    return {name: {"value": float(value), "unit": unit} for name, (value, unit) in values.items()}
