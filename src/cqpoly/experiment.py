"""Benchmark harness on the all-ones cubic instance with a known upper bound.

For each dimension n the harness builds the order-3 tensor whose real part
is all ones (the other components zero); 2 sqrt(n^3) is a proven upper
bound for the maximum of the associated form on unit spheres, so
objective / upper bound is a conservative performance ratio. Each run
values its trials as one batch (see solvers.form_trial_values) and the
running maximum is read at every scheduled trial count, which makes per-run
ratios nondecreasing across the schedule by construction.
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass

import numpy as np

from .forms import MultilinearForm
from .linalg import CQTensor
from .solvers import form_trial_values

DEFAULT_N_LIST = (2, 3, 4, 5, 6, 7)
DEFAULT_SCHEDULE = (1, 5, 10, 20, 50, 100, 500, 1000, 10000)

CSV_HEADER = "n,trials,run,objective,upper_bound,ratio"


def all_ones_instance(n1: int, n2: int, n3: int) -> tuple[MultilinearForm, float]:
    """The benchmark form (real all-ones entries) and its proven upper bound."""
    if min(n1, n2, n3) < 1:
        raise ValueError("dimensions must be positive")
    form = MultilinearForm(CQTensor.from_real(np.ones((n1, n2, n3))))
    return form, 2.0 * math.sqrt(n1 * n2 * n3)


@dataclass
class ExperimentConfig:
    n_list: tuple[int, ...] = DEFAULT_N_LIST
    trial_schedule: tuple[int, ...] = DEFAULT_SCHEDULE
    runs: int = 20
    seed: int = 42
    deterministic: bool = False

    def __post_init__(self):
        self.n_list = tuple(int(n) for n in self.n_list)
        self.trial_schedule = tuple(int(t) for t in self.trial_schedule)
        if not self.n_list or any(n < 2 for n in self.n_list):
            raise ValueError("n_list must contain dimensions >= 2")
        if not self.trial_schedule or any(t < 1 for t in self.trial_schedule):
            raise ValueError("trial schedule must contain positive counts")
        if any(a >= b for a, b in zip(self.trial_schedule, self.trial_schedule[1:])):
            raise ValueError("trial schedule must be strictly increasing")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")


@dataclass(frozen=True)
class ExperimentRow:
    n: int
    trials: int
    run: int
    objective: float
    upper_bound: float

    @property
    def ratio(self) -> float:
        return self.objective / self.upper_bound


def run_seed_for(seed: int, n: int, run: int) -> int:
    """Deterministic per-(n, run) seed so runs are independent streams."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(n), int(run)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    """All (n, checkpoint, run) rows for the configured sweep.

    Each (n, run) sweep values all its trials in one batch; the best-of-k
    objective at checkpoint k is the running maximum of the first k trial
    values. Trial t's value depends only on the run seed and t, so the
    checkpoints agree bit for bit with maximize_form at k trials.
    """
    rows: list[ExperimentRow] = []
    max_trials = max(config.trial_schedule)
    for n in config.n_list:
        form, upper = all_ones_instance(n, n, n)
        for run in range(1, config.runs + 1):
            seed = run_seed_for(config.seed, n, run)
            best = np.maximum.accumulate(form_trial_values(form, max_trials, seed))
            rows.extend(
                ExperimentRow(n, t, run, float(best[t - 1]), upper) for t in config.trial_schedule
            )
    return rows


def summarize(rows: list[ExperimentRow]) -> dict[tuple[int, int], tuple[float, float]]:
    """Map (n, trials) to (average ratio, worst ratio) across runs."""
    grouped: dict[tuple[int, int], list[float]] = {}
    for row in rows:
        grouped.setdefault((row.n, row.trials), []).append(row.ratio)
    return {key: (sum(vals) / len(vals), min(vals)) for key, vals in grouped.items()}


def _timestamp_line(prefix: str, suffix: str = "") -> str:
    now = _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
    return f"{prefix}generated {now}{suffix}"


def render_csv(rows: list[ExperimentRow], deterministic: bool = False) -> str:
    lines = []
    if not deterministic:
        lines.append(_timestamp_line("# "))
    lines.append(CSV_HEADER)
    for row in rows:
        lines.append(
            f"{row.n},{row.trials},{row.run},{row.objective!r},{row.upper_bound!r},{row.ratio!r}"
        )
    return "\n".join(lines) + "\n"


def render_markdown(rows: list[ExperimentRow], config: ExperimentConfig) -> str:
    """Tables of average and worst ratios, two dimensions per table."""
    stats = summarize(rows)
    lines = []
    if not config.deterministic:
        lines.append(_timestamp_line("<!-- ", " -->"))
    for i in range(0, len(config.n_list), 2):
        pair = config.n_list[i : i + 2]
        title = " and ".join(f"n={n}" for n in pair)
        lines.append(f"## Approximation ratios over {config.runs} runs, {title}")
        lines.append("")
        header = "| Number of trials |"
        rule = "|---:|"
        for n in pair:
            header += f" Average ratio (n={n}) | Worst ratio (n={n}) |"
            rule += "---:|---:|"
        lines.append(header)
        lines.append(rule)
        for trials in config.trial_schedule:
            cells = [f"| {trials} |"]
            for n in pair:
                avg, worst = stats[(n, trials)]
                cells.append(f" {avg:.4f} | {worst:.4f} |")
            lines.append("".join(cells))
        lines.append("")
    return "\n".join(lines) + "\n"
