"""The three workloads: their inputs, their operations and their checks.

A workload builds its inputs from the seed in ``setup`` and then exposes
one round: a fixed list of operations, each a call into cqpoly on the
generated inputs, and a ``finish`` step timed with the round. Every round
repeats the same operations on the same inputs, so the outputs, the
quality figures and the per-layer counts of a run do not depend on how
many rounds fit in its time. ``check`` verifies one round's outputs
against the computations in ``oracles`` and returns the quality metrics.

Operations call cqpoly through module attributes (``solvers.maximize_form``
and so on), looked up at call time, so that the traced run sees them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles
from cqpoly import core, experiment, forms, io, linalg, problab, solvers


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def is_unit(vec: np.ndarray, tol: float) -> bool:
    return abs(oracles.norm(vec) - 1.0) <= tol


@dataclass
class Op:
    trials: int
    run: Callable[[], Any]
    summary: Callable[[Any], tuple]


def derived_seeds(seed: int, count: int) -> list[int]:
    """Per-operation seeds; the same benchmark seed always gives the same list."""
    state = np.random.SeedSequence(entropy=int(seed), spawn_key=(1,)).generate_state(count)
    return [int(s) for s in state]


class PaperTable:
    """run_experiment on the all-ones cubic instance, one operation per (n, run) sweep.

    The round ends by rendering the table of all its sweeps as CSV and as
    markdown.
    """

    def __init__(self, seed: int, workdir: Path, toy: bool = False):
        self.seed = seed
        self.n_list = (2, 3) if toy else (2, 3, 4, 5, 6, 7)
        self.runs = 1 if toy else 4
        self.schedule = (1, 5) if toy else (1, 10, 100)

    def setup(self) -> None:
        seeds = iter(derived_seeds(self.seed, len(self.n_list) * self.runs))
        self.sweeps = []
        self.ops = []
        for n in self.n_list:
            for run in range(1, self.runs + 1):
                config = experiment.ExperimentConfig(
                    n_list=(n,), trial_schedule=self.schedule, runs=1, seed=next(seeds), deterministic=True
                )
                self.sweeps.append((n, run, config))
                self.ops.append(
                    Op(
                        self.schedule[-1],
                        lambda config=config: experiment.run_experiment(config),
                        lambda rows: tuple(r.objective for r in rows),
                    )
                )
        self.table_config = experiment.ExperimentConfig(
            n_list=self.n_list, trial_schedule=self.schedule, runs=self.runs, deterministic=True
        )
        for n in self.n_list:
            experiment.run_experiment(
                experiment.ExperimentConfig(n_list=(n,), trial_schedule=(1,), runs=1, seed=self.seed)
            )

    def finish(self, outputs) -> tuple[str, str]:
        rows = [
            experiment.ExperimentRow(row.n, row.trials, run, row.objective, row.upper_bound)
            for (_, run, _), sweep_rows in zip(self.sweeps, outputs)
            for row in sweep_rows
        ]
        return experiment.render_csv(rows, True), experiment.render_markdown(rows, self.table_config)

    def check(self, outputs, finished) -> dict:
        ratios = []
        for (n, run, config), rows in zip(self.sweeps, outputs):
            ones = np.zeros((n, n, n, 4))
            ones[..., 0] = 1.0
            bound = oracles.certified_bound(ones)
            require(close(bound, oracles.all_ones_optimum(n), 1e-12), f"certified bound {bound}, n={n}")
            require([r.trials for r in rows] == list(self.schedule), f"checkpoints, n={n} run {run}")
            values = [r.objective for r in rows]
            require(all(a <= b for a, b in zip(values, values[1:])), f"objective decreases, n={n}")
            require(values[-1] <= bound * (1 + 1e-12), f"objective {values[-1]} above {bound}, n={n}")
            ratios.append(values[-1] / bound)
            if run != 1:
                continue
            form = forms.MultilinearForm(linalg.CQTensor(ones))
            report = solvers.maximize_form(form, self.schedule[-1], experiment.run_seed_for(config.seed, n, 1))
            require(report.objective == values[-1], f"maximize_form gives {report.objective}, n={n}")
            vectors = [v.data for v in report.solution]
            require(all(is_unit(v, 1e-12) for v in vectors), f"non-unit vector, n={n}")
            value = oracles.re_form(ones, vectors)
            require(close(value, report.objective, 1e-9), f"Re F {value} vs {report.objective}, n={n}")
        self._check_tables(outputs, *finished)
        return {"opt_ratio": float(np.mean(ratios)), "rank1_fit": 1.0}

    def _check_tables(self, outputs, csv: str, markdown: str) -> None:
        expected = [
            (n, r.trials, run, r.objective, r.upper_bound)
            for (n, run, _), rows in zip(self.sweeps, outputs)
            for r in rows
        ]
        lines = csv.splitlines()
        require(lines[0] == "n,trials,run,objective,upper_bound,ratio", "csv header")
        require(len(lines) == 1 + len(expected), "csv row count")
        for line, (n, trials, run, objective, upper) in zip(lines[1:], expected):
            cells = line.split(",")
            require([int(c) for c in cells[:3]] == [n, trials, run], f"csv row {line!r}")
            require([float(c) for c in cells[3:]] == [objective, upper, objective / upper], f"csv row {line!r}")
        for n in self.n_list:
            for trials in self.schedule:
                ratios = [o / u for (m, t, _, o, u) in expected if m == n and t == trials]
                cell = f" {sum(ratios) / len(ratios):.4f} | {min(ratios):.4f} |"
                require(cell in markdown, f"markdown cell for n={n}, {trials} trials")


def _dense_poly(rng, degree: int, dim: int) -> dict:
    return {
        idx: rng.standard_normal(4)
        for idx in itertools.combinations_with_replacement(range(1, dim + 1), degree)
    }


def _unit_rows(rng, dims) -> list[np.ndarray]:
    out = []
    for n in dims:
        v = rng.standard_normal((n, 4))
        out.append(v / oracles.norm(v))
    return out


class FileSolves:
    """Parse a CQT1/CQP1 file written in set-up, then solve it.

    Per round, eight times over: maximize_form on an order-3 and an order-4
    tensor, maximize_poly on a dense degree-3 and a dense degree-4
    polynomial, best_rank_one on a planted-plus-noise and a random tensor.
    """

    TRIALS = {"form3": 70, "form4": 110, "poly3": 55, "poly4": 45, "planted": 100, "random": 30}
    PLANTED_NOISE = 0.1

    def __init__(self, seed: int, workdir: Path, toy: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.copies = 1 if toy else 8
        self.scale = 0.2 if toy else 1.0

    def _trials(self, count: int) -> int:
        return max(2, int(count * self.scale))

    def _instances(self):
        """(kind, label, generated input) in round order, all drawn from the seed."""
        rng = np.random.default_rng(np.random.SeedSequence(entropy=int(self.seed), spawn_key=(2,)))
        out = []
        for _ in range(self.copies):
            out.append(("form", "form3", rng.standard_normal((4, 5, 6, 4))))
            out.append(("form", "form4", rng.standard_normal((3, 3, 4, 5, 4))))
            out.append(("poly", "poly3", (3, 5, _dense_poly(rng, 3, 5))))
            out.append(("poly", "poly4", (4, 4, _dense_poly(rng, 4, 4))))
            factors = _unit_rows(rng, (5, 5, 5))
            signal = 3.0 * oracles.outer(factors)
            noise = rng.standard_normal(signal.shape)
            noise *= self.PLANTED_NOISE * oracles.norm(signal) / oracles.norm(noise)
            tensor = signal + noise
            out.append(("planted", "planted", (tensor, oracles.norm(tensor - signal))))
            out.append(("random", "random", rng.standard_normal((4, 5, 6, 4))))
        return out

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.instances = []
        self.ops = []
        seeds = iter(derived_seeds(self.seed, 6 * self.copies))
        for index, (kind, label, generated) in enumerate(self._instances()):
            path = self.workdir / f"{index:02d}-{label}.{'cqp' if kind == 'poly' else 'cqt'}"
            if kind == "poly":
                degree, dim, coeffs = generated
                io.write_poly(forms.PolyProblem(degree, dim, {i: core.CQuat(*c) for i, c in coeffs.items()}), path)
            else:
                io.write_tensor(linalg.CQTensor(generated[0] if kind == "planted" else generated), path)
            trials = self._trials(self.TRIALS[label])
            self.instances.append((kind, generated))
            self.ops.append(Op(trials, functools.partial(self._solve, kind, path, next(seeds), trials), _summary))
            if index < 6:
                self._solve(kind, path, self.seed, 2)

    def _solve(self, kind: str, path: Path, seed: int, trials: int):
        if kind == "poly":
            poly = io.read_poly(path)
            return poly, solvers.maximize_poly(poly, trials, seed)
        tensor = io.read_tensor(path)
        if kind == "form":
            return tensor, solvers.maximize_form(forms.MultilinearForm(tensor), trials, seed)
        return tensor, solvers.best_rank_one(tensor, trials, seed)

    def finish(self, outputs) -> None:
        return None

    def check(self, outputs, finished) -> dict:
        ratios, fits = [], []
        for (kind, generated), (parsed, result) in zip(self.instances, outputs):
            if kind == "form":
                require(np.array_equal(parsed.data, generated), "parsed tensor differs from the written one")
                vectors = [v.data for v in result.solution]
                require(all(is_unit(v, 1e-12) for v in vectors), "non-unit form vector")
                value = oracles.re_form(generated, vectors)
                bound = oracles.certified_bound(generated)
            elif kind == "poly":
                degree, dim, coeffs = generated
                require(
                    parsed.degree == degree
                    and parsed.dim == dim
                    and {i: c.components() for i, c in parsed.coeffs.items()}
                    == {i: tuple(c) for i, c in coeffs.items()},
                    "parsed polynomial differs from the written one",
                )
                (vector,) = [v.data for v in result.solution]
                require(is_unit(vector, 1e-12), "non-unit polynomial vector")
                value = oracles.re_poly(coeffs, vector)
                bound = oracles.certified_bound(oracles.symmetrize(coeffs, degree, dim))
            else:
                tensor, noise = generated if kind == "planted" else (generated, None)
                require(np.array_equal(parsed.data, tensor), "parsed tensor differs from the written one")
                factors = [f.data for f in result.factors]
                require(all(is_unit(f, 1e-10) for f in factors), "non-unit rank-one factor")
                residual = oracles.norm(tensor - result.lam * oracles.outer(factors))
                size = oracles.norm(tensor)
                require(close(residual, result.direct_residual, 1e-9), f"residual {residual} vs {result.direct_residual}")
                require(residual <= size, f"residual {residual} above |T| = {size}")
                if noise is not None:
                    require(residual <= noise * (1 + 1e-12), f"planted residual {residual} above |E| = {noise}")
                fits.append(1.0 - residual**2 / size**2)
                continue
            require(close(value, result.objective, 1e-9), f"{kind} objective {result.objective} vs {value}")
            require(result.objective <= bound * (1 + 1e-12), f"{kind} objective {result.objective} above {bound}")
            ratios.append(result.objective / bound)
        return {"opt_ratio": float(np.mean(ratios)), "rank1_fit": float(np.mean(fits))}


def _summary(output) -> tuple:
    result = output[1]
    if isinstance(result, solvers.RankOneResult):
        return (result.lam, result.direct_residual, result.best_trial)
    return (result.objective, result.best_trial)


class TailProbe:
    """estimate_tail_prob with one 65,536-sample batch per operation.

    Per round: two probes at n = 8, two at n = 16 and one at n = 24, with
    gamma = 1/2, each against its own random quaternion vector a. A trial is
    one sphere sample.
    """

    GAMMA = 0.5
    SAMPLES = 1 << 16

    def __init__(self, seed: int, workdir: Path, toy: bool = False):
        self.seed = seed
        self.probes = ((4, 2), (8, 1)) if toy else ((8, 2), (16, 2), (24, 1))
        self.samples = 4096 if toy else self.SAMPLES

    def setup(self) -> None:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=int(self.seed), spawn_key=(3,)))
        seeds = iter(derived_seeds(self.seed, sum(count for _, count in self.probes)))
        self.dims = []
        self.ops = []
        for n, count in self.probes:
            for _ in range(count):
                a = linalg.CQVector(rng.standard_normal((n, 4)))
                seed = next(seeds)
                self.dims.append(n)
                self.ops.append(
                    Op(
                        self.samples,
                        lambda n=n, a=a, s=seed: problab.estimate_tail_prob(n, self.GAMMA, self.samples, s, a=a),
                        lambda r: (r.empirical_prob,),
                    )
                )
            problab.estimate_tail_prob(n, self.GAMMA, 1000, self.seed, a=a)

    def finish(self, outputs) -> None:
        return None

    def check(self, outputs, finished) -> dict:
        hits = expected = variance = 0.0
        for n, result in zip(self.dims, outputs):
            t = math.sqrt(self.GAMMA * math.log(n) / n)
            require(close(result.threshold, t, 1e-12), f"threshold {result.threshold} vs {t}, n={n}")
            p = oracles.tail_prob(n, t)
            se = math.sqrt(p * (1 - p) / self.samples)
            require(abs(result.empirical_prob - p) <= 5 * se, f"tail {result.empirical_prob} vs exact {p}, n={n}")
            hits += result.empirical_prob * self.samples
            expected += p * self.samples
            variance += p * (1 - p) * self.samples
        require(abs(hits - expected) <= 5 * math.sqrt(variance), f"{hits} hits against {expected} expected")
        return {"opt_ratio": 1.0, "rank1_fit": 1.0}


WORKLOADS = {"paper-table": PaperTable, "file-solves": FileSolves, "tail-probe": TailProbe}
