"""Tests of the benchmark itself: its oracles against closed forms, and each workload at toy size.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def quat(w=0.0, x=0.0, y=0.0, z=0.0) -> np.ndarray:
    return np.array([w, x, y, z], dtype=np.float64)


ONE, I, J, K = quat(1), quat(0, 1), quat(0, 0, 1), quat(0, 0, 0, 1)


def test_multiplication_table():
    assert np.array_equal(oracles.qmul(I, I), -ONE)
    assert np.array_equal(oracles.qmul(J, J), ONE)
    assert np.array_equal(oracles.qmul(K, K), -ONE)
    assert np.array_equal(oracles.qmul(I, J), K) and np.array_equal(oracles.qmul(J, I), K)
    assert np.array_equal(oracles.qmul(J, K), I) and np.array_equal(oracles.qmul(K, J), I)
    assert np.array_equal(oracles.qmul(I, K), -J) and np.array_equal(oracles.qmul(K, I), -J)


def test_hand_multiplied_products():
    # (1 + 2i)(3 + j) = 3 + j + 6i + 2ij = 3 + 6i + j + 2k
    assert np.array_equal(oracles.qmul(quat(1, 2), quat(3, 0, 1)), quat(3, 6, 1, 2))
    # (1 + j)(1 - j) = 1 - j^2 = 0: a pair of zero divisors
    assert np.array_equal(oracles.qmul(quat(1, 0, 1), quat(1, 0, -1)), quat())
    # (2 + k)(i - j) = 2i - 2j + ki - kj = 2i - 2j - j - i = i - 3j
    assert np.array_equal(oracles.qmul(quat(2, 0, 0, 1), quat(0, 1, -1)), quat(0, 1, -3))


def test_components_are_multiplicative():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 5, 4))
    for za, zb, zab in zip(oracles.components(a), oracles.components(b), oracles.components(oracles.qmul(a, b))):
        assert np.allclose(za * zb, zab, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_all_ones_optimum_at_uniform_vectors(n):
    ones = np.zeros((n, n, n, 4))
    ones[..., 0] = 1.0
    uniform = np.tile(quat(1, 0, 1) / math.sqrt(2 * n), (n, 1))
    assert oracles.norm(uniform) == pytest.approx(1.0, abs=1e-15)
    value = oracles.re_form(ones, [uniform] * 3)
    assert value == pytest.approx(math.sqrt(2) * n**1.5, rel=1e-12)
    assert oracles.certified_bound(ones) == pytest.approx(oracles.all_ones_optimum(n), rel=1e-12)


def test_certified_bound_dominates_values():
    rng = np.random.default_rng(1)
    for dims in [(3, 4), (2, 3, 4), (2, 2, 3, 3)]:
        data = rng.standard_normal(dims + (4,))
        bound = oracles.certified_bound(data)
        for _ in range(50):
            xs = [rng.standard_normal((n, 4)) for n in dims]
            assert oracles.re_form(data, [x / oracles.norm(x) for x in xs]) <= bound


def test_bilinear_bound_is_the_larger_spectral_norm():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((3, 4, 4))
    expected = max(np.linalg.norm(c, 2) for c in oracles.components(data))
    assert oracles.certified_bound(data) == pytest.approx(expected, rel=1e-12)


def test_symmetrized_form_restricts_to_the_polynomial():
    rng = np.random.default_rng(3)
    coeffs = {(1, 1, 2): rng.standard_normal(4), (1, 2, 3): rng.standard_normal(4), (3, 3, 3): rng.standard_normal(4)}
    x = rng.standard_normal((3, 4))
    data = oracles.symmetrize(coeffs, 3, 3)
    assert oracles.re_form(data, [x] * 3) == pytest.approx(oracles.re_poly(coeffs, x), rel=1e-12)


def test_outer_of_real_unit_vectors_is_unit():
    rng = np.random.default_rng(4)
    xs = []
    for n in (2, 3, 4):
        x = np.zeros((n, 4))
        x[:, 0] = rng.standard_normal(n)
        xs.append(x / oracles.norm(x))
    assert oracles.norm(oracles.outer(xs)) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("t", [0.0, 0.1, 0.5, 0.9])
def test_tail_probability_on_the_three_sphere(t):
    # On S^3 (n = 1) the first coordinate has density (2/pi) sqrt(1 - x^2).
    exact = (math.acos(t) - t * math.sqrt(1 - t * t)) / math.pi
    assert oracles.tail_prob(1, t) == pytest.approx(exact, rel=1e-12)


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.3", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_at_toy_size(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = run_bench("paper-table", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _tamper_paper_table(outputs):
    rows = outputs[0]
    outputs[0] = rows[:-1] + [dataclasses.replace(rows[-1], objective=rows[-1].objective * (1 + 1e-6))]


def _tamper_file_solves(outputs):
    outputs[0][1].objective += 1e-6


def _tamper_tail_probe(outputs):
    result = outputs[0]
    outputs[0] = dataclasses.replace(result, empirical_prob=result.empirical_prob + 0.05)


@pytest.mark.parametrize(
    "workload, tamper",
    [("paper-table", _tamper_paper_table), ("file-solves", _tamper_file_solves), ("tail-probe", _tamper_tail_probe)],
)
def test_checks_reject_a_changed_output(workload, tamper, tmp_path):
    bench = workloads.WORKLOADS[workload](11, tmp_path, toy=True)
    bench.setup()
    outputs = [op.run() for op in bench.ops]
    finished = bench.finish(outputs)
    bench.check(outputs, finished)
    tamper(outputs)
    with pytest.raises(workloads.CheckFailed):
        bench.check(outputs, finished)
