import math

import numpy as np
import pytest
from click.testing import CliRunner

from cqpoly import CQTensor, CQVector, outer_product, write_tensor
from cqpoly.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_solve_f_all_ones_matrix(tmp_path, runner):
    path = write(
        tmp_path / "ones.cqt",
        "CQT1\norder 2\ndims 2 2\n"
        "1 1 1.0 0.0 0.0 0.0\n1 2 1.0 0.0 0.0 0.0\n"
        "2 1 1.0 0.0 0.0 0.0\n2 2 1.0 0.0 0.0 0.0\n",
    )
    result = runner.invoke(main, ["solve-f", "--tensor", path, "--trials", "5"])
    assert result.exit_code == 0, result.output
    objective = float(result.output.split("objective: ")[1].splitlines()[0])
    assert objective == pytest.approx(2.0, abs=1e-8)


def test_solve_f_malformed_header_names_line(tmp_path, runner):
    path = write(tmp_path / "bad.cqt", "NOPE\norder 2\ndims 2 2\n")
    result = runner.invoke(main, ["solve-f", "--tensor", path])
    assert result.exit_code != 0
    assert ":1:" in result.output


def test_solve_f_cube_respects_upper_bound(tmp_path, runner):
    lines = ["CQT1", "order 3", "dims 2 2 2"]
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                lines.append(f"{i} {j} {k} 1.0 0.0 0.0 0.0")
    path = write(tmp_path / "cube.cqt", "\n".join(lines) + "\n")
    result = runner.invoke(main, ["solve-f", "--tensor", path, "--trials", "50", "--seed", "1"])
    assert result.exit_code == 0, result.output
    objective = float(result.output.split("objective: ")[1].splitlines()[0])
    assert 0 < objective <= 4 * math.sqrt(2) + 1e-9


def test_solve_f_gamma_out_writes_csv(tmp_path, runner):
    path = write(
        tmp_path / "m.cqt",
        "CQT1\norder 2\ndims 2 2\n1 1 1.0 0.0 0.0 0.0\n2 2 -1.0 0.5 0.0 0.0\n",
    )
    out = tmp_path / "report.csv"
    result = runner.invoke(
        main,
        ["solve-f", "--tensor", path, "--gamma", "0.5", "--out", str(out), "--deterministic"],
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0].startswith("objective,")
    assert "theoretical ratio" in result.output


def test_solve_p_cubic_monomial(tmp_path, runner):
    path = write(tmp_path / "cubic.cqp", "CQP1\ndegree 3\ndim 1\n1 1 1 1.0 0.0 0.0 0.0\n")
    result = runner.invoke(
        main, ["solve-p", "--poly", path, "--trials", "200", "--seed", "3", "--estimate-min"]
    )
    assert result.exit_code == 0, result.output
    objective = float(result.output.split("objective: ")[1].splitlines()[0])
    assert 0.0 <= objective <= math.sqrt(2) + 1e-9
    assert "ball minimum upper estimate" in result.output


def test_solve_p_zero_polynomial_flags_degenerate(tmp_path, runner):
    path = write(tmp_path / "zero.cqp", "CQP1\ndegree 2\ndim 2\n")
    result = runner.invoke(main, ["solve-p", "--poly", path, "--trials", "5"])
    assert result.exit_code == 0, result.output
    assert "degenerate: true" in result.output
    assert "objective: 0.0" in result.output


def test_rank_one_planted(tmp_path, runner):
    g = np.random.default_rng(12)
    vecs = []
    for n in (2, 2, 2):
        v = g.normal(size=n)
        vecs.append(CQVector.from_real(v / np.linalg.norm(v)))
    tensor = CQTensor(2.0 * outer_product(vecs).data)
    path = tmp_path / "planted.cqt"
    write_tensor(tensor, path)
    result = runner.invoke(
        main, ["rank-one", "--tensor", str(path), "--trials", "800", "--seed", "2"]
    )
    assert result.exit_code == 0, result.output
    formula = float(result.output.split("residual (norm formula): ")[1].splitlines()[0])
    direct = float(result.output.split("residual (direct): ")[1].splitlines()[0])
    assert formula <= 0.1 * tensor.norm()
    assert direct <= 0.1 * tensor.norm()


def test_rank_one_zero_tensor_fails(tmp_path, runner):
    path = write(tmp_path / "zero.cqt", "CQT1\norder 3\ndims 2 2 2\n")
    result = runner.invoke(main, ["rank-one", "--tensor", path])
    assert result.exit_code != 0


def test_experiment_csv_and_determinism(tmp_path, runner):
    args = [
        "experiment",
        "--n-list", "2",
        "--trial-schedule", "1,5,10",
        "--runs", "3",
        "--seed", "11",
        "--format", "csv",
        "--deterministic",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = runner.invoke(main, args + ["--out", str(out1)])
    r2 = runner.invoke(main, args + ["--out", str(out2)])
    assert r1.exit_code == 0, r1.output
    assert r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "n,trials,run,objective,upper_bound,ratio"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 9  # 3 checkpoints x 3 runs
    by_run = {}
    for n, trials, run, objective, upper, ratio in rows:
        assert n == "2"
        r = float(ratio)
        assert 0.0 < r <= 1.0
        by_run.setdefault(run, []).append((int(trials), r))
    for checkpoints in by_run.values():
        ordered = [r for _, r in sorted(checkpoints)]
        assert all(a <= b + 1e-15 for a, b in zip(ordered, ordered[1:]))


def test_experiment_markdown(tmp_path, runner):
    out = tmp_path / "table.md"
    result = runner.invoke(
        main,
        [
            "experiment",
            "--n-list", "2,3",
            "--trial-schedule", "1,5",
            "--runs", "2",
            "--format", "markdown",
            "--deterministic",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    text = out.read_text()
    assert "| Number of trials |" in text
    assert "n=2" in text and "n=3" in text


def test_experiment_rejects_bad_schedule(runner):
    result = runner.invoke(main, ["experiment", "--trial-schedule", "10,5"])
    assert result.exit_code != 0


def test_prob_check_outputs_csv(tmp_path, runner):
    out = tmp_path / "probe.csv"
    result = runner.invoke(
        main,
        [
            "prob-check",
            "--n", "5",
            "--gamma", "0.5",
            "--delta", "1.0",
            "--samples", "20000",
            "--seed", "4",
            "--deterministic",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "n,gamma,delta,samples,threshold,empirical_prob,bound45,bound_improved"
    fields = lines[1].split(",")
    assert fields[0] == "5"
    assert float(fields[5]) > 0.0


def test_prob_check_rejects_bad_hypothesis(runner):
    result = runner.invoke(main, ["prob-check", "--n", "2", "--gamma", "4.0"])
    assert result.exit_code != 0


def test_prob_check_rejects_nan_gamma(runner):
    result = runner.invoke(main, ["prob-check", "--n", "3", "--gamma", "nan", "--samples", "1000"])
    assert result.exit_code == 1
    assert result.output.startswith("Error:") and "finite" in result.output


@pytest.mark.parametrize("command", ["solve-f", "solve-p", "experiment", "prob-check"])
def test_unwritable_out_is_a_one_line_error(tmp_path, runner, command):
    tensor = write(tmp_path / "m.cqt", "CQT1\norder 2\ndims 1 1\n1 1 1.0 0.0 0.0 0.0\n")
    poly = write(tmp_path / "p.cqp", "CQP1\ndegree 2\ndim 1\n1 1 1.0 0.0 0.0 0.0\n")
    args = {
        "solve-f": ["--tensor", tensor, "--trials", "2"],
        "solve-p": ["--poly", poly, "--trials", "2"],
        "experiment": ["--n-list", "2", "--trial-schedule", "1", "--runs", "1"],
        "prob-check": ["--n", "3", "--gamma", "0.5", "--samples", "1000"],
    }[command]
    out = tmp_path / "missing" / "x.csv"
    result = runner.invoke(main, [command, *args, "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    last = result.output.splitlines()[-1]
    assert last.startswith("Error:") and str(out) in last


def test_unreadable_input_is_a_one_line_error(tmp_path, runner, monkeypatch):
    def denied(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr("cqpoly.cli.read_tensor", denied)
    path = write(tmp_path / "m.cqt", "CQT1\norder 2\ndims 1 1\n")
    result = runner.invoke(main, ["solve-f", "--tensor", path])
    assert result.exit_code == 1
    assert result.output.startswith("Error:") and "Permission denied" in result.output
