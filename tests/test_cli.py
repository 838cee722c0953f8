import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from cqpoly import (
    CQTensor,
    CQuat,
    CQVector,
    ExperimentRow,
    PolyProblem,
    ProbeResult,
    SolveReport,
    form_ratio_bound,
    outer_product,
    poly_ratio_bound,
    render_csv,
    write_poly,
    write_tensor,
)
from cqpoly import cli, sampling
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
    poly = write(tmp_path / "p.cqp", "CQP1\ndegree 3\ndim 3\n1 2 3 1.0 0.0 0.5 0.0\n")
    out = tmp_path / "report.csv"
    for args, ratio in [
        (["solve-f", "--tensor", path], form_ratio_bound((2, 2), 0.5)),
        (["solve-p", "--poly", poly], poly_ratio_bound(3, 3, 0.5)),
    ]:
        result = runner.invoke(main, args + ["--gamma", "0.5", "--out", str(out), "--deterministic"])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0].startswith("objective,")
        assert f"theoretical ratio: {ratio!r}" in result.output
        # the gamma and ratio cells, then an empty upper_bound cell
        assert lines[1].split(",")[4:7] == ["0.5", repr(ratio), ""]


def test_out_of_range_gamma_fails_before_any_trial(tmp_path, runner, monkeypatch):
    def unused(*args):
        raise AssertionError("no trial may run for a gamma out of range")

    monkeypatch.setattr(cli, "maximize_form", unused)
    monkeypatch.setattr(cli, "maximize_poly", unused)
    tensor = write(tmp_path / "m.cqt", "CQT1\norder 3\ndims 6 6 6\n1 1 1 1.0 0.0 0.0 0.0\n")
    poly = write(tmp_path / "p.cqp", "CQP1\ndegree 3\ndim 6\n1 1 1 1.0 0.0 0.0 0.0\n")
    for args in (["solve-f", "--tensor", tensor], ["solve-p", "--poly", poly]):
        result = runner.invoke(main, args + ["--gamma", "1e9"])
        assert result.exit_code == 1
        assert result.output.startswith("Error: gamma must lie in")
        assert len(result.output.splitlines()) == 1


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


@pytest.mark.parametrize("scale", [2.0**700, 2.0**-700, 1e200], ids=["2^700", "2^-700", "1e200"])
def test_extreme_scale_tensor_files_solve_cleanly(tmp_path, runner, scale):
    # the squares of these entries overflow or underflow
    data = np.random.default_rng(14).normal(size=(4, 5, 6, 4))
    path = tmp_path / "scaled.cqt"
    write_tensor(CQTensor(scale * data), path)
    for command in ("rank-one", "solve-f"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, [command, "--tensor", str(path), "--trials", "30", "--seed", "1"])
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        assert "degenerate: true" not in result.output


@pytest.fixture(scope="module")
def drawn_inputs(tmp_path_factory):
    # a random tensor, a random cubic, a tensor with unsorted dims and an order-2 tensor
    tmp = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(1)
    write_tensor(CQTensor(rng.normal(size=(4, 5, 6, 4))), tmp / "random.cqt")
    poly = PolyProblem(3, 4)
    for _ in range(12):
        poly.add_term(tuple(int(i) for i in rng.integers(1, 5, size=3)), CQuat(*rng.uniform(-1, 1, size=4)))
    write_poly(poly, tmp / "random.cqp")
    write_tensor(CQTensor(rng.normal(size=(5, 3, 4, 2, 4))), tmp / "unsorted.cqt")
    write_tensor(CQTensor(rng.normal(size=(5, 3, 4))), tmp / "order2.cqt")
    return tmp


PROBE_OFF_COMMANDS = {
    "sweep": "experiment --n-list 2,3 --trial-schedule 1,5 --runs 2 --seed 7 --deterministic",
    # the paper's 10,000 trials, where one chunk seeds 10,000 streams at once
    "sweep-10000": "experiment --n-list 2,7 --trial-schedule 1,10000 --runs 1 --seed 7 --deterministic",
    "rank-one": "rank-one --tensor {tmp}/random.cqt --trials 30 --seed 1",
    # slots with unsorted dims are sampled in sorted order and put back in their own places
    "rank-one-unsorted": "rank-one --tensor {tmp}/unsorted.cqt --trials 30 --seed 1",
    # an order-2 tensor samples no slot, so its one exact solve draws nothing
    "rank-one-order2": "rank-one --tensor {tmp}/order2.cqt --trials 30 --seed 1",
    "solve-f": "solve-f --tensor {tmp}/random.cqt --trials 30 --seed 1 --gamma 1 --deterministic --out {out}",
    "solve-f-unsorted": "solve-f --tensor {tmp}/unsorted.cqt --trials 30 --seed 1 --deterministic --out {out}",
    "solve-f-order2": "solve-f --tensor {tmp}/order2.cqt --trials 30 --seed 1 --deterministic --out {out}",
    "solve-p": "solve-p --poly {tmp}/random.cqp --trials 30 --seed 1 --estimate-min --deterministic --out {out}",
    "solve-p-gamma": "solve-p --poly {tmp}/random.cqp --trials 30 --seed 1 --gamma 0.5 --deterministic --out {out}",
}


@pytest.mark.parametrize("name", list(PROBE_OFF_COMMANDS))
def test_outputs_keep_their_bytes_with_the_state_probe_off(drawn_inputs, runner, monkeypatch, name):
    # with the probe forced off every draw comes from RandomSource; solves also replay their
    # winner as a one-stream range, which RandomSource draws either way
    template = PROBE_OFF_COMMANDS[name]
    outputs = []
    for probe_off in (False, True):
        if probe_off:
            monkeypatch.setattr(sampling, "_formula_matches_numpy", lambda: False)
        out = drawn_inputs / f"{name}-{probe_off}.csv"
        args = [token.format(tmp=drawn_inputs, out=out) for token in template.split()]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert out.exists() == ("{out}" in template)
        outputs.append((result.stdout, out.read_bytes() if out.exists() else None))
    assert outputs[0] == outputs[1]


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


def test_experiment_unwritable_out_fails_before_the_sweep(tmp_path, runner, monkeypatch):
    def no_sweep(config):
        raise AssertionError("the sweep ran before the output path was checked")

    monkeypatch.setattr(cli, "run_experiment", no_sweep)
    out = tmp_path / "missing" / "x.csv"
    result = runner.invoke(main, ["experiment", "--out", str(out)])
    assert result.exit_code == 1
    assert result.output.startswith("Error:") and str(out) in result.output
    assert len(result.output.splitlines()) == 1


def test_failed_sweep_removes_only_an_out_file_it_created(tmp_path, runner):
    huge = ["experiment", "--n-list", "100000", "--runs", "1", "--trial-schedule", "1", "--out"]
    created = tmp_path / "huge.csv"
    result = runner.invoke(main, huge + [str(created)])
    assert result.exit_code == 1 and result.stderr.startswith("Error: Unable to allocate")
    assert not created.exists()
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier output\n", encoding="utf-8")
    result = runner.invoke(main, huge + [str(kept)])
    assert result.exit_code == 1
    assert kept.read_text(encoding="utf-8") == "earlier output\n"


# 100000^3 entries of 4 doubles is 28 PiB, more than the x86-64 address
# space, so the allocation fails at once without touching memory.
@pytest.mark.parametrize("command", ["solve-f", "rank-one", "solve-p"])
def test_oversized_input_is_a_one_line_error(tmp_path, runner, command):
    if command == "solve-p":
        option, texts = "--poly", ["CQP1\ndegree 3\ndim 100000\n1 1 1 1.0 0.0 0.0 0.0\n"]
    else:
        header = "CQT1\norder 3\ndims 100000 100000 100000\n"
        option, texts = "--tensor", [header, header + "100000 100000 100000 1.0 0.0 0.0 0.0\n"]
    for text in texts:
        path = write(tmp_path / "huge.txt", text)
        result = runner.invoke(main, [command, option, path, "--trials", "2"])
        assert result.exit_code == 1
        assert result.output.startswith("Error:") and "allocate" in result.output
        assert len(result.output.splitlines()) == 1


@pytest.mark.parametrize("command", ["solve-f", "solve-p"])
def test_non_finite_input_names_its_line(tmp_path, runner, command):
    if command == "solve-p":
        option, text = "--poly", "CQP1\ndegree 2\ndim 2\n1 1 1.0 0.0 0.0 0.0\n1 2 0.0 1e999 0.0 0.0\n"
    else:
        option, text = "--tensor", "CQT1\norder 2\ndims 2 2\n1 1 1.0 0.0 0.0 0.0\n1 2 nan 0.0 0.0 0.0\n"
    path = write(tmp_path / "bad.txt", text)
    result = runner.invoke(main, [command, option, path])
    assert result.exit_code == 1
    assert result.output.startswith("Error:") and f"{path}:5:" in result.output
    assert "CQTensor" not in result.output


@pytest.mark.parametrize("command", ["solve-f", "rank-one", "solve-p"])
def test_non_utf8_input_names_its_line(tmp_path, runner, command):
    if command == "solve-p":
        option, header = "--poly", b"CQP1\ndegree 2\ndim 2\n"
    else:
        option, header = "--tensor", b"CQT1\norder 2\ndims 2 2\n"
    path = tmp_path / "latin1.txt"
    # the byte inside line 4, and first on it
    for entry in (b"1 1 \xff 0 0 0\n", b"\xff1 1 0 0 0 0\n"):
        path.write_bytes(header + entry)
        result = runner.invoke(main, [command, option, str(path)])
        assert result.exit_code == 1
        assert result.output == f"Error: {path}:4: not UTF-8: byte 0xff (invalid start byte)\n"


def test_overflowing_duplicate_sum_names_its_line(tmp_path, runner):
    path = write(tmp_path / "dup.cqp", "CQP1\ndegree 2\ndim 2\n1 2 1e308 0 0 0\n1 2 1e308 0 0 0\n")
    result = runner.invoke(main, ["solve-p", "--poly", path])
    assert result.exit_code == 1
    assert result.output.startswith("Error:") and f"{path}:5:" in result.output
    assert len(result.output.splitlines()) == 1


def test_report_csv_bytes():
    report = SolveReport(
        solution=[CQVector.basis(2, 0)], objective=0.0, trials=1, best_trial=0, seed=42, degenerate=True
    )
    assert cli._report_csv(report, None, None, deterministic=True) == (
        "objective,trials,best_trial,seed,gamma,theoretical_ratio,upper_bound,degenerate\n"
        "0.0,1,0,42,,,,true\n"
    )
    report = SolveReport(
        solution=[CQVector.basis(2, 0)], objective=1.25, trials=7, best_trial=3, seed=5, degenerate=False
    )
    assert cli._report_csv(report, 0.5, 2e-320, deterministic=True).splitlines()[1] == (
        "1.25,7,3,5,0.5,2e-320,,false"
    )


def test_prob_check_csv_bytes(runner, monkeypatch):
    probe = ProbeResult(
        n=5, gamma=0.5, delta=None, samples=1000, threshold=0.1, empirical_prob=1 / 3,
        bound45=-0.0, bound_improved=None,
    )
    monkeypatch.setattr(cli, "estimate_tail_prob", lambda *args, **kwargs: probe)
    result = runner.invoke(main, ["prob-check", "--n", "5", "--gamma", "0.5", "--deterministic"])
    assert result.exit_code == 0, result.output
    assert result.output == (
        "n,gamma,delta,samples,threshold,empirical_prob,bound45,bound_improved\n"
        "5,0.5,,1000,0.1,0.3333333333333333,-0.0,\n"
    )


def test_every_out_file_is_written_with_lf_newlines(tmp_path, runner, monkeypatch):
    # write_text turns "\n" into os.linesep unless newline="\n" is given, so file bytes
    # would depend on the platform; every file goes through io.write_text, which gives it
    calls = []

    class RecordingPath(type(Path())):
        def write_text(self, *args, **kwargs):
            calls.append(kwargs)
            return super().write_text(*args, **kwargs)

    def check(path):
        assert calls == [{"encoding": "utf-8", "newline": "\n"}], path
        assert b"\r" not in path.read_bytes()
        calls.clear()

    monkeypatch.setattr("cqpoly.io.Path", RecordingPath)
    tensor, poly, out = tmp_path / "m.cqt", tmp_path / "p.cqp", tmp_path / "out.csv"
    write_tensor(CQTensor.from_real(np.ones((1, 1))), tensor)
    check(tensor)
    square = PolyProblem(degree=2, dim=1)
    square.add_term((1, 1), CQuat(1.0, 0.0, 0.0, 0.0))
    write_poly(square, poly)
    check(poly)
    for args in [
        ["solve-f", "--tensor", str(tensor), "--trials", "2"],
        ["solve-p", "--poly", str(poly), "--trials", "2"],
        ["experiment", "--n-list", "2", "--trial-schedule", "1", "--runs", "1"],
        ["prob-check", "--n", "3", "--gamma", "0.5", "--samples", "1000"],
    ]:
        result = runner.invoke(main, args + ["--out", str(out), "--deterministic"])
        assert result.exit_code == 0, result.output
        check(out)


def test_experiment_csv_bytes():
    rows = [ExperimentRow(2, 10, 1, 1.5, 2.0), ExperimentRow(3, 1, 20, 0.1, 0.3)]
    assert render_csv(rows, deterministic=True) == (
        "n,trials,run,objective,upper_bound,ratio\n"
        "2,10,1,1.5,2.0,0.75\n"
        "3,1,20,0.1,0.3,0.33333333333333337\n"
    )


STAMP = r"generated \d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00"


def test_timestamp_first_line_without_deterministic(tmp_path, runner):
    tensor = write(tmp_path / "m.cqt", "CQT1\norder 2\ndims 1 1\n1 1 1.0 0.0 0.0 0.0\n")
    out = tmp_path / "r.csv"
    result = runner.invoke(main, ["solve-f", "--tensor", tensor, "--trials", "2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    first, header = out.read_text().splitlines()[:2]
    assert re.fullmatch("# " + STAMP, first) and header.startswith("objective,")
    sweep = ["experiment", "--n-list", "2", "--trial-schedule", "1", "--runs", "1"]
    for args, pattern in [
        (sweep, "# " + STAMP),
        (sweep + ["--format", "markdown"], "<!-- " + STAMP + " -->"),
        (["prob-check", "--n", "3", "--gamma", "0.5", "--samples", "1000"], "# " + STAMP),
    ]:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert re.fullmatch(pattern, result.output.splitlines()[0])
        deterministic = runner.invoke(main, args + ["--deterministic"]).output
        assert result.output.split("\n", 1)[1] == deterministic


# Each command's arguments and the core call that is made to raise; the
# boundary must cover calls made anywhere in a command, not only the first.
BOUNDARY_CASES = {
    "solve-f": (["solve-f", "--tensor", "{tensor}"], "read_tensor"),
    "rank-one": (["rank-one", "--tensor", "{tensor}"], "read_tensor"),
    "solve-p": (["solve-p", "--poly", "{poly}"], "read_poly"),
    "solve-p --estimate-min": (["solve-p", "--poly", "{poly}", "--trials", "2", "--estimate-min"], "estimate_ball_min"),
    "experiment": (["experiment", "--n-list", "2", "--trial-schedule", "1", "--runs", "1"], "run_experiment"),
    "prob-check": (["prob-check", "--n", "3", "--gamma", "0.5", "--samples", "1000"], "estimate_tail_prob"),
}


@pytest.mark.parametrize("error", [OSError, ValueError, MemoryError])
@pytest.mark.parametrize("case", list(BOUNDARY_CASES))
def test_every_command_turns_errors_into_one_line(tmp_path, runner, monkeypatch, case, error):
    def fail(*args, **kwargs):
        raise error("boom at the core")

    template, target = BOUNDARY_CASES[case]
    monkeypatch.setattr(cli, target, fail)
    paths = {
        "tensor": write(tmp_path / "m.cqt", "CQT1\norder 2\ndims 1 1\n1 1 1.0 0.0 0.0 0.0\n"),
        "poly": write(tmp_path / "p.cqp", "CQP1\ndegree 2\ndim 1\n1 1 1.0 0.0 0.0 0.0\n"),
    }
    result = runner.invoke(main, [arg.format(**paths) for arg in template])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == "Error: boom at the core\n"
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["experiment", "--n-list", "100000", "--runs", "1", "--trial-schedule", "1"], "Error: Unable to allocate"),
        (["prob-check", "--n", "3", "--gamma", "0.5", "--delta", "1e200", "--samples", "1000"], "Error: delta = 1e+200"),
    ],
)
def test_huge_sweep_and_huge_delta_are_one_line_errors(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith(message) and len(result.stderr.splitlines()) == 1


def test_usage_errors_keep_exit_code_two(tmp_path, runner):
    result = runner.invoke(main, ["solve-f", "--tensor", str(tmp_path / "absent.cqt")])
    assert result.exit_code == 2 and "does not exist" in result.stderr


def test_unparsable_list_keeps_its_wording(runner):
    result = runner.invoke(main, ["experiment", "--n-list", "2,x"])
    assert result.exit_code == 1
    assert result.stderr == "Error: could not parse --n-list: '2,x'\n"
