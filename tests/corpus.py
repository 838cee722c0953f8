"""The identity corpus: fixed inputs and the CLI commands whose output bytes must not move.

Every input comes from a fixed seed and is written by this module's own
formatter, not by cqpoly.io, so a change to the package's writers cannot
move the inputs. Every command runs in-process through click's CliRunner,
in a scratch directory that holds the inputs, so paths in the outputs are
the same on every machine.

    OPENBLAS_NUM_THREADS=1 python -m tests.corpus DIR

writes, for each command NAME, DIR/NAME.stdout, DIR/NAME.out (its --out
file, if it has one) and DIR/NAME.stderr (if not empty), every exit code
in DIR/exit-codes.txt, and DIR/MANIFEST.sha256 in sha256sum's format. To
check that a change keeps every output byte, run it at both commits and
compare: ``diff -r parent-dir change-dir`` prints nothing. Run it at
OPENBLAS_NUM_THREADS=2 as well to compare BLAS thread counts.

PROBE_OFF names the commands tier-1 runs with the state probe of
cqpoly.sampling on and forced off, and FAR_SCALED those it runs on the
tensors scaled past the float range of their squares (tests/test_cli.py).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import tempfile
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from cqpoly.cli import main as cli_main


def _entry(idx, comps) -> str:
    """One entry line: 1-based indices, then the components by repr."""
    return " ".join(map(str, idx)) + " " + " ".join(map(repr, comps))


def tensor_text(data: np.ndarray) -> str:
    """A CQT1 file of an (n1, ..., nd, 4) array: nonzero entries in index order."""
    dims = data.shape[:-1]
    lines = ["CQT1", f"order {len(dims)}", "dims " + " ".join(map(str, dims))]
    for idx in np.ndindex(*dims):
        comps = data[idx].tolist()
        if any(comps):
            lines.append(_entry([i + 1 for i in idx], comps))
    return "\n".join(lines) + "\n"


def poly_text(degree: int, dim: int, terms) -> str:
    """A CQP1 file of (1-based indices, 4 components) terms.

    Each index tuple is sorted and duplicates are summed in the order given;
    nonzero coefficients are written in index order.
    """
    coeffs: dict[tuple[int, ...], list[float]] = {}
    for idx, comps in terms:
        key = tuple(sorted(idx))
        coeffs[key] = [a + b for a, b in zip(coeffs[key], comps)] if key in coeffs else list(comps)
    lines = ["CQP1", f"degree {degree}", f"dim {dim}"]
    for key, comps in sorted(coeffs.items()):
        if any(comps):
            lines.append(_entry(key, comps))
    return "\n".join(lines) + "\n"


def _dense_terms(rng, degree: int, dim: int, real: bool = False):
    """A normal coefficient, or with real a normal real part, for every sorted index tuple."""
    combos = itertools.combinations_with_replacement(range(1, dim + 1), degree)
    return [(idx, [rng.normal(), 0.0, 0.0, 0.0] if real else rng.normal(size=4).tolist()) for idx in combos]


def _supersymmetric(rng, n: int, d: int) -> np.ndarray:
    """A tensor whose entry at every permutation of an index tuple is the same draw."""
    data = np.zeros((n,) * d + (4,))
    for idx in itertools.combinations_with_replacement(range(n), d):
        value = rng.normal(size=4)
        for perm in set(itertools.permutations(idx)):
            data[perm] = value
    return data


def inputs() -> dict[str, str]:
    """File name -> text of every corpus input."""
    files = {}
    # a random tensor, a sparse cubic (its repeated draws summed), unsorted dims and an order-2 tensor
    rng = np.random.default_rng(1)
    random_data = rng.normal(size=(4, 5, 6, 4))
    files["random.cqt"] = tensor_text(random_data)
    # the random tensor scaled by powers of two past linalg.SAFE_EXPONENT, whose squares underflow
    # or overflow: the solvers rescale them exactly
    files["tiny.cqt"] = tensor_text(2.0**-700 * random_data)
    files["huge.cqt"] = tensor_text(2.0**700 * random_data)
    sparse = [(rng.integers(1, 5, size=3).tolist(), rng.uniform(-1, 1, size=4).tolist()) for _ in range(12)]
    files["random.cqp"] = poly_text(3, 4, sparse)
    files["unsorted.cqt"] = tensor_text(rng.normal(size=(5, 3, 4, 2, 4)))
    files["order2.cqt"] = tensor_text(rng.normal(size=(5, 3, 4)))
    # a dense quartic and a tensor symmetric in its two largest slots (the Takagi branch)
    rng = np.random.default_rng(2)
    files["rand.cqt"] = tensor_text(rng.normal(size=(4, 5, 6, 4)))
    files["rand.cqp"] = poly_text(4, 5, _dense_terms(rng, 4, 5))
    sym = rng.normal(size=(3, 5, 5, 4))
    files["sym.cqt"] = tensor_text(sym + sym.swapaxes(1, 2))
    rng = np.random.default_rng(28)
    # symmetric in slots 1 and 3, which sort to the free pair
    sym = rng.normal(size=(5, 3, 5, 4))
    files["sym13.cqt"] = tensor_text(sym + sym.transpose(2, 1, 0, 3))
    sym = rng.normal(size=(4, 4, 4))
    files["sym-order2.cqt"] = tensor_text(sym + sym.swapaxes(0, 1))
    files["supersym.cqt"] = tensor_text(_supersymmetric(rng, 3, 3))
    real = np.zeros((3, 4, 5, 4))
    real[..., 0] = rng.normal(size=(3, 4, 5))
    files["real.cqt"] = tensor_text(real)
    files["ones.cqt"] = tensor_text(np.ones((2, 2, 2, 1)) * [1.0, 0.0, 0.0, 0.0])
    files["zero.cqt"] = tensor_text(np.zeros((3, 3, 3, 4)))
    for degree, dim in [(2, 3), (2, 5), (3, 2), (3, 3), (4, 3), (5, 2)]:
        files[f"d{degree}-n{dim}.cqp"] = poly_text(degree, dim, _dense_terms(rng, degree, dim))
    files["real-d3-n4.cqp"] = poly_text(3, 4, _dense_terms(rng, 3, 4, real=True))
    files["zero.cqp"] = poly_text(3, 3, [])
    files["zero-d2.cqp"] = poly_text(2, 3, [])
    # what the parser must read as the writers never write: entries out of order, CRLF line
    # endings, tabs and blank lines, and a polynomial whose tuples each appear twice
    lines = tensor_text(rng.normal(size=(3, 4, 2, 4))).splitlines()
    body = [line.replace(" ", "\t", 1) for line in rng.permutation(lines[3:]).tolist()]
    files["shuffled.cqt"] = "\r\n".join(lines[:3] + [""] + body) + "\r\n"
    repeated = _dense_terms(rng, 3, 3)
    lines = ["CQP1", "degree 3", "dim 3"] + [_entry(idx, comps) for idx, comps in repeated + repeated[::-1]]
    files["repeated.cqp"] = "\n".join(lines) + "\n"
    # parse errors: a bad header, a repeated tensor entry and an unsorted polynomial tuple
    files["bad-header.cqt"] = "CQT2\norder 2\ndims 2 2\n"
    files["duplicate.cqt"] = "CQT1\norder 2\ndims 2 2\n1 2 1.0 0.0 0.0 0.0\n\n1 2 0.5 0.0 0.0 0.0\n"
    files["unsorted-tuple.cqp"] = "CQP1\ndegree 2\ndim 3\n1 1 1.0 0.0 0.0 0.0\n3 2 1.0 0.0 0.0 0.0\n"
    return files


def _commands() -> dict[str, str]:
    commands = {
        # the state-probe subset (PROBE_OFF)
        "sweep": "experiment --n-list 2,3 --trial-schedule 1,5 --runs 2 --seed 7 --deterministic",
        # the paper's 10,000 trials, where one chunk seeds 10,000 streams at once
        "sweep-10000": "experiment --n-list 2,7 --trial-schedule 1,10000 --runs 1 --seed 7 --deterministic",
        "rank-one": "rank-one --tensor random.cqt --trials 30 --seed 1",
        # slots with unsorted dims are sampled in sorted order and put back in their own places
        "rank-one-unsorted": "rank-one --tensor unsorted.cqt --trials 30 --seed 1",
        # an order-2 tensor samples no slot, so its one exact solve draws nothing
        "rank-one-order2": "rank-one --tensor order2.cqt --trials 30 --seed 1",
        "solve-f": "solve-f --tensor random.cqt --trials 30 --seed 1 --gamma 1 --deterministic --out {out}",
        "solve-f-unsorted": "solve-f --tensor unsorted.cqt --trials 30 --seed 1 --deterministic --out {out}",
        "solve-f-order2": "solve-f --tensor order2.cqt --trials 30 --seed 1 --deterministic --out {out}",
        "solve-p": "solve-p --poly random.cqp --trials 30 --seed 1 --estimate-min --deterministic --out {out}",
        "solve-p-gamma": "solve-p --poly random.cqp --trials 30 --seed 1 --gamma 0.5 --deterministic --out {out}",
        # solves and tail probes whose bytes must not move with the BLAS thread count
        "threads.solve-f": "solve-f --tensor rand.cqt --trials 30 --seed 1 --deterministic --out {out}",
        "threads.solve-p": "solve-p --poly rand.cqp --trials 30 --seed 1 --estimate-min --deterministic --out {out}",
        "threads.solve-f-sym": "solve-f --tensor sym.cqt --trials 30 --seed 1 --deterministic --out {out}",
        "threads.probe-24": "prob-check --n 24 --gamma 0.5 --samples 200000 --seed 3 --deterministic",
        # at n = 40 a block is 204 rows, not a multiple of 64, and the samples span three streams
        "threads.probe-40": "prob-check --n 40 --gamma 0.5 --samples 150000 --seed 3 --deterministic",
        "experiment.markdown": "experiment --n-list 2,3 --trial-schedule 1,5,30 --runs 3 --seed 5 --format markdown "
        "--deterministic",
        "experiment.csv-out": "experiment --n-list 2,4 --trial-schedule 1,10 --runs 2 --seed 3 --deterministic --out {out}",
        "prob-check.delta": "prob-check --n 3 --gamma 0.5 --delta 0.1 --samples 5000 --seed 2 --deterministic "
        "--out {out}",
        "error.header": "solve-f --tensor bad-header.cqt",
        "error.duplicate": "rank-one --tensor duplicate.cqt",
        "error.unsorted-tuple": "solve-p --poly unsorted-tuple.cqp",
    }
    tensors = [
        "random", "unsorted", "order2", "rand", "sym", "sym13", "sym-order2", "supersym", "real", "ones", "zero",
        "shuffled", "tiny", "huge",
    ]
    polys = [
        "random", "rand", "d2-n3", "d2-n5", "d3-n2", "d3-n3", "d4-n3", "d5-n2", "real-d3-n4", "zero", "zero-d2",
        "repeated",
    ]
    for seed, trials in itertools.product((1, 9), (1, 30)):
        run = f"--trials {trials} --seed {seed}"
        for stem in tensors:
            commands[f"solve-f.{stem}.s{seed}-t{trials}"] = (
                f"solve-f --tensor {stem}.cqt {run} --gamma 0.5 --deterministic --out {{out}}"
            )
            commands[f"rank-one.{stem}.s{seed}-t{trials}"] = f"rank-one --tensor {stem}.cqt {run}"
        for stem in polys:
            commands[f"solve-p.{stem}.s{seed}-t{trials}"] = (
                f"solve-p --poly {stem}.cqp {run} --estimate-min --deterministic --out {{out}}"
            )
    return commands


COMMANDS = _commands()
PROBE_OFF = (
    "sweep", "sweep-10000", "rank-one", "rank-one-unsorted", "rank-one-order2",
    "solve-f", "solve-f-unsorted", "solve-f-order2", "solve-p", "solve-p-gamma",
)
FAR_SCALED = tuple(name for name in COMMANDS if ".tiny." in name or ".huge." in name)


def write_inputs(directory: Path) -> None:
    for name, text in inputs().items():
        (directory / name).write_bytes(text.encode("utf-8"))


def run(name: str) -> dict[str, bytes | int]:
    """Run one command in the current directory, which holds the inputs.

    Returns its exit code and its stdout, stderr and --out bytes (the last
    only if the command has --out; the file is removed). An exception that
    the CLI does not turn into an exit code is raised.
    """
    out = Path(f"{name}.out")
    result = CliRunner().invoke(cli_main, COMMANDS[name].format(out=out).split())
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    outputs = {"exit": result.exit_code, "stdout": result.stdout_bytes, "stderr": result.stderr_bytes}
    if out.exists():
        outputs["out"] = out.read_bytes()
        out.unlink()
    return outputs


def write_corpus(directory: Path) -> None:
    """Run every command and write its outputs and the manifest to an empty or new directory."""
    directory = directory.resolve()
    if directory.exists() and any(directory.iterdir()):
        raise SystemExit(f"{directory} is not empty")
    directory.mkdir(parents=True, exist_ok=True)
    exits = []
    with tempfile.TemporaryDirectory() as work:
        write_inputs(Path(work))
        cwd = os.getcwd()
        os.chdir(work)
        try:
            for name in COMMANDS:
                outputs = run(name)
                exits.append(f"{name} {outputs.pop('exit')}\n")
                for kind, data in outputs.items():
                    if data or kind == "stdout":
                        (directory / f"{name}.{kind}").write_bytes(data)
        finally:
            os.chdir(cwd)
    (directory / "exit-codes.txt").write_text("".join(exits), encoding="utf-8", newline="\n")
    files = sorted(path.name for path in directory.iterdir())
    manifest = "".join(f"{hashlib.sha256((directory / f).read_bytes()).hexdigest()}  {f}\n" for f in files)
    (directory / "MANIFEST.sha256").write_text(manifest, encoding="utf-8", newline="\n")
    print(f"{len(COMMANDS)} commands, {len(files)} files: {directory / 'MANIFEST.sha256'}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write the identity corpus's outputs and sha256 manifest.")
    parser.add_argument("directory", type=Path, help="an empty or new directory")
    write_corpus(parser.parse_args().directory)
