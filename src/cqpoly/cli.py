"""Command line interface.

Subcommands cover the four solver entry points and the probability probe:

    cqpoly solve-f     maximize a multilinear form read from a tensor file
    cqpoly solve-p     maximize a homogeneous polynomial from a poly file
    cqpoly rank-one    best rank-one approximation of a tensor file
    cqpoly experiment  ratio sweep on the all-ones benchmark instance
    cqpoly prob-check  Monte Carlo probe of the sphere tail probability

Outputs written with --out are byte-reproducible for a fixed command line
and seed; a timestamp comment is prepended unless --deterministic is given.
With --gamma, solve-f and solve-p also print the paper's ratio formula, which
the CLI computes from the instance's shape before solving; the report CSV
keeps its upper_bound column, always empty, for format stability.

Errors: an OSError, ValueError or MemoryError raised anywhere in a command
ends it with one line, ``Error: <message>``, and exit code 1; usage errors exit 2.
"""

from __future__ import annotations

import os
from dataclasses import astuple, fields
from pathlib import Path

import click

from .experiment import ExperimentConfig, render_csv, render_markdown, run_experiment, summarize
from .forms import MultilinearForm
from .io import csv_text, read_poly, read_tensor, write_text
from .linalg import CQVector
from .problab import ProbeResult, estimate_tail_prob
from .solvers import (
    SolveReport, best_rank_one, estimate_ball_min, form_ratio_bound, maximize_form, maximize_poly, poly_ratio_bound,
)

REPORT_CSV_HEADER = "objective,trials,best_trial,seed,gamma,theoretical_ratio,upper_bound,degenerate"
PROB_CSV_HEADER = ",".join(field.name for field in fields(ProbeResult))


class _Commands(click.Group):
    """The error boundary of every command (see the module docstring)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # click itself exits quietly when stdout is closed
        except (OSError, ValueError, MemoryError) as exc:
            raise click.ClickException(str(exc)) from exc


def _echo_vector(label: str, vec: CQVector) -> None:
    rendered = ", ".join(str(q) for q in vec.quats())
    click.echo(f"{label}: ({rendered})")


def _echo_report(report: SolveReport, ratio: float | None) -> None:
    click.echo(f"objective: {report.objective!r}")
    click.echo(f"trials: {report.trials}")
    click.echo(f"best trial: {report.best_trial}")
    click.echo(f"seed: {report.seed}")
    if ratio is not None:
        click.echo(f"theoretical ratio: {ratio!r}")
    if report.degenerate:
        click.echo("degenerate: true")
    for k, vec in enumerate(report.solution, start=1):
        _echo_vector(f"solution[{k}]", vec)


def _report_csv(report: SolveReport, gamma: float | None, ratio: float | None, deterministic: bool) -> str:
    row = (
        report.objective, report.trials, report.best_trial, report.seed,
        gamma, ratio, None, report.degenerate,
    )
    return csv_text(REPORT_CSV_HEADER, [row], deterministic)


@click.group(cls=_Commands)
def main():
    """Sphere-constrained optimization over commutative quaternions."""


@main.command("solve-f")
@click.option("--tensor", "tensor_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--trials", default=100, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=42, show_default=True, type=click.IntRange(min=0))
@click.option("--gamma", default=None, type=float, help="Attach the reported ratio formula.")
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
@click.option("--deterministic", is_flag=True, help="Suppress the timestamp header in --out files.")
def solve_f(tensor_path, trials, seed, gamma, out_path, deterministic):
    """Maximize Re F(x1, ..., xd) over unit spheres for a tensor file."""
    form = MultilinearForm(read_tensor(tensor_path))
    ratio = form_ratio_bound(form.dims, gamma) if gamma is not None else None
    report = maximize_form(form, trials, seed)
    _echo_report(report, ratio)
    if out_path:
        write_text(out_path, _report_csv(report, gamma, ratio, deterministic))


@main.command("solve-p")
@click.option("--poly", "poly_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--trials", default=100, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=42, show_default=True, type=click.IntRange(min=0))
@click.option("--gamma", default=None, type=float, help="Attach the reported ratio formula.")
@click.option("--estimate-min", is_flag=True, help="Also print an upper estimate of the ball minimum.")
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
@click.option("--deterministic", is_flag=True)
def solve_p(poly_path, trials, seed, gamma, estimate_min, out_path, deterministic):
    """Maximize Re H(x) over the unit sphere for a polynomial file."""
    poly = read_poly(poly_path)
    ratio = poly_ratio_bound(poly.degree, poly.dim, gamma) if gamma is not None else None
    report = maximize_poly(poly, trials, seed)
    _echo_report(report, ratio)
    if estimate_min:
        click.echo(f"ball minimum upper estimate: {estimate_ball_min(poly, trials, seed)!r}")
    if out_path:
        write_text(out_path, _report_csv(report, gamma, ratio, deterministic))


@main.command("rank-one")
@click.option("--tensor", "tensor_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--trials", default=100, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=42, show_default=True, type=click.IntRange(min=0))
def rank_one(tensor_path, trials, seed):
    """Best rank-one approximation of a tensor file."""
    result = best_rank_one(read_tensor(tensor_path), trials, seed)
    click.echo(f"lambda: {result.lam!r}")
    click.echo(f"residual (norm formula): {result.residual!r}")
    click.echo(f"residual (direct): {result.direct_residual!r}")
    click.echo(f"squared-identity gap: {result.identity_gap!r}")
    click.echo(f"trials: {result.trials}")
    click.echo(f"best trial: {result.best_trial}")
    for k, vec in enumerate(result.factors, start=1):
        _echo_vector(f"factor[{k}]", vec)


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise click.ClickException(f"could not parse {what}: {text!r}") from None


@main.command("experiment")
@click.option("--n-list", default="2,3,4,5,6,7", show_default=True)
@click.option("--trial-schedule", default="1,5,10,20,50,100,500,1000,10000", show_default=True)
@click.option("--runs", default=20, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=42, show_default=True, type=click.IntRange(min=0))
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
@click.option("--format", "fmt", default="csv", show_default=True, type=click.Choice(["csv", "markdown"]))
@click.option("--deterministic", is_flag=True)
def experiment(n_list, trial_schedule, runs, seed, out_path, fmt, deterministic):
    """Ratio sweep against the all-ones bound 2 n^(3/2), loose by sqrt(2): ratios stay <= 0.707."""
    config = ExperimentConfig(
        n_list=_parse_int_list(n_list, "--n-list"),
        trial_schedule=_parse_int_list(trial_schedule, "--trial-schedule"),
        runs=runs,
        seed=seed,
        deterministic=deterministic,
    )
    created = bool(out_path) and not os.path.lexists(out_path)
    if out_path:
        open(out_path, "a", encoding="utf-8").close()  # an unwritable path fails now, not after the sweep
    try:
        rows = run_experiment(config)
        rendered = render_csv(rows, deterministic) if fmt == "csv" else render_markdown(rows, config)
        if out_path:
            write_text(out_path, rendered)
    except BaseException:
        if created:
            Path(out_path).unlink(missing_ok=True)
        raise
    if out_path:
        stats = summarize(rows)
        last = max(config.trial_schedule)
        for n in config.n_list:
            avg, worst = stats[(n, last)]
            click.echo(f"n={n} trials={last}: average ratio {avg:.4f}, worst ratio {worst:.4f}")
        click.echo(f"wrote {out_path}")
    else:
        click.echo(rendered, nl=False)


@main.command("prob-check")
@click.option("--n", required=True, type=click.IntRange(min=2))
@click.option("--gamma", required=True, type=float)
@click.option("--delta", default=None, type=float)
@click.option("--samples", default=100000, show_default=True, type=click.IntRange(min=1000))
@click.option("--seed", default=42, show_default=True, type=click.IntRange(min=0))
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
@click.option("--deterministic", is_flag=True)
def prob_check(n, gamma, delta, samples, seed, out_path, deterministic):
    """Estimate the sphere tail probability and report the bound curves."""
    probe = estimate_tail_prob(n, gamma, samples, seed, delta=delta)
    rendered = csv_text(PROB_CSV_HEADER, [astuple(probe)], deterministic)
    if out_path:
        write_text(out_path, rendered)
        click.echo(f"empirical probability: {probe.empirical_prob!r}")
        click.echo(f"wrote {out_path}")
    else:
        click.echo(rendered, nl=False)


if __name__ == "__main__":
    main()
