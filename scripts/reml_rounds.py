#!/usr/bin/env python3
"""Cost of the REML searches on the benchmark's reference inputs.

Runs the exchangeable and the nested REML search on every row (the full
table and its delete-one tables) of the 48 `study_jackknife_i10` and the
8 `analysis_unequal_i28` reference inputs of `bench/workloads.py`, one
call per table and structure, as a benchmark operation does.

The nested search is Nelder-Mead in lockstep under `reml._drive`: each
drive is timed whole, and each of its rounds' deviance calls on its own.
The kernel is `reml._kernel` in its value mode (the map's contraction,
`cholesky_solve` and the profiled likelihood), the bookkeeping is the
rest of the drive (the search generators and `_drive` itself).  A search
asks in one round for the candidates of its iteration and of those it
predicts to follow, so a round advances it by one or more iterations
(SciPy's nit), and it uses the values of only some of the points it asks
(SciPy's nfev, which counts its start and shrink points too); the rest
is waste.  The exchangeable search is timed per stack.  In a separate pass the calls of `reml._kernel` are counted,
with and without derivatives, anywhere in each search and inside
`reml._newton`, whose iterations are its calls with derivatives (one
per iteration), and the time inside `_newton` is taken per stack.
Prints one JSON line with, per workload, the operations, the nested
rounds per operation, points per round, search iterations per round
(summed over the searches of a drive), the share of the points asked
that the searches used, and microseconds per round, total, kernel and
bookkeeping, from the fastest of --passes passes over fresh tables; the
exchangeable kernel calls and microseconds per stack, mean and worst;
and, for each structure, the kernel calls inside `_newton` (value and
derivative, in all and per stack), the Newton iterations per stack, mean
and worst, the microseconds inside `_newton` per stack (fastest pass),
and the rows that end with tau_alpha2 or tau_gamma2 exactly 0.  The
pbcrt under test is the one in this checkout's `src`.

  python scripts/reml_rounds.py --passes 5
"""
import argparse
import dataclasses
import json
import pathlib
import sys
import tempfile
import time
from collections import Counter
from operator import itemgetter

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import pbcrt  # noqa: E402
import pbcrt.reml as reml  # noqa: E402
import workloads  # noqa: E402
from pbcrt import CorrelationStructure, EstimatorKind, FitOptions  # noqa: E402


def reference_tables() -> dict:
    """The cell table of every reference input, by workload."""
    study = workloads.make("study_jackknife_i10", workloads.DATA_SEED)
    analysis = workloads.make("analysis_unequal_i28", workloads.DATA_SEED)
    with tempfile.TemporaryDirectory() as workdir:
        analysis.prepare(pathlib.Path(workdir))
        files = [pbcrt.io.parse_trial_csv(p).cells for p in analysis.paths]
    return {
        "study_jackknife_i10": [
            pbcrt.simulate.generate_cells(study._scenario(j), 0)
            for j in range(study.n_reference)],
        "analysis_unequal_i28": files,
    }


class Clock:
    """Wraps `reml._drive`, adding up drive and deviance time and counts."""

    def __init__(self):
        self.drive_s = self.kernel_s = 0.0
        self.rounds = self.points = self.iterations = self.used = 0
        self._drive = reml._drive

    def drive(self, rows, searches, deviance):
        def timed(at, x):
            t0 = time.perf_counter()
            values = deviance(at, x)
            self.kernel_s += time.perf_counter() - t0
            self.rounds += 1
            self.points += len(at)
            return values

        t0 = time.perf_counter()
        found = self._drive(rows, searches, timed)
        self.drive_s += time.perf_counter() - t0
        self.iterations += sum(nit for _, _, nit, _, _ in found)
        self.used += sum(nfev for _, _, _, nfev, _ in found)
        return found


def fresh(tables):
    """Fresh copies of the tables with their map and keep-mask built, by a
    fit without REML, as in an operation."""
    for cells in tables:
        cells = dataclasses.replace(cells)
        rows = range(cells.n_clusters + 1)
        pbcrt.estimators.fit_rows(cells, (EstimatorKind.IEE,), FitOptions(), rows)
        yield cells, rows


def nested_pass(tables) -> Clock:
    """The nested search on every row of fresh copies of the tables."""
    clock = Clock()
    reml._drive = clock.drive
    try:
        for cells, rows in fresh(tables):
            pbcrt.estimate_variance_components(
                cells, CorrelationStructure.NESTED_EXCHANGEABLE, rows=rows)
    finally:
        reml._drive = clock._drive
    return clock


def exchangeable_pass(tables) -> list:
    """Seconds of the exchangeable search per stack of fresh tables."""
    spent = []
    for cells, rows in fresh(tables):
        t0 = time.perf_counter()
        pbcrt.estimate_variance_components(
            cells, CorrelationStructure.EXCHANGEABLE, rows=rows)
        spent.append(time.perf_counter() - t0)
    return spent


def search_calls(tables, structure) -> tuple[list, float]:
    """Per stack, a Counter of `reml._kernel` calls by mode: "value" (the
    deviance alone), "residual" (dims 0: the checked residual variance) and
    "derivative", anywhere in the search and, prefixed "newton_", inside
    `reml._newton`, and of the rows that end with tau_alpha2 or tau_gamma2
    exactly 0; and the seconds spent inside `_newton`, in all."""
    calls, inside, spent = Counter(), [False], [0.0]
    kernel, newton = reml._kernel, reml._newton

    def counted(cells, rows, tw, tb, dims=None):
        mode = "value" if dims is None else "derivative" if dims else "residual"
        calls[mode] += 1
        calls["newton_" + mode] += inside[0]
        return kernel(cells, rows, tw, tb, dims)

    def polish(*args, **kwargs):
        inside[0] = True
        t0 = time.perf_counter()
        try:
            return newton(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - t0
            inside[0] = False

    per_stack = []
    try:
        reml._newton, reml._kernel = polish, counted
        for cells, rows in fresh(tables):
            calls.clear()
            for vc, _ in pbcrt.estimate_variance_components(cells, structure, rows=rows):
                calls["zero_tau_alpha2"] += vc.tau_alpha2 == 0.0
                calls["zero_tau_gamma2"] += vc.tau_gamma2 == 0.0
            per_stack.append(calls.copy())
    finally:
        reml._newton, reml._kernel = newton, kernel
    return per_stack, spent[0]


def newton_calls(per_stack) -> dict:
    """Kernel calls inside `reml._newton`, in all and per stack, and its
    iterations per stack, mean and worst."""
    out = {}
    for mode in ("value", "derivative"):
        total = sum(c["newton_" + mode] for c in per_stack)
        out[mode] = total
        out[mode + "_per_stack"] = round(total / len(per_stack), 1)
    out["iterations_worst"] = max(c["newton_derivative"] for c in per_stack)
    return out


def zero_rows(per_stack) -> dict:
    """Rows, over all stacks, that end with each component exactly 0."""
    return {name: sum(c["zero_" + name] for c in per_stack)
            for name in ("tau_alpha2", "tau_gamma2")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--passes", type=int, default=5)
    args = ap.parse_args(argv)
    out = {}
    for name, tables in reference_tables().items():
        best = min((nested_pass(tables) for _ in range(args.passes)),
                   key=lambda c: c.drive_s)
        us = 1e6 / best.rounds
        stack_s = min((exchangeable_pass(tables) for _ in range(args.passes)),
                      key=sum)
        calls, exch_s = min((search_calls(tables, CorrelationStructure.EXCHANGEABLE)
                             for _ in range(args.passes)), key=itemgetter(1))
        nested, nested_s = min((search_calls(tables, CorrelationStructure.NESTED_EXCHANGEABLE)
                                for _ in range(args.passes)), key=itemgetter(1))
        kernel = [c["value"] + c["residual"] + c["derivative"] for c in calls]
        out[name] = {
            "ops": len(tables),
            "nested_rounds_per_op": round(best.rounds / len(tables), 1),
            "points_per_round": round(best.points / best.rounds, 1),
            "iterations_per_round": round(best.iterations / best.rounds, 2),
            "used_share": round(best.used / best.points, 3),
            "us_per_round": round(best.drive_s * us, 1),
            "kernel_us_per_round": round(best.kernel_s * us, 1),
            "bookkeeping_us_per_round": round((best.drive_s - best.kernel_s) * us, 1),
            "exchangeable_kernel_calls_per_stack": round(sum(kernel) / len(kernel), 1),
            "exchangeable_kernel_calls_worst": max(kernel),
            "exchangeable_us_per_stack": round(1e6 * sum(stack_s) / len(stack_s), 1),
            "exchangeable_us_worst": round(1e6 * max(stack_s), 1),
            "exchangeable_newton_calls": newton_calls(calls),
            "nested_newton_calls": newton_calls(nested),
            "exchangeable_newton_us_per_stack": round(1e6 * exch_s / len(tables), 1),
            "nested_newton_us_per_stack": round(1e6 * nested_s / len(tables), 1),
            "exchangeable_zero_rows": zero_rows(calls),
            "nested_zero_rows": zero_rows(nested),
        }
    out["passes"] = args.passes
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
