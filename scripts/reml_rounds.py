#!/usr/bin/env python3
"""Cost of the REML searches on the benchmark's reference inputs.

Runs the exchangeable and the nested REML search on every row (the full
table and its delete-one tables) of the 48 `study_jackknife_i10` and the
8 `analysis_unequal_i28` reference inputs of `bench/workloads.py`, one
call per table and structure, as a benchmark operation does.

The nested search is Nelder-Mead in lockstep under `reml._drive`: each
drive is timed whole, and each of its rounds' deviance calls on its own.
The kernel is the deviance (`normal_equations`, `cholesky_solve` and the
profiled likelihood), the bookkeeping is the rest of the drive (the
search generators and `_drive` itself).  A search asks in one round for
the candidates of its iteration and of those it predicts to follow, so
a round advances it by one or more iterations (SciPy's nit), and it uses
the values of only some of the points it asks (SciPy's nfev, which
counts its start and shrink points too); the rest is waste.  The exchangeable search is timed
per stack, with its calls of the deviance and gradient kernels
(`reml._deviance`, `reml._gradient`) counted in a separate pass, as are
the calls that each search makes inside `reml._newton`.  Prints one JSON
line with, per workload, the operations, the nested rounds per
operation, points per round, search iterations per round (summed over
the searches of a drive), the share of the points asked that the
searches used, and microseconds per round, total, kernel and
bookkeeping, from the fastest of --passes passes over fresh tables;
the exchangeable kernel calls and microseconds per stack, mean and
worst; and, for each structure, the kernel calls inside `_newton`, in
all and per stack, and the rows that end with tau_alpha2 or tau_gamma2
exactly 0.  The pbcrt under test is the one in this checkout's `src`.

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


def search_calls(tables, structure) -> list:
    """Kernel calls per stack, as a Counter: of the deviance and of the
    gradient ("_deviance", "_gradient"), whose own deviance call is not
    counted, made inside `reml._newton` and anywhere in the search, and
    the rows that end with tau_alpha2 or tau_gamma2 exactly 0."""
    calls, depth, inside = Counter(), [0], [False]
    kernels = {name: getattr(reml, name) for name in ("_deviance", "_gradient")}
    newton = reml._newton

    def counted(name, kernel):
        def run(*args, **kwargs):
            if not depth[0]:
                calls[name] += 1
                calls["newton" + name] += inside[0]
            depth[0] += 1
            try:
                return kernel(*args, **kwargs)
            finally:
                depth[0] -= 1
        return run

    def polish(*args, **kwargs):
        inside[0] = True
        try:
            return newton(*args, **kwargs)
        finally:
            inside[0] = False

    per_stack = []
    try:
        reml._newton = polish
        for name, kernel in kernels.items():
            setattr(reml, name, counted(name, kernel))
        for cells, rows in fresh(tables):
            calls.clear()
            for vc, _ in pbcrt.estimate_variance_components(cells, structure, rows=rows):
                calls["zero_tau_alpha2"] += vc.tau_alpha2 == 0.0
                calls["zero_tau_gamma2"] += vc.tau_gamma2 == 0.0
            per_stack.append(calls.copy())
    finally:
        reml._newton = newton
        for name, kernel in kernels.items():
            setattr(reml, name, kernel)
    return per_stack


def newton_calls(per_stack) -> dict:
    """Calls of each kernel inside `reml._newton`, in all and per stack."""
    out = {}
    for name in ("_deviance", "_gradient"):
        total = sum(c["newton" + name] for c in per_stack)
        out[name.lstrip("_")] = total
        out[name.lstrip("_") + "_per_stack"] = round(total / len(per_stack), 1)
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
        calls = search_calls(tables, CorrelationStructure.EXCHANGEABLE)
        kernel = [c["_deviance"] + c["_gradient"] for c in calls]
        nested = search_calls(tables, CorrelationStructure.NESTED_EXCHANGEABLE)
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
            "exchangeable_zero_rows": zero_rows(calls),
            "nested_zero_rows": zero_rows(nested),
        }
    out["passes"] = args.passes
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
