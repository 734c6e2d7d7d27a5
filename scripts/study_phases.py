#!/usr/bin/env python3
"""Cost of one `run_study` replicate, phase by phase, on the benchmark's
reference inputs.

Runs `run_study` on the one-replicate scenarios of the
`study_plugin_i400` (320) and `study_jackknife_i10` (48) reference
operations of `bench/workloads.py`, as a benchmark operation does, with
`simulate.generate_cells` and `simulate.fit_kinds` timed as they are
called.  A replicate's time splits into generating its cell table, fitting
every kind on it (with the jackknife where the scenario asks for one) and
summarising, the rest of `run_study`.  Each pass runs every operation of
both workloads once, in alternating order from pass to pass, after one
untimed operation per workload.  Prints one JSON line with, per workload,
the operations and the median over the passes of the milliseconds per
operation, total and by phase.  The pbcrt under test is the one in this
checkout's `src`.

  python scripts/study_phases.py --passes 5
"""
import argparse
import json
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import pbcrt.simulate as simulate  # noqa: E402
import workloads  # noqa: E402

PHASES = {"generate": "generate_cells", "fit": "fit_kinds"}


def timed_pass(wl, scenarios) -> dict:
    """Milliseconds per operation over the scenarios: total and by phase."""
    spent = dict.fromkeys(PHASES, 0.0)
    originals = {phase: getattr(simulate, name) for phase, name in PHASES.items()}

    def timer(phase, fn):
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[phase] += time.perf_counter() - t0
        return run

    try:
        for phase, fn in originals.items():
            setattr(simulate, PHASES[phase], timer(phase, fn))
        t0 = time.perf_counter()
        for sc in scenarios:
            simulate.run_study(sc, wl.options)
        total = time.perf_counter() - t0
    finally:
        for phase, fn in originals.items():
            setattr(simulate, PHASES[phase], fn)
    ms = 1e3 / len(scenarios)
    return {"total": total * ms, **{p: s * ms for p, s in spent.items()},
            "summarise": (total - sum(spent.values())) * ms}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--passes", type=int, default=5)
    args = ap.parse_args(argv)
    runs = {}
    for name in ("study_plugin_i400", "study_jackknife_i10"):
        wl = workloads.make(name, workloads.DATA_SEED)
        scenarios = [wl._scenario(j) for j in range(wl.n_reference)]
        simulate.run_study(scenarios[0], wl.options)  # warm-up, untimed
        runs[name] = (wl, scenarios, [])
    for i in range(args.passes):
        for wl, scenarios, passes in list(runs.values())[::1 - 2 * (i % 2)]:
            passes.append(timed_pass(wl, scenarios))
    out = {name: {"ops": len(scenarios),
                  **{f"{phase}_ms_per_op": round(statistics.median(
                      p[phase] for p in passes), 4) for phase in passes[0]}}
           for name, (wl, scenarios, passes) in runs.items()}
    out["passes"] = args.passes
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
