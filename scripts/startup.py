#!/usr/bin/env python3
"""Start-up cost of pbcrt: its import and one `pbcrt fit` per estimator.

For the pbcrt in this checkout's `src`, runs --runs fresh interpreters
of each of these and prints one JSON line of their medians:

- `import pbcrt, pbcrt.cli, pbcrt.io`: the wall time of the import
  inside the interpreter, the modules then loaded, and the peak RSS
  after it (`ru_maxrss`);
- `pbcrt fit FILE --estimator K --variance both` for iee, eme, neme and
  fe: the wall time of the whole process, interpreter start included.

FILE is a JIAH-size trial (28 clusters with the bundled cluster-period
sizes): input 0 of the `analysis_unequal_i28` benchmark workload of
`bench/workloads.py`, drawn as that workload draws it.  Each run makes
the import, then the four fits.

  python scripts/startup.py --runs 5
"""
import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
KINDS = ("iee", "eme", "neme", "fe")
IMPORT = """import resource, sys, time
t0 = time.perf_counter()
import pbcrt, pbcrt.cli, pbcrt.io
t1 = time.perf_counter()
print(t1 - t0, len(sys.modules),
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""


def draw_file(path: pathlib.Path) -> None:
    """Write the workload's input file 0 to `path`."""
    code = ("import pathlib, sys; sys.path[:0] = sys.argv[1:3]\n"
            "import pbcrt.io, workloads\n"
            "wl = workloads.make('analysis_unequal_i28', workloads.DATA_SEED)\n"
            "pbcrt.io.emit_trial_csv(wl._draw(0), sys.argv[3])\n")
    subprocess.run([sys.executable, "-c", code, str(ROOT / "src"),
                    str(ROOT / "bench"), str(path)], check=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5)
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    imports, fits = [], {k: [] for k in KINDS}
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "trial.csv"
        draw_file(path)
        for _ in range(args.runs):
            out = subprocess.run([sys.executable, "-c", IMPORT], env=env,
                                 check=True, capture_output=True, text=True)
            imports.append([float(v) for v in out.stdout.split()])
            for kind in KINDS:
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-m", "pbcrt.cli", "fit",
                                str(path), "--estimator", kind,
                                "--variance", "both"], env=env, check=True,
                               capture_output=True)
                fits[kind].append(time.perf_counter() - t0)
    import_s, modules, rss_mb = (statistics.median(col) for col in zip(*imports))
    print(json.dumps({
        "runs": args.runs,
        "import_s": round(import_s, 4), "modules": int(modules),
        "rss_mb_after_import": round(rss_mb, 1),
        "fit_both_s": {k: round(statistics.median(v), 4)
                       for k, v in fits.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
