#!/usr/bin/env python3
"""pbcrt benchmark: closed-loop replicate throughput with checked outputs.

One caller runs one workload in this process; the next operation starts
when the previous one ends.  The program under test is imported from the
``src`` directory next to this one, never from an installed copy.

  python3 bench/run.py --workload study_jackknife_i10 --seed 20260823 \\
      --seconds 30 --trace 0
  python3 bench/run.py --workload all            # every workload, both modes
  python3 bench/run.py --workload all --record bench/results/baseline.json
  python3 bench/run.py --write-reference         # regenerate reference.json

With --trace 0 the last line of output reports the end-to-end metrics;
with --trace 1 it reports the per-layer metrics of a traced run (see
README.md for every metric, its unit and its meaning).
"""
import time

T_START = time.perf_counter()

import os  # noqa: E402

# Pin BLAS and OpenMP pools before numpy is imported: the benchmark
# measures one single-threaded caller.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
WORKDIR = ROOT / ".bench_work"
DEFAULT_SEED = 20260823
SETUP_REPS = 3       # set-ups per run; setup_s reports their median
TAIL_BEYOND = 10     # ops that must lie above the reported tail percentile
CHILD_TIMEOUT_S = 600  # limit on each run that --workload all starts
# Calibration-kernel time that defines the reference machine speed of the
# *_adj metrics: about its median on the 2-core Xeon of the baseline.
KERNEL_REF_S = 0.0019
PROBE_S = 0.2        # seconds between machine-speed samples


def load_program():
    """Import pbcrt from SRC and the workload definitions; exit 2 if absent."""
    if not (SRC / "pbcrt" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no pbcrt sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    try:
        import pbcrt
        import workloads
    except ImportError as exc:
        sys.stderr.write(f"bench: cannot import pbcrt or the workloads: "
                         f"{exc}\n")
        sys.exit(2)
    if SRC not in pathlib.Path(pbcrt.__file__).resolve().parents:
        sys.stderr.write(f"bench: pbcrt imported from {pbcrt.__file__}, "
                         f"not from {SRC}\n")
        sys.exit(2)
    return workloads


# -- output check ------------------------------------------------------------

def _mismatch(got, want, tolerance) -> str | None:
    """Description of the first difference beyond tolerance, or None."""
    if set(got) != set(want):
        return f"kinds {sorted(got)} != {sorted(want)}"
    for kind, want_vals in want.items():
        tol = tolerance(kind)
        for label, a, b in zip(("delta", "model_var", "jack_var"),
                               got[kind], want_vals):
            if (a is None) != (b is None):
                return f"{kind} {label}: {a!r} vs {b!r}"
            if a is not None and not abs(a - b) <= tol * max(1.0, abs(b)):
                return f"{kind} {label}: {a!r} vs {b!r} (tol {tol:g})"
    return None


def check_outputs(wl, ops) -> dict[int, str]:
    """Failed op positions with reasons.

    When the inputs come from the reference seed, every op whose input is
    stored is compared with the stored outputs.  On every seed the first
    and last ops are also recomputed through the direct
    generate_trial/fit/jackknife_variance path.
    """
    stored = {}
    if REFERENCE.is_file():
        doc = json.loads(REFERENCE.read_text())
        if wl.data_seed == doc["seed"]:
            stored = doc["workloads"].get(wl.name, {})
    direct = {}
    sample = {ops[0][0], ops[-1][0]} if ops else set()
    failed = {}
    for pos, (j, _, _, out, err) in enumerate(ops):
        if err is not None:
            failed[pos] = err
            continue
        key = str(wl.input_index(j))
        wants = []
        if key in stored:
            wants.append(("reference", {k: tuple(v) for k, v
                                        in stored[key].items()}))
        if j in sample:
            if key not in direct:
                direct[key] = wl.direct(j)
            wants.append(("direct path", direct[key]))
        for source, want in wants:
            why = _mismatch(out, want, wl.tolerance)
            if why:
                failed[pos] = f"op {j} differs from {source}: {why}"
                break
    return failed


# -- timing ------------------------------------------------------------------

def timed_op(wl, j, runner=None):
    """(j, start, seconds, outputs or None, error or None) of one operation."""
    t0 = time.perf_counter()
    try:
        out = runner(j, wl.op, j) if runner else wl.op(j)
        err = None
    except Exception as exc:  # a failed op is counted, not fatal
        out, err = None, f"op {j} raised {type(exc).__name__}: {exc}"
    return j, t0, time.perf_counter() - t0, out, err


def setup(wl, workdir):
    """Generate inputs and run one warm-up op; return (start, seconds)."""
    t0 = time.perf_counter()
    wl.prepare(workdir)
    err = timed_op(wl, 0)[4]
    if err:
        raise RuntimeError(f"warm-up failed: {err}")
    return t0, time.perf_counter() - t0


def tail(times_ms):
    """(value, percentile, n): the highest percentile with TAIL_BEYOND ops above."""
    xs = sorted(times_ms)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def calibrate() -> float:
    """Seconds taken by a fixed interpreter-and-numpy kernel."""
    import numpy as np
    t0 = time.perf_counter()
    s = 0.0
    for i in range(12_000):
        s += i * 0.5
    a = np.arange(500.0)
    for _ in range(120):
        s += float(np.sum(a * a))
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the machine's speed every PROBE_S seconds, also inside ops.

    The speed of this host drifts by tens of percent over seconds to
    minutes as neighbours load the cores and caches it shares.  A timer
    signal runs the calibration kernel between bytecodes of whatever is
    executing, so every op, long or short, has samples of the speed at
    which it ran.  The *_adj metrics scale each op to the reference speed
    KERNEL_REF_S, and sample time is subtracted from the op it fell in.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)

    def _sample(self, *_):
        self.samples.append((time.perf_counter(), calibrate()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_S, PROBE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, start, seconds):
        """(seconds net of samples, the same at reference speed) of a span."""
        inside = [k for t, k in self.samples if start <= t < start + seconds]
        net = seconds - sum(inside)
        if inside:
            kernel = statistics.mean(inside)
        else:
            mid = start + seconds / 2.0
            kernel = min(self.samples, key=lambda s: abs(s[0] - mid))[1]
        return net, net * KERNEL_REF_S / kernel


def run_untraced(wl, seconds):
    ops = []
    t0 = time.perf_counter()
    j = 1
    while True:
        ops.append(timed_op(wl, j))
        j += 1
        if time.perf_counter() - t0 >= seconds:
            break
    return ops


def run_traced(wl, seconds, tracer):
    """Alternate untraced and traced cycles over the same ops 1..K.

    Every cycle repeats the same inputs, so per-op counts are exact and
    the untraced cycles give the throughput the tracing overhead is
    measured against.
    """
    cycle = range(1, wl.trace_cycle + 1)
    ops, spent = [], {False: 0.0, True: 0.0}
    n_ops = {False: 0, True: 0}
    t0 = time.perf_counter()
    traced = False
    while True:
        if traced:
            tracer.install()
        try:
            for j in cycle:
                op = timed_op(wl, j, tracer.op if traced else None)
                ops.append(op)
                spent[traced] += op[2]
                n_ops[traced] += 1
        finally:
            tracer.uninstall()
        if traced and time.perf_counter() - t0 >= seconds:
            break
        traced = not traced
    return ops, spent, n_ops


# -- metrics -----------------------------------------------------------------

def end_to_end(ops, setups, import_s, probe):
    """Bounded metrics, and the wall-clock values they adjust, as report lines."""
    timed = [probe.window(start, dt) for _, start, dt, _, _ in ops]
    ms = [1000.0 * net for net, _ in timed]
    adj = [1000.0 * ref for _, ref in timed]
    n = len(ms)
    spans = [probe.window(start, dt) for start, dt in setups]
    setup_s = import_s + statistics.median(net for net, _ in spans)
    setup_speed = sum(net for net, _ in spans) / sum(ref for _, ref in spans)
    tail_ms, tail_pct, _ = tail(ms)
    metrics = {
        "throughput_ops_per_s_adj": (1000.0 * n / sum(adj), "1/s"),
        "op_ms_p50_adj": (statistics.median(adj), "ms"),
        "op_ms_tail_adj": (tail(adj)[0], "ms"),
        "setup_s": (setup_s / setup_speed, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    raw = [("throughput_ops_per_s", 1000.0 * n / sum(ms), "1/s",
            f"{n} ops in {sum(ms) / 1000.0:.2f} s"),
           ("op_ms_p50", statistics.median(ms), "ms", ""),
           ("op_ms_tail", tail_ms, "ms",
            f"p{tail_pct:.1f} of {n} ops, {TAIL_BEYOND} above"),
           ("setup_s unadjusted", setup_s, "s",
            f"import {import_s:.3f} s + median of {SETUP_REPS} set-ups")]
    lines = [f"  {name:40s} {v:14.6g} {unit:10s} {note}"
             for name, v, unit, note in raw]
    lines.append(f"  machine speed {sum(adj) / sum(ms):.4f} x reference, "
                 f"{len(probe.samples)} calibration samples")
    return metrics, lines


def per_layer(tracer, spent, n_ops):
    from tracer import ROOT_SPAN, layer_names
    tot = tracer.totals()
    n = n_ops[True]
    metrics, notes = {}, {}
    for layer in layer_names(tracer.layers):
        metrics[f"{layer}.calls"] = (tot["calls"].get(layer, 0) / n, "calls/op")
        metrics[f"{layer}.self_ms"] = (
            1000.0 * tot["self_s"].get(layer, 0.0) / n, "ms/op")
        if layer in tracer.absent:
            notes[f"{layer}.calls"] = notes[f"{layer}.self_ms"] = "absent"
    reml_calls = (tot["calls"].get("reml.exchangeable", 0)
                  + tot["calls"].get("reml.nested", 0))
    metrics["trial.records_indexed"] = (tot["records"] / n, "records/op")
    metrics["reml.evals_per_call"] = (
        tot["reml_evals"] / reml_calls if reml_calls else 0.0, "evals/call")
    metrics["op.orchestration_ms"] = (
        1000.0 * tot["self_s"].get(ROOT_SPAN, 0.0) / n, "ms/op")
    metrics["op.traced_ms"] = (1000.0 * tot["root_s"] / n, "ms/op")
    untraced = n_ops[False] / spent[False]
    traced = n / spent[True]
    metrics["trace.untraced_ops_per_s"] = (untraced, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (untraced / traced - 1.0), "%")
    self_sum = sum(tot["self_s"].values())
    gap = abs(self_sum - tot["root_s"]) / tot["root_s"]
    notes["op.traced_ms"] = (f"layer self times + orchestration = "
                             f"{1000.0 * self_sum / n:.6f} ms/op")
    return metrics, notes, gap < 1e-9


def emit(header, metrics, notes, failed, attempted, correct):
    for line in header:
        print(line)
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:40s} {value:14.6g} {unit:10s} {note}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def run_one(args) -> int:
    workloads = load_program()
    import_s = time.perf_counter() - T_START
    wl = workloads.make(args.workload, args.seed)
    workdir = WORKDIR / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    header = [f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  "
              f"trace {args.trace}", f"  why: {wl.why}"]
    try:
        if args.trace:
            from tracer import Tracer
            for _ in range(SETUP_REPS):
                setup(wl, workdir)
            tracer = Tracer()
            ops, spent, n_ops = run_traced(wl, args.seconds, tracer)
            if args.spans:
                tracer.write(args.spans)
            metrics, notes, sums_ok = per_layer(tracer, spent, n_ops)
            failed = check_outputs(wl, ops)
        else:
            # Only untraced runs probe the speed: samples would land in spans.
            with SpeedProbe() as probe:
                setups = [setup(wl, workdir) for _ in range(SETUP_REPS)]
                ops = run_untraced(wl, args.seconds)
            failed = check_outputs(wl, ops)
            metrics, lines = end_to_end(ops, setups, import_s, probe)
            notes, sums_ok = {}, True
            header += lines + [
                f"  {'failed_ops_frac':40s} {len(failed) / len(ops):14.6g} "
                f"{'fraction':10s} {len(failed)} of {len(ops)} ops"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    for reason in list(failed.values())[:5]:
        sys.stderr.write(f"bench: {reason}\n")
    if not sums_ok:
        sys.stderr.write("bench: span self times do not sum to op time\n")
    emit(header, metrics, notes, len(failed), len(ops),
         correct=not failed and sums_ok)
    return 0


# -- all workloads -----------------------------------------------------------

def machine() -> dict:
    import numpy
    import scipy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "processor": platform.processor(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": sha}


def run_all(args) -> int:
    results = {}
    for name in NAMES:
        results[name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                sys.stderr.write(f"bench: {name} trace {trace} exited "
                                 f"{proc.returncode}\n")
                return 1
            results[name][f"trace{trace}"] = json.loads(lines[-1])
    doc = {"seed": args.seed, "seconds": args.seconds, "results": results}
    if args.record:
        load_program()
        doc["machine"] = machine()
        pathlib.Path(args.record).write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc))
    return 0


def write_reference() -> int:
    workloads = load_program()
    doc = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in NAMES:
        wl = workloads.make(name, DEFAULT_SEED)
        workdir = WORKDIR / f"{name}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            wl.prepare(workdir)
            doc["workloads"][name] = {
                str(wl.input_index(j)): {k: list(v) for k, v
                                         in wl.direct(j).items()}
                for j in range(wl.n_reference)}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    WORKDIR.rmdir()
    REFERENCE.write_text(json.dumps(doc, indent=0) + "\n")
    return 0


NAMES = ("study_jackknife_i10", "study_plugin_i400", "analysis_unequal_i28")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="with --trace 1, write every span here "
                    "as JSON lines")
    ap.add_argument("--record", help="with --workload all, also write the "
                    "results and machine details to this file")
    ap.add_argument("--write-reference", action="store_true",
                    help=f"store direct-path outputs of seed {DEFAULT_SEED}")
    args = ap.parse_args(argv)
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    # Exit through the cleanup of run_one when terminated.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
