"""Command-line front end: simulate, fit, limits, weights."""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__
from .estimands import (
    PopulationMixture,
    estimand_weights,
    optimal_icc,
    optimal_sampling_prob,
    plim,
    true_cate,
    true_pate,
)
from .estimators import EstimationError, EstimatorKind
from .inference import _df, confidence_interval, fit_with_inference, wald_test
from .io import load_scenario_json, parse_trial_csv
from .simulate import StudyError, run_study
from .trial import TrialValidationError, VarianceComponents

_EXIT_OK = 0
_EXIT_VALIDATION = 1
_EXIT_ESTIMATION = 2


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _parse_subpop(text: str):
    # p,K,delta with K either a size or k0:k1
    try:
        p_s, k_s, d_s = text.split(",")
        k = tuple(int(t) for t in k_s.split(":")) if ":" in k_s else int(k_s)
        return float(p_s), k, float(d_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected p,K,delta (K may be k0:k1), got {text!r}") from exc


def _vc_from_args(args) -> VarianceComponents:
    return VarianceComponents(sigma_w2=args.sigma_w2,
                              tau_alpha2=args.tau_alpha2,
                              tau_gamma2=args.tau_gamma2)


def _add_vc_flags(p: argparse.ArgumentParser):
    p.add_argument("--sigma-w2", type=float, default=1.0, dest="sigma_w2")
    p.add_argument("--tau-alpha2", type=float, default=0.0, dest="tau_alpha2")
    p.add_argument("--tau-gamma2", type=float, default=0.0, dest="tau_gamma2")


def _cmd_simulate(args) -> int:
    scenario = load_scenario_json(args.config)
    if args.seed is not None:
        from dataclasses import replace
        scenario = replace(scenario, master_seed=args.seed)
    report = run_study(scenario)
    report.write_csv(args.csv)
    report.write_json(args.json)
    print(f"pATE {_fmt(report.pate)}  cATE {_fmt(report.cate)}")
    for s in report.summaries:
        print(f"{s.estimator.value:6s} mean {_fmt(s.mean_estimate)}  "
              f"rel bias vs pATE {_fmt(s.rel_bias_pate_pct)}%  "
              f"vs cATE {_fmt(s.rel_bias_cate_pct)}%  "
              f"failures {s.n_failures}")
    print(f"wrote {args.csv} and {args.json}")
    return _EXIT_OK


def _cmd_fit(args) -> int:
    if not 0.0 < args.level < 1.0:
        raise ValueError(f"--level must lie in (0, 1), got {args.level!r}")
    cells = parse_trial_csv(args.trial).cells
    _df(cells.n_clusters)  # t inference needs I >= 3, checked before any fit
    kind = EstimatorKind(args.estimator)
    result = fit_with_inference(cells, kind,
                                jackknife=args.variance != "model")
    if not result.converged:
        print("warning: REML did not converge in the fit or a jackknife "
              "refit", file=sys.stderr)
    out = {"estimator": kind.value, "delta_hat": result.delta_hat,
           "n_clusters": cells.n_clusters, "level": args.level,
           "converged": result.converged}
    print(f"estimator {kind.value}  clusters {cells.n_clusters}")
    print(f"delta_hat {_fmt(result.delta_hat)}")
    variances = {"model": result.model_based_var,
                 "jackknife": result.jackknife_var}
    for name in variances if args.variance == "both" else [args.variance]:
        var = variances[name]
        ci = confidence_interval(result.delta_hat, var, cells.n_clusters,
                                 args.level)
        p = wald_test(result.delta_hat, var, cells.n_clusters)
        out[name] = {"variance": var, "se": float(np.sqrt(var)),
                     "ci_lower": ci.lower, "ci_upper": ci.upper, "p_value": p}
        print(f"{name}: se {_fmt(np.sqrt(var))}  "
              f"{100 * args.level:g}% CI [{_fmt(ci.lower)}, {_fmt(ci.upper)}]  "
              f"p {_fmt(p)}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(out, fh, indent=2)
    return _EXIT_OK


def _cmd_limits(args) -> int:
    mix = PopulationMixture(args.subpop)
    vc = _vc_from_args(args)
    print(f"pATE {_fmt(true_pate(mix))}")
    print(f"cATE {_fmt(true_cate(mix))}")
    for kind in EstimatorKind:
        try:
            print(f"plim {kind.value:6s} {_fmt(plim(kind, mix, vc))}")
        except EstimationError as exc:
            print(f"plim {kind.value:6s} unsupported ({exc})")
    return _EXIT_OK


def _cmd_weights(args) -> int:
    for flag in ("cac", "rho_max"):
        if not 0.0 <= getattr(args, flag) <= 1.0:
            raise ValueError(f"--{flag.replace('_', '-')} must lie in [0, 1], "
                             f"got {getattr(args, flag)!r}")
    if not (0.0 < args.step <= 1.0 and args.rho_max <= 1e6 * args.step):
        raise ValueError("--step must lie in (0, 1] and give at most 1e6 grid "
                         f"steps up to --rho-max, got {args.step!r}")
    kind = EstimatorKind(args.scheme)
    cac = 1.0 if kind is EstimatorKind.EMEW else args.cac
    mix = PopulationMixture.two_point(args.p1, args.k1, args.k2, 0.0, 0.0)
    grid = np.arange(0.0, args.rho_max + args.step / 2, args.step)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rho", "lambda_1", "lambda_2"])
        for rho in grid:
            rho = min(float(rho), 1.0 - 1e-9)
            lam = estimand_weights(kind, mix, VarianceComponents.from_iccs(1.0, rho, cac))
            w.writerow([repr(float(rho))] + [repr(x) for x in lam])
    rho_star = optimal_icc(args.k1, args.k2)
    p_star = optimal_sampling_prob(args.k1, args.k2, rho_star)
    print(f"wrote {args.out}")
    print(f"optimal rho {_fmt(rho_star)}")
    print(f"optimal P(u=1) {_fmt(p_star)}")
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pbcrt",
        description="Simulation and estimation for two-period parallel "
                    "cluster trials with a baseline period.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a Monte Carlo study from a JSON config")
    p.add_argument("config")
    p.add_argument("--csv", required=True, help="summary CSV output path")
    p.add_argument("--json", required=True, help="full JSON report output path")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's master seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit one estimator on a trial CSV")
    p.add_argument("trial")
    p.add_argument("--estimator", required=True,
                   choices=[k.value for k in EstimatorKind])
    p.add_argument("--variance", choices=["model", "jackknife", "both"],
                   default="model")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--json", default=None, help="optional JSON output path")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("limits", help="exact estimands and large-I limits")
    p.add_argument("--subpop", type=_parse_subpop, action="append",
                   required=True, metavar="p,K,delta",
                   help="repeatable; K may be k0:k1")
    _add_vc_flags(p)
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("weights", help="estimand-weight grid over the ICC")
    p.add_argument("--scheme", choices=["emew", "nemew"], default="emew")
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--p1", type=float, default=0.5)
    p.add_argument("--cac", type=float, default=1.0,
                   help="cluster auto-correlation for the nested scheme")
    p.add_argument("--rho-max", type=float, default=1.0, dest="rho_max")
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--out", default="weights.csv")
    p.set_defaults(func=_cmd_weights)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("csv", "json"):  # output directories, before any work
            path = getattr(args, flag, None)
            if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
                raise ValueError(f"--{flag}: the directory of {path!r} does not exist")
        return args.func(args)
    except (TrialValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except (EstimationError, StudyError) as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return _EXIT_ESTIMATION


if __name__ == "__main__":
    sys.exit(main())
