"""Command-line interface: selfsim, ode, evolve, sweep, verify, fit."""
from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=3, help="spatial dimension (2 or 3)")
    parser.add_argument("--lambda", dest="lam", type=float, default=0.0,
                        help="damping decay exponent in [0, 1)")
    parser.add_argument("--gamma", type=float, default=2.0, help="adiabatic exponent")
    parser.add_argument("--mass", type=float, default=1.0, help="total mass")


def _params_from_args(args):
    from .params import derive_constants

    return derive_constants(args.n, args.lam, args.gamma, args.mass)


def cmd_selfsim(args) -> int:
    """Tabulate the self-similar background fields."""
    from .params import SelfSimilarProfile

    params = _params_from_args(args)
    profile = SelfSimilarProfile(params)
    print(f"n={params.n} lambda={params.lam:g} gamma={params.gamma:g} "
          f"M={params.mass:g}  kappa={params.kappa:.6g} iota={params.iota:.6g}")
    print(f"A_bar={params.A_bar:.12g} B_bar={params.B_bar:.12g} R0={params.R0:.12g}")
    rows = []
    fractions = np.linspace(0.0, 1.0, args.radii)
    for t in args.times:
        edge = profile.support_radius(t)
        for frac in fractions:
            r = frac * edge
            dens = float(profile.density_radial(t, r))
            vel = params.kappa * r / (1.0 + t)
            rows.append((t, r, dens, vel))
        print(f"t={t:g}: support radius={edge:.8g} "
              f"vacuum gradient={profile.vacuum_gradient(t):.8g} "
              f"mass rel err={profile.mass_error(t):.2e}")
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "r", "density", "velocity"])
            for row in rows:
                writer.writerow([f"{v:.17g}" for v in row])
        print(f"wrote {path}")
    return EXIT_OK


def cmd_ode(args) -> int:
    """Solve the correction ODE and verify its envelopes."""
    from .correction import (fit_h_envelope, lyapunov_violations, ode_residual,
                             solve_correction, verify_theta_properties)

    params = _params_from_args(args)
    path = solve_correction(params, args.t_end)
    rep = verify_theta_properties(path)
    print(f"theta_t > 0: {rep.theta_t_positive}   theta > 1: {rep.theta_above_one}")
    print(f"theta/nu in [{rep.theta_over_nu_min:.6g}, {rep.theta_over_nu_max:.6g}]")
    for m, slope in rep.derivative_slopes.items():
        print(f"|d^{m} theta| tail slope {slope:+.4f} "
              f"(envelope {rep.derivative_slope_targets[m]:+.4f})")
    ok = rep.ok
    if args.t_end >= 1e4:
        env = fit_h_envelope(path)
        if env.degenerate:
            print("h envelope: degenerate (h numerically zero)")
        else:
            err = abs(env.best_exponent() - env.expected_exponent)
            print(f"h tail exponent {env.best_exponent():+.4f} "
                  f"(envelope {env.expected_exponent:+.4f}, error {err:.3f})")
            ok &= err <= 0.05
    resid = ode_residual(path)
    violations = lyapunov_violations(path)
    print(f"dense-output residual (step-scaled): {resid:.3g}   "
          f"lyapunov violations: {violations}")
    ok &= resid <= 10.0 and violations == 0
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path.write_csv(out / "correction.csv")
        print(f"wrote {out / 'correction.csv'}")
    print(f"ode: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_evolve(args) -> int:
    """One configured run (or checkpoint resume) of the radial solver."""
    from .config import ConfigError, load_config
    from .runio import resume, run

    if args.resume:
        result = resume(args.resume)
    else:
        if not args.config:
            print("evolve: --config is required (or --resume DIR)", file=sys.stderr)
            return EXIT_USAGE
        try:
            cfg = load_config(args.config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if args.out:
            cfg.outputs.directory = args.out
        if args.seed is not None:
            cfg.rng_seed = args.seed
        result = run(cfg)
    report = result.report
    print(f"run directory: {result.directory}")
    for name, passed in report.get("checks", {}).items():
        print(f"  [{'PASS' if passed else 'FAIL'}] {name}")
    if report.get("preservation_sup") is not None:
        print(f"  preservation sup|w| = {report['preservation_sup']:.3e}")
    bounded = report.get("boundedness")
    if bounded and bounded.get("applicable"):
        print(f"  energy ratio sup E/E(0) = {bounded['total_ratio']:.3f} "
              f"(threshold {bounded['threshold']:g})")
    rates = report.get("rates")
    if rates:
        for name, exp in rates["exponents"].items():
            print(f"  {name} gap exponent {exp:+.4f} "
                  f"(envelope {rates['envelopes'][name]:+.4f})")
    print(f"evolve: {'PASS' if result.ok else 'FAIL'}")
    return EXIT_OK if result.ok else EXIT_FAIL


def cmd_sweep(args) -> int:
    """Grid of runs over (lambda, gamma, epsilon)."""
    from .config import ConfigError, load_config, RunConfig
    from .sweep import sweep

    try:
        base = load_config(args.config) if args.config else RunConfig()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None:
        base.rng_seed = args.seed
    rows = sweep(base, args.lambdas, args.gammas, args.epsilons,
                 args.out, workers=args.workers)
    width = max(len(r["cell"]) for r in rows)
    for row in rows:
        status = "ok" if row["ok"] else row.get("status", "fail")
        print(f"{row['cell']:<{width}}  {status}")
    passed = sum(r["ok"] for r in rows)
    print(f"sweep: {passed}/{len(rows)} cells passed; summary in {args.out}/summary.csv")
    return EXIT_OK if passed == len(rows) else EXIT_FAIL


def cmd_verify(args) -> int:
    """Full property suite with named pass/fail report."""
    from .suite import verify

    report = verify(only=args.only, fault=args.inject_fault, seed=args.seed or 0)
    for line in report.summary_lines():
        print(line)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        report.write_json(args.out)
        print(f"wrote {args.out}")
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_fit(args) -> int:
    """Re-run decay-rate diagnostics on an existing run directory."""
    from .runio import refit

    out = refit(args.run)
    rates = out["rates"]
    print(f"anchor run: {rates['anchor']}")
    for name, exp in rates["exponents"].items():
        print(f"  {name} gap exponent {exp:+.4f} "
              f"(envelope {rates['envelopes'][name]:+.4f})")
    if rates.get("identity_max_rel_err") is not None:
        print(f"  closed-form identity max rel err {rates['identity_max_rel_err']:.2e}")
    bounded = out.get("boundedness")
    if bounded and bounded.get("applicable"):
        print(f"  energy ratio {bounded['total_ratio']:.3f}")
    ok = rates["ok"] and (not bounded or not bounded.get("applicable") or bounded["ok"])
    print(f"fit: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vaclab",
        description="Numerical laboratory for damped compressible Euler flows "
                    "with a physical vacuum boundary.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("selfsim", help="tabulate the self-similar background")
    _add_param_flags(p)
    p.add_argument("--times", type=_parse_floats, default=[0.0, 1.0, 10.0])
    p.add_argument("--radii", type=int, default=9, help="radial samples per time")
    p.add_argument("--out", help="optional CSV output path")
    p.set_defaults(func=cmd_selfsim)

    p = sub.add_parser("ode", help="solve and verify the correction ODE")
    _add_param_flags(p)
    p.add_argument("--t-end", type=float, default=1e6)
    p.add_argument("--out", help="directory for correction.csv")
    p.set_defaults(func=cmd_ode)

    p = sub.add_parser("evolve", help="run the radial solver from a config")
    p.add_argument("--config", help="JSON run configuration")
    p.add_argument("--out", help="override outputs.directory")
    p.add_argument("--seed", type=int, help="override the RNG seed")
    p.add_argument("--resume", help="continue from the last checkpoint in DIR")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("sweep", help="grid of runs over lambda/gamma/epsilon")
    p.add_argument("--config", help="base JSON configuration")
    p.add_argument("--lambdas", type=_parse_floats, default=[0.0, 0.3, 0.7])
    p.add_argument("--gammas", type=_parse_floats, default=[1.5, 2.0])
    p.add_argument("--epsilons", type=_parse_floats, default=[0.0, 1e-3])
    p.add_argument("--out", required=True, help="sweep output directory")
    p.add_argument("--seed", type=int, help="override the RNG seed")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="one-shot property suite")
    p.add_argument("--only", help="run only checks whose name contains this")
    p.add_argument("--out", help="write suite.json here")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-fault", choices=["pressure-sign"],
                   help=argparse.SUPPRESS)  # negative-test hook
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fit", help="re-run diagnostics on a run directory")
    p.add_argument("--run", required=True, help="existing run directory")
    p.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except Exception as exc:
        logger.error("%s", exc, exc_info=args.verbose)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
