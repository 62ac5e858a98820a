"""Command-line interface: selfsim, ode, evolve, sweep, verify, fit."""
from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

# suite.verify is looked up on its module at each call, so a wrapper set
# there (the benchmark's set-up mark) sees the call
from . import suite
from .config import (ConfigError, OdeConfig, ParamsConfig, RunConfig, load_config,
                     validated)
from .correction import (MIN_SLOPE_HORIZON, RESIDUAL_BOUND, fit_h_envelope,
                         lyapunov_violations, ode_residual, solve_correction,
                         verify_theta_properties)
from .params import SelfSimilarProfile, derive_constants
from .runio import refit, resume, run
from .sweep import sweep
from .tables import write_csv

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _parse_floats(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    return values


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    defaults = ParamsConfig()
    parser.add_argument("--n", type=int, default=defaults.n,
                        help="spatial dimension (2 or 3)")
    parser.add_argument("--lambda", dest="lam", type=float, default=defaults.lam,
                        help="damping decay exponent in [0, 1)")
    parser.add_argument("--gamma", type=float, default=defaults.gamma,
                        help="adiabatic exponent")
    parser.add_argument("--mass", type=float, default=defaults.mass, help="total mass")


def _params_from_args(args):
    """Constants from --n, --lambda, --gamma and --mass, checked by the rules
    of the ``params`` section."""
    flags = validated(ParamsConfig(n=args.n, lam=args.lam, gamma=args.gamma, mass=args.mass),
                      "params")
    return derive_constants(flags.n, flags.lam, flags.gamma, flags.mass)


def cmd_selfsim(args) -> int:
    """Tabulate the self-similar background fields."""
    params = _params_from_args(args)
    profile = SelfSimilarProfile(params)
    print(f"n={params.n} lambda={params.lam:g} gamma={params.gamma:g} "
          f"M={params.mass:g}  kappa={params.kappa:.6g} iota={params.iota:.6g}")
    print(f"A_bar={params.A_bar:.12g} B_bar={params.B_bar:.12g} R0={params.R0:.12g}")
    columns = {"t": [], "r": [], "density": [], "velocity": []}
    fractions = np.linspace(0.0, 1.0, args.radii)
    for t in args.times:
        edge = profile.support_radius(t)
        for frac in fractions:
            r = frac * edge
            for name, value in zip(columns, (t, r, float(profile.density_radial(t, r)),
                                             float(profile.velocity(t, r)))):
                columns[name].append(value)
        print(f"t={t:g}: support radius={edge:.8g} "
              f"vacuum gradient={profile.vacuum_gradient(t):.8g} "
              f"mass rel err={profile.mass_error(t):.2e}")
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_csv(path, columns)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_ode(args) -> int:
    """Solve the correction ODE and verify its envelopes."""
    params = _params_from_args(args)
    t_end = validated(OdeConfig(t_end=args.t_end), "ode").t_end
    if t_end < MIN_SLOPE_HORIZON:
        raise ConfigError(f"ode.t_end: must be >= {MIN_SLOPE_HORIZON:.6g}, for the "
                          "derivative-slope fits to have their samples")
    path = solve_correction(params, t_end)
    rep = verify_theta_properties(path)
    print(f"theta_t > 0: {rep.theta_t_positive}   theta > 1: {rep.theta_above_one}")
    print(f"theta/nu in [{rep.theta_over_nu_min:.6g}, {rep.theta_over_nu_max:.6g}]")
    for m, slope in rep.derivative_slopes.items():
        print(f"|d^{m} theta| tail slope {slope:+.4f} "
              f"(envelope {rep.derivative_slope_targets[m]:+.4f})")
    ok = rep.ok
    if t_end >= 1e4:
        env = fit_h_envelope(path)
        if env.degenerate:
            print("h envelope: degenerate (h numerically zero)")
        else:
            print(f"h tail exponent {env.best_exponent():+.4f} "
                  f"(envelope {env.expected_exponent:+.4f}, error {env.error:.3f})")
        ok &= env.ok
    resid = ode_residual(path)
    violations = lyapunov_violations(path)
    print(f"dense-output residual (step-scaled): {resid:.3g}   "
          f"lyapunov violations: {violations}")
    ok &= resid <= RESIDUAL_BOUND and violations == 0
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path.write_csv(out / "correction.csv")
        print(f"wrote {out / 'correction.csv'}")
    print(f"ode: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_FAIL


def _print_report(command: str, directory, report: dict) -> int:
    """Print a run report: its checks, the anchor's preservation, the
    energy ratio, the rate fits and, when the stability cap set more than
    half the accepted steps, that solver.rel_tol did not bound the run's
    error; exit by the report's verdict."""
    print(f"run directory: {directory}")
    for name, passed in report["checks"].items():
        print(f"  [{'PASS' if passed else 'FAIL'}] {name}")
    stats = report.get("telemetry", {}).get("integration")
    if stats and 2 * stats["cap_limited"] > stats["steps"]:
        print(f"  step cap set {stats['cap_limited']} of {stats['steps']} accepted steps; "
              "solver.rel_tol does not bound this run's error")
    if report.get("preservation_sup") is not None:
        print(f"  preservation sup|w| = {report['preservation_sup']:.3e}")
    bounded = report["boundedness"]
    if bounded and bounded["applicable"]:
        print(f"  energy ratio sup E/E(0) = {bounded['total_ratio']:.3f} "
              f"(threshold {bounded['threshold']:g})")
    rates = report["rates"]
    if rates:
        print(f"  anchor run: {rates['anchor']}")
        for name, exp in rates["exponents"].items():
            print(f"  {name} gap exponent {exp:+.4f} "
                  f"(envelope {rates['envelopes'][name]:+.4f})")
        if rates["identity_max_rel_err"] is not None:
            print(f"  closed-form identity max rel err {rates['identity_max_rel_err']:.2e}")
    print(f"{command}: {'PASS' if report['ok'] else 'FAIL'}")
    return EXIT_OK if report["ok"] else EXIT_FAIL


def cmd_evolve(args) -> int:
    """One configured run (or checkpoint resume) of the radial solver."""
    if args.resume:
        result = resume(args.resume)
    else:
        if not args.config:
            print("evolve: --config is required (or --resume DIR)", file=sys.stderr)
            return EXIT_USAGE
        cfg = load_config(args.config)
        if args.out:
            cfg.outputs.directory = args.out
        if args.seed is not None:
            cfg.rng_seed = args.seed
        result = run(cfg)
    return _print_report("evolve", result.directory, result.report)


def cmd_sweep(args) -> int:
    """Grid of runs over (lambda, gamma, epsilon)."""
    base = load_config(args.config) if args.config else RunConfig()
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
    report = suite.verify(only=args.only, fault=args.inject_fault, seed=args.seed)
    for line in report.summary_lines():
        print(line)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        report.write_json(args.out)
        print(f"wrote {args.out}")
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_fit(args) -> int:
    """Re-run decay-rate diagnostics on an existing run directory."""
    return _print_report("fit", args.run, refit(args.run))


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
    p.add_argument("--t-end", type=float, default=OdeConfig().t_end)
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
    p.add_argument("--workers", type=_positive_int, default=None)
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        logger.error("%s", exc, exc_info=args.verbose)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
