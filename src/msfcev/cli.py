"""Command-line interface.

Subcommands: price, density, curve, simulate, verify, calibrate, compare.
stdout carries data only (numbers, CSV, JSON); diagnostics go to stderr.
Randomized commands require --seed and are reproducible bit for bit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

import numpy as np

# verify loads scipy.linalg, which no other command uses, and only the
# commands that fit use calibrate: each command imports what it needs
from . import pricing, process
from .errors import (CalibrationError, ChainFormatError, DomainError,
                     NumericalError)

_USAGE_ERRORS = (DomainError, ChainFormatError, NumericalError,
                 CalibrationError, OSError)


def _model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True, choices=sorted(pricing.MODEL_NAMES),
                        help="model short name")
    parser.add_argument("--sigma", type=float, required=True)
    parser.add_argument("--alpha", type=float, default=1.0,
                        help="CEV elasticity in [0, 2); ignored by the BS family")
    parser.add_argument("--hurst", type=float, default=0.7)
    parser.add_argument("--beta", type=float, default=None,
                        help="Brownian weight (default 1)")
    parser.add_argument("--gamma", type=float, default=None,
                        help="(sub-)fractional weight (default 1 for mixed "
                             "drivers, 0 for classical)")


def _market_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--spot", type=float, required=True)


_STARTS_HELP = ("optimizer starts: the first is the clock start, solved from "
                "the chain's term structure; any further starts are random "
                "points drawn from --seed")


def _fit_args(parser: argparse.ArgumentParser, model_flag: str,
              **model_kwargs) -> None:
    """The flags of a fit; ``model_flag`` (--model or --models) follows --input."""
    parser.add_argument("--input", required=True)
    parser.add_argument(model_flag, required=True, **model_kwargs)
    parser.add_argument("--mode", choices=["joint", "per_maturity"], default="joint")
    parser.add_argument("--seed", type=int, required=True,
                        help="seeds only the random starts after the first; a "
                             "one-start fit does not use it")
    parser.add_argument("--starts", type=int, default=1, help=_STARTS_HELP)
    parser.add_argument("--maxiter", type=int, default=400,
                        help="residual evaluations per start")
    parser.add_argument("--filter-moneyness", action="store_true")
    parser.add_argument("--out", default=None)


def _build_model(args) -> pricing.ModelSpec:
    return pricing.ModelSpec.make(args.model, sigma=args.sigma, alpha=args.alpha,
                                  hurst=args.hurst, beta=args.beta,
                                  gamma=args.gamma)


@contextlib.contextmanager
def _output(path):
    """stdout, left open, or the file at ``path``, closed on error too."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8") as fh:
        yield fh


def _float_list(text: str) -> list:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise DomainError(f"cannot parse float list {text!r}") from None


def _cmd_price(args) -> int:
    model = _build_model(args)
    env = pricing.MarketEnv(rate=args.rate, spot=args.spot)
    price = pricing.call_price(model, env, args.maturity, args.strike)
    if args.json:
        print(json.dumps({"price": price}))
    else:
        print(f"{price:.12g}")
    return 0


def _cmd_density(args) -> int:
    model = _build_model(args)
    env = pricing.MarketEnv(rate=args.rate, spot=args.spot)
    s_max = args.s_max if args.s_max is not None else 3.0 * args.spot * math.exp(
        args.rate * args.maturity)
    s_min = args.s_min if args.s_min is not None else 0.05 * args.spot
    if not 0.0 < s_min < s_max:
        raise DomainError("need 0 < s-min < s-max")
    if args.points < 2:
        raise DomainError(f"--points must be at least 2, got {args.points}")
    grid = np.linspace(s_min, s_max, args.points)
    dens = pricing.transition_density(model, env, args.maturity, grid)
    with _output(args.out) as out:
        pricing.write_density_csv(grid, dens, out)
    return 0


def _cmd_curve(args) -> int:
    model = _build_model(args)
    env = pricing.MarketEnv(rate=args.rate, spot=args.spot)
    rows = pricing.price_curve(model, env, args.maturity, args.strike,
                               _float_list(args.alphas), _float_list(args.hursts))
    with _output(args.out) as out:
        pricing.write_price_curve_csv(rows, out)
    return 0


def _cmd_simulate(args) -> int:
    params = process.MixedDriverParams(hurst=args.hurst, beta=args.beta,
                                       gamma=args.gamma)
    grid = process.TimeGrid(_float_list(args.times))
    batch = process.sample_msfbm(grid, params, args.n_paths, args.seed)
    with _output(args.out) as out:
        batch.to_csv(out)
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    model = _build_model(args)
    env = pricing.MarketEnv(rate=args.rate, spot=args.spot)
    for name in verify.skipped_checks(model, with_mc=args.with_mc,
                                      with_fpe=args.with_fpe):
        print(f"note: {name} not available for {args.model}; skipped",
              file=sys.stderr)
    checks = verify.run_checks(model, env, args.maturity, args.strike,
                               seed=args.seed, mc_paths=args.mc_paths,
                               with_mc=args.with_mc, with_fpe=args.with_fpe)
    if args.json:
        # JSON has no NaN; a NaN value (which fails its row) goes out as null
        print(json.dumps([{"name": c.name,
                           "value": None if math.isnan(c.value) else c.value,
                           "tol": c.tol, "passed": c.passed} for c in checks]))
    else:
        width = max(len(c.name) for c in checks)
        print(f"{'check'.ljust(width)}  {'value':>14}  {'tolerance':>12}  status")
        for c in checks:
            print(f"{c.name.ljust(width)}  {c.value:14.6e}  {c.tol:12.3e}  "
                  f"{'PASS' if c.passed else 'FAIL'}")
    return 0 if all(c.passed for c in checks) else 2


def _chain_and_config(args):
    """The chain and optimizer settings of the :func:`_fit_args` flags."""
    from . import calibrate as cal

    chain = cal.load_chain(args.input, moneyness_filter=args.filter_moneyness)
    return chain, cal.OptimizerConfig(n_starts=args.starts, seed=args.seed,
                                      maxiter=args.maxiter)


def _cmd_calibrate(args) -> int:
    from . import calibrate as cal

    chain, cfg = _chain_and_config(args)
    report = cal.fit(chain, args.model, args.mode, cfg)
    with _output(args.out) as out:
        out.write(report.to_json() + "\n")
    return 0 if report.converged else 2


def _cmd_compare(args) -> int:
    from . import calibrate as cal

    chain, cfg = _chain_and_config(args)
    catalog = [m.strip() for m in args.models.split(",") if m.strip()]
    rows = cal.compare_models(chain, catalog, args.mode, cfg)
    with _output(args.out) as out:
        out.write(cal.comparison_to_json(rows) + "\n")
    return 2 if any(r.failed for r in rows) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msfcev",
        description="Pricing, simulation, verification and calibration for "
                    "CEV models with mixed (sub-)fractional drivers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="price one European call")
    _model_args(p)
    _market_args(p)
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--maturity", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("density", help="terminal-density CSV (S_T,density)")
    _model_args(p)
    _market_args(p)
    p.add_argument("--maturity", type=float, required=True)
    p.add_argument("--s-min", type=float, default=None)
    p.add_argument("--s-max", type=float, default=None)
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("curve", help="price table over (alpha, hurst) for "
                                     "both mixed drivers")
    _model_args(p)
    _market_args(p)
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--maturity", type=float, required=True)
    p.add_argument("--alphas", required=True, help="comma-separated alphas")
    p.add_argument("--hursts", required=True, help="comma-separated Hurst values")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("simulate", help="exact driver paths as CSV")
    p.add_argument("--times", required=True,
                   help="comma-separated times starting at 0")
    p.add_argument("--hurst", type=float, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--n-paths", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the oracle suite at one parameter "
                                      "point and print a pass/fail table")
    _model_args(p)
    _market_args(p)
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--maturity", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--with-mc", action="store_true",
                   help="include the Euler Monte Carlo check (classical CEV)")
    p.add_argument("--with-fpe", action="store_true",
                   help="include the forward-equation check (slower)")
    p.add_argument("--mc-paths", type=int, default=200_000)
    p.add_argument("--json", action="store_true",
                   help="print the rows as one JSON list of "
                        "{name, value, tol, passed}")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("calibrate", help="fit one model to a chain CSV")
    _fit_args(p, "--model", choices=sorted(pricing.MODEL_NAMES))
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("compare", help="fit several models and tabulate MSEs")
    _fit_args(p, "--models", help="comma-separated model short names")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
