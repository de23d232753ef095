"""Command-line driver: fit, simulate, surface, iia-test, bandwidth-grid.

Every subcommand reads one declarative JSON config (see README for the
schema) and accepts a few overriding flags.  Fit runs exit 0 only when
the fit converged; configuration problems exit 2, non-convergence 3,
estimation failures 4.
"""

from __future__ import annotations

import argparse
import sys

from .dataio import (
    RunConfig,
    _read_json_object,
    run_bandwidth_grid,
    run_fit,
    run_iia,
    run_simulate,
    run_surface,
)
from .exceptions import ConfigError, EmptyDatasetError, SemilogitError, ShapeError

EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3
EXIT_FIT_ERROR = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semilogit",
        description="Semiparametric and parametric multinomial logit fitting")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--out", help="override output directory")

    p_fit = sub.add_parser("fit", help="fit the configured model")
    common(p_fit)
    p_fit.add_argument("--scale", type=float,
                       help="override kernel scale (semiparametric)")

    p_sim = sub.add_parser("simulate", help="draw a dataset from the DGP block")
    common(p_sim)

    p_surf = sub.add_parser("surface",
                            help="export probability surface from a fitted model")
    common(p_surf)
    p_surf.add_argument("--fit-dir",
                        help="directory with fit artifacts (default: --out)")

    p_iia = sub.add_parser("iia-test", help="Hausman-McFadden / Small-Hsiao tests")
    common(p_iia)

    p_grid = sub.add_parser("bandwidth-grid",
                            help="bandwidths over a grid of scale factors")
    common(p_grid)
    p_grid.add_argument("--lo", type=float, help="lowest scale (overrides grid.lo)")
    p_grid.add_argument("--hi", type=float, help="highest scale (overrides grid.hi)")
    p_grid.add_argument("--steps", type=int,
                        help="number of scales (overrides grid.steps)")
    return parser


def _merge(d: dict, key: str, values: dict):
    """``values`` over the section ``d[key]``, unless that is not an object."""
    section = d.get(key)
    if section is None or isinstance(section, dict):
        d[key] = {**(section or {}), **values}


def _load_config(args) -> RunConfig:
    """The config file with the flags merged in, read as one config."""
    d = _read_json_object(args.config)
    if args.seed is not None:
        d["seed"] = args.seed
        if d.get("simulate") is not None:
            _merge(d, "simulate", {"seed": args.seed})
    if args.out is not None:
        d["out"] = args.out
    if getattr(args, "scale", None) is not None:
        _merge(d, "kernel", {"scale": args.scale, "bandwidths": None})
    if args.command == "bandwidth-grid":
        _merge(d, "grid", {key: getattr(args, key) for key in ("lo", "hi", "steps")
                           if getattr(args, key) is not None})
    return RunConfig.from_dict(d)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        if args.command == "fit":
            return run_fit(config)
        if args.command == "simulate":
            return run_simulate(config)
        if args.command == "surface":
            return run_surface(config, fit_dir=args.fit_dir)
        if args.command == "iia-test":
            return run_iia(config)
        if args.command == "bandwidth-grid":
            return run_bandwidth_grid(config)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ShapeError, EmptyDatasetError, FileNotFoundError) as err:
        print(f"semilogit: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SemilogitError as err:
        print(f"semilogit: {err}", file=sys.stderr)
        return EXIT_FIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
