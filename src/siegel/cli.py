"""Command-line front end: every module as a subcommand with
deterministic, machine-readable output.

Subcommands: decompose, reduce, volume, growth-table, sample,
enumerate-intersections, bounds.  Each command returns its report and
:func:`run` alone writes it to stdout: one JSON document per invocation
(enumerate-intersections first writes one per candidate), on one line
under ``--format json`` and indented under ``pretty``.  Only
growth-table writes ``csv``; every other command refuses it.  A command
accepts only the settings it reads, and its report echoes only those:
the seed where random numbers are drawn (sample,
enumerate-intersections), the tolerance overrides the command applied,
t and lambda where decompose, volume and sample read them, and always
the tool version, so runs can be reproduced byte for byte.  Every
document is strict JSON (``allow_nan=False``): a ``volume`` whose value
leaves the double range writes ``"value": null`` next to its
``log_value``.
Exit codes: 0 success, 1 computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import MalformedConfigError, SiegelError
from .haar import (
    DEFAULT_B_MIN_FRACTION,
    RngStream,
    a_integral_mc,
    a_integral_quadrature,
    sample_haar_so_batch,
    sample_siegel_block,
)
from .iwasawa import (
    MINIMAL_PARAMS,
    SiegelParams,
    decompose,
    matrix_from_json_dict,
    matrix_to_json_dict,
    siegel_membership,
)
from .reduction import siegel_reduce
from .volumes import (
    compare_normalization_forms,
    compare_quotient_forms,
    compare_ratio_forms,
    growth_table,
    growth_table_csv,
    harder_volume,
    normalization_ratio,
    ratio_C,
    vol_quotient,
    vol_siegel,
    vol_so,
    vol_symmetric_space,
)
from .intersections import (
    DEFAULT_BUDGET,
    count_bounds,
    enumerate_intersections,
    height_bound_variants,
    log_height_bound,
)

#: the commands that draw random numbers: only they take ``--seed`` and
#: echo the seed
_SEEDED_COMMANDS = ("sample", "enumerate-intersections")
#: ``membership_tol`` is the slack of the ``decompose`` membership verdict;
#: no other command applies it, so no other report echoes it.
TOLERANCE_KEYS = ("membership_tol",)
#: the least value of each budget, flag or config: 0 exchanges or 0 random
#: samples per candidate are valid runs, a Monte Carlo estimate (mean and
#: standard error) needs two
_BUDGET_LEAST = {"max_iter": 0, "budget_per_candidate": 0, "mc_samples": 2}
OUTPUT_FORMATS = ("json", "csv", "pretty")
DEFAULT_MC_SAMPLES = 100_000


@dataclass
class RunConfig:
    """Effective run configuration; each report echoes the part its command reads."""

    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    output_format: str = "json"
    budgets: dict = field(default_factory=dict)

    def report_header(self, command: str) -> dict:
        tolerances = self.tolerances if command == "decompose" else {}
        header = {"tolerances": dict(sorted(tolerances.items())), "tool_version": __version__}
        if command in _SEEDED_COMMANDS:
            header["seed"] = self.seed
        return header


def _config_int(key: str, value) -> int:
    # JSON integers only: bool is an int subclass, and a float or string
    # would otherwise be truncated or parsed
    if type(value) is not int:
        raise MalformedConfigError(f"config key {key!r} must be an integer, got {value!r}")
    return value


def load_config(path: str | None) -> RunConfig:
    """Read a flat JSON object; unknown keys and values of the wrong type
    are rejected, absent keys default."""
    cfg = RunConfig()
    if path is None:
        return cfg
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MalformedConfigError(
            f"config is not valid JSON: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from exc
    except OSError as exc:
        raise MalformedConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(raw, dict):
        raise MalformedConfigError("config must be a flat JSON object")
    for key, value in raw.items():
        if key == "seed":
            cfg.seed = _config_int(key, value)
        elif key == "output_format":
            if value not in OUTPUT_FORMATS:
                raise MalformedConfigError(f"unknown output_format {value!r}")
            cfg.output_format = value
        elif key in TOLERANCE_KEYS:
            if type(value) not in (int, float) or not 0 <= value <= sys.float_info.max:
                raise MalformedConfigError(
                    f"config key {key!r} must be a finite number >= 0, got {value!r}"
                )
            cfg.tolerances[key] = float(value)
        elif key in _BUDGET_LEAST:
            cfg.budgets[key] = _bounded(key, _config_int(key, value))
        else:
            raise MalformedConfigError(f"unknown config key {key!r}")
    return cfg


def _bounded(key: str, value: int) -> int:
    if value < _BUDGET_LEAST[key]:
        raise MalformedConfigError(f"budget {key} must be >= {_BUDGET_LEAST[key]}")
    return value


def _setting(flag, budgets: dict, key: str, default=None):
    """Effective value of a setting: explicit flag (held to the config key's
    bound), else ``budgets[key]``, else default."""
    if flag is not None:
        return _bounded(key, flag)
    return budgets.get(key, default)


def _siegel_params(args) -> SiegelParams:
    """``--t`` and ``--lambda`` of a command that reads them; an absent flag
    is the canonical value, and an absent ``--t`` the exact t^2 = 4/3."""
    lam = MINIMAL_PARAMS.lam if args.lam is None else args.lam
    if args.t is None:
        return SiegelParams._canonical(lam)
    return SiegelParams(args.t, lam)


def _refuse(args, where: str, *dests: str) -> None:
    """Reject any flag given among ``dests``: ``where`` does not read them."""
    flags = {"t": "--t", "lam": "--lambda", "b_min": "--b-min"}
    given = [flags[d] for d in dests if getattr(args, d) is not None]
    if given:
        raise MalformedConfigError(f"{where} does not read {', '.join(given)}")


def _read_matrix(path: str) -> np.ndarray:
    if path == "-":
        return matrix_from_json_dict(json.load(sys.stdin))
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json_dict(json.load(fh))


#: volume object -> (builder of its expression from n, the check of its
#: published simplification or None); only ``siegel`` also reads (t, lambda)
_VOLUMES = {
    "so": (vol_so, None),
    "siegel": (vol_siegel, None),
    "quotient": (vol_quotient, compare_quotient_forms),
    "ratio": (ratio_C, compare_ratio_forms),
    "symmetric": (vol_symmetric_space, None),
    "harder": (harder_volume, None),
    "norm-ratio": (normalization_ratio, compare_normalization_forms),
}


def _cmd_volume(args, config: RunConfig) -> dict:
    build, form_check = _VOLUMES[args.object]
    result: dict = {"object": args.object, "n": args.n}
    if args.object == "siegel":
        p = _siegel_params(args)
        expr = build(args.n, p)
        result["t"], result["lambda"] = p.t, p.lam
    else:
        _refuse(args, f"--object {args.object}", "t", "lam")
        expr = build(args.n)
    # a value that leaves the double range is null; log_value carries it
    value = expr.value()
    result.update(
        expression=str(expr),
        log_value=expr.log_value(),
        value=value if 0.0 < value < math.inf else None,
    )
    if form_check is not None:
        result["form_check"] = form_check(args.n).to_json_dict()
    return result


def _cmd_growth_table(args, config: RunConfig) -> list:
    return growth_table(args.n_max)


def _cmd_decompose(args, config: RunConfig) -> dict:
    g = _read_matrix(args.input)
    tol = config.tolerances.get("membership_tol", 1e-9)
    p = _siegel_params(args)
    f = decompose(g)
    iu = np.triu_indices(f.n, k=1)
    return {
        "k": matrix_to_json_dict(f.k),
        "a": [float(x) for x in f.a],
        "u": matrix_to_json_dict(f.u),
        "b": [float(x) for x in f.b],
        "u_max": float(np.max(np.abs(f.u[iu]))),
        # decompose has just run the det/condition guard on g
        "membership": siegel_membership(g, p, tol, check=False),
        "t": p.t,
        "lambda": p.lam,
        "residuals": f.max_errors(g),
    }


def _cmd_reduce(args, config: RunConfig) -> dict:
    max_iter = _setting(args.max_iter, config.budgets, "max_iter")
    return siegel_reduce(_read_matrix(args.input), max_iter=max_iter).to_json_dict()


def _cmd_sample(args, config: RunConfig) -> dict:
    if args.what == "rotation":
        _refuse(args, "--what rotation", "t", "lam", "b_min")
    elif args.what == "a-integral":
        _refuse(args, "--what a-integral", "lam")
    stream = RngStream(config.seed, 0)
    p = _siegel_params(args)
    if args.what == "a-integral":
        count = _setting(args.count, config.budgets, "mc_samples", DEFAULT_MC_SAMPLES)
    else:
        count = 1 if args.count is None else args.count
        if count < 1:
            raise MalformedConfigError("--count must be >= 1")
    result: dict = {"what": args.what, "n": args.n, "count": count}
    if args.what == "rotation":
        batch = sample_haar_so_batch(args.n, count, stream)
        result["samples"] = [matrix_to_json_dict(q) for q in batch]
    elif args.what == "point":
        b_min = args.b_min if args.b_min is not None else p.t * DEFAULT_B_MIN_FRACTION
        result.update({"t": p.t, "lambda": p.lam, "b_min": b_min})
        block = sample_siegel_block(args.n, p, [b_min] * count, stream)
        points = [block[i] for i in range(count)]
        result["samples"] = [{**pt.to_json_dict(), "log_weight": pt.log_weight} for pt in points]
    else:  # a-integral estimate
        result["t"] = p.t
        rep = a_integral_mc(args.n, p.t, count, stream, b_min=args.b_min)
        result["report"] = rep.to_json_dict()
        result["quadrature"] = a_integral_quadrature(args.n, p.t)
    return result


def _cmd_enumerate(args, config: RunConfig) -> tuple:
    budget = _setting(args.budget, config.budgets, "budget_per_candidate", DEFAULT_BUDGET)
    return enumerate_intersections(
        args.n,
        budget_per_candidate=budget,
        rng=RngStream(config.seed, 0),
        max_height=args.max_height,
    )


def _cmd_bounds(args, config: RunConfig) -> dict:
    log_lower, log_upper = count_bounds(args.n)
    return {
        "n": args.n,
        "log_lower": log_lower,
        "log_upper": log_upper,
        "log_height_bound": log_height_bound(args.n),
        "height_bound_variants": height_bound_variants(args.n),
    }


def _write(args, config: RunConfig, fmt: str, out) -> None:
    """Write a command's report to stdout, the only place the CLI does.

    ``csv`` is the growth table's rows.  ``json`` and ``pretty`` are the
    same documents, compact (the layout of :func:`reports_to_jsonl`) or
    indented by 2: the ``command``, its ``config`` header and its
    ``result``; ``enumerate-intersections`` first writes one document per
    candidate report and then its ``summary`` in place of a ``result``.
    """
    if fmt == "csv":
        sys.stdout.write(growth_table_csv(out))
        return
    layout = {"indent": 2} if fmt == "pretty" else {"separators": (",", ":")}

    def dumps(doc) -> str:
        return json.dumps(doc, sort_keys=True, allow_nan=False, **layout) + "\n"

    doc = {"command": args.command, "config": config.report_header(args.command)}
    if args.command == "enumerate-intersections":
        reports, doc["summary"] = out
        sys.stdout.write("".join(dumps(r.to_json_dict()) for r in reports))
    elif args.command == "growth-table":
        doc["result"] = {"n_max": args.n_max, "rows": [r.to_json_dict() for r in out]}
    else:
        doc["result"] = out
    sys.stdout.write(dumps(doc))


def _add_siegel_params(sub: argparse.ArgumentParser) -> None:
    # None tells an absent flag from a given one; readers resolve it
    sub.add_argument("--t", type=float, default=None, help="ratio bound t (default 2/sqrt(3))")
    sub.add_argument(
        "--lambda", dest="lam", type=float, default=None,
        help="unipotent bound lambda (default 1/2)",
    )


def _global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # declared on the main parser with real defaults and on every
    # subparser with SUPPRESS, so the flags work on either side of the
    # subcommand without the subparser default clobbering a given value
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", default=d, help="path to a flat JSON config")
    parser.add_argument("--format", choices=OUTPUT_FORMATS, default=d)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siegel",
        description="Siegel sets for SL(n,R): decomposition, volumes, reduction, intersections",
    )
    _global_options(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _global_options(common, suppress=True)
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("volume", help="closed-form volumes and ratios", parents=[common])
    sub.add_argument("--object", required=True, choices=tuple(_VOLUMES))
    sub.add_argument("--n", type=int, required=True)
    _add_siegel_params(sub)
    sub.set_defaults(func=_cmd_volume)

    sub = commands.add_parser("growth-table", parents=[common], help="log-space growth table")
    sub.add_argument("--n-max", type=int, required=True)
    sub.set_defaults(func=_cmd_growth_table)

    sub = commands.add_parser("decompose", parents=[common], help="Iwasawa factors of a matrix (JSON file or '-')")
    sub.add_argument("--input", required=True)
    _add_siegel_params(sub)
    sub.set_defaults(func=_cmd_decompose)

    sub = commands.add_parser("reduce", parents=[common], help="move a matrix into the Siegel set")
    sub.add_argument("--input", required=True)
    sub.add_argument("--max-iter", type=int, default=None)
    sub.set_defaults(func=_cmd_reduce)

    sub = commands.add_parser("sample", parents=[common], help="seeded sampling / Monte Carlo estimates")
    sub.add_argument("--what", choices=("rotation", "point", "a-integral"), default="point")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument(
        "--count", type=int, default=None,
        help=f"samples (default 1; {DEFAULT_MC_SAMPLES} for a-integral)",
    )
    sub.add_argument("--b-min", type=float, default=None)
    _add_siegel_params(sub)
    sub.set_defaults(func=_cmd_sample)

    sub = commands.add_parser(
        "enumerate-intersections", parents=[common],
        help="witness search over all bounded-height candidates",
    )
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--budget", type=int, default=None)
    sub.add_argument("--max-height", type=int, default=None)
    sub.set_defaults(func=_cmd_enumerate)

    sub = commands.add_parser("bounds", parents=[common], help="two-sided intersection count bounds")
    sub.add_argument("--n", type=int, required=True)
    sub.set_defaults(func=_cmd_bounds)

    for name in _SEEDED_COMMANDS:
        commands.choices[name].add_argument(
            "--seed", type=int, default=None, help="override the config seed"
        )
    return parser


def run(argv: list[str]) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        config = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            config.seed = args.seed
        fmt = args.format or config.output_format
        if fmt == "csv" and args.command != "growth-table":
            raise MalformedConfigError(f"{args.command} does not write csv; only growth-table does")
        _write(args, config, fmt, args.func(args, config))
        return 0
    except (SiegelError, OSError, ValueError, KeyError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, MalformedConfigError) and exc.line is not None:
            error["line"] = exc.line
            error["column"] = exc.column
        sys.stderr.write(json.dumps(error, sort_keys=True, allow_nan=False) + "\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
