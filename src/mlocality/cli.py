"""Command-line front end.

Commands: build, evaluate, certify, threshold, table.  Exit codes: 0 on
success, 1 for findings (a certification failure or no violation at p=1),
2 for usage or parameter-domain errors.

A flat key = value config file (--config) supplies defaults.  Its keys are
the command's long options (``k_prime`` or ``k-prime`` for --k-prime), and
each value is parsed exactly as the flag's value is, with the same type and
choices; flags given on the command line win.  A key that the command has
no option for is an error.
--seed defaults to DEFAULT_SEED; a config file's ``seed = N`` sets it as
the flag does, and every command that takes it prints the seed it used.
certify reads sample i from row i of the uniforms seeded by --seed, in
chunks in one process.  A failing sample is written to stderr as a JSON
report of its draws: seed, sample_index, n, m, k_prime, the observed LHS
and each block's parties and vertex ids, one per atom (see `lhv`), from
which the sample and its tables are rebuilt.
evaluate takes exactly one of --angles and --symmetric-angles.
threshold and table also take --seed, but their search is deterministic:
the seed is only recorded in the output and does not change the results.
table computes its cells one after another in one process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from dataclasses import asdict, fields
from typing import Sequence

from .inequality import (
    ParameterDomainError,
    build_hierarchy_inequality,
    serialize_expression,
)
from .lhv import (
    CERT_TOL,
    CertificationError,
    certify_m_local_bound,
    max_strategy_lhs,
)
from .quantum import MeasurementAngles, NoisyState, evaluate_lhs
from .search import (
    NoViolationError,
    OptimizerConfig,
    SymmetricAngles,
    find_threshold,
    reproduce_table,
    state_for_family,
)

DEFAULT_SEED = 20230
DEFAULT_SAMPLES = 10000

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _with_config_file(argv: list[str], args: argparse.Namespace) -> list[str]:
    """argv with one --key=value token per config key spliced in after the
    command name, so that flags typed after it win."""
    tokens = []
    for key, raw in _load_config_file(args.config).items():
        # vars(args) holds the chosen command's options, plus three entries
        # that are not config keys
        if key not in vars(args) or key in ("command", "func", "config"):
            raise ValueError(f"unknown config key {key!r} for command {args.command!r}")
        tokens.append(f"--{key.replace('_', '-')}={raw}")
    at = argv.index(args.command) + 1
    return argv[:at] + tokens + argv[at:]


def _optimizer_config(args: argparse.Namespace) -> OptimizerConfig:
    return OptimizerConfig(**{f.name: getattr(args, f.name) for f in fields(OptimizerConfig)})


def _expression(args: argparse.Namespace):
    return build_hierarchy_inequality(args.n, args.m, args.k_prime)


def _write_output(text: str, path: str | None) -> None:
    """Print to stdout, or write atomically (temp file + rename) to path."""
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mlocality-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_angles(args: argparse.Namespace, n: int) -> MeasurementAngles:
    if args.angles is not None:
        parts = [float(x) for x in args.angles.split(",")]
        if len(parts) != 2 * n:
            raise ValueError(f"--angles needs 2n={2 * n} comma-separated values, got {len(parts)}")
        return MeasurementAngles(tuple(parts[:n]), tuple(parts[n:]))
    if args.symmetric_angles is not None:
        parts = [float(x) for x in args.symmetric_angles.split(",")]
        if len(parts) != 4:
            raise ValueError(f"--symmetric-angles needs 4 comma-separated values, got {len(parts)}")
        return SymmetricAngles(*parts).expand(n)
    raise ValueError("provide --angles or --symmetric-angles")


# ---------------------------------------------------------------------------
# Commands


def cmd_build(args: argparse.Namespace) -> int:
    expr = _expression(args)
    _write_output(serialize_expression(expr, args.format).decode(), args.output)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    expr = _expression(args)
    psi = state_for_family(args.family, args.n)
    state = NoisyState(psi, args.p)
    angles = _parse_angles(args, args.n)
    value = evaluate_lhs(expr, state, angles)
    _write_output(f"{value:.12g}\n", args.output)
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    expr = _expression(args)
    lines = [f"# certify n={args.n} m={args.m} samples={args.samples} seed={args.seed}"]
    deterministic_max = max_strategy_lhs(expr)
    lines.append(f"deterministic_max = {deterministic_max}")
    try:
        sampled_max = certify_m_local_bound(expr, args.samples, args.seed)
    except CertificationError as exc:
        lines.append("sampled_certification = FAIL")
        _write_output("\n".join(lines) + "\n", args.output)
        print(json.dumps(exc.report, indent=2, sort_keys=True), file=sys.stderr)
        return EXIT_FINDING
    # summation noise around an exact 0 (and -0.0) prints as 0; other values print unrounded
    shown = 0.0 if round(sampled_max, 12) == 0 else sampled_max
    lines.append(f"sampled_max = {shown:.12g}")
    verdict = deterministic_max <= 0 and sampled_max <= CERT_TOL
    lines.append(f"bound_satisfied = {str(verdict).lower()}")
    _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK if verdict else EXIT_FINDING


def cmd_threshold(args: argparse.Namespace) -> int:
    config = _optimizer_config(args)
    result = find_threshold(args.n, args.m, args.family, config)
    _emit_threshold_results([result], args, args.seed)
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    config = _optimizer_config(args)
    n_list = [int(x) for x in args.n_list.split(",")]
    if any(not 2 <= n for n in n_list):
        raise ParameterDomainError(f"party counts must be >= 2, got {n_list}")
    results = reproduce_table(args.family, n_list, config)
    _emit_threshold_results(results, args, args.seed)
    return EXIT_OK


def _emit_threshold_results(results, args: argparse.Namespace, seed: int) -> None:
    rows = [
        {"family": r.state_family, "n": r.n, "i": r.m - 1, "m": r.m, "p_threshold": r.p_threshold,
         "max_lhs_at_p1": r.max_lhs_at_p1, "angles": asdict(r.best_angles)}
        for r in results
    ]
    if args.format == "csv":
        lines = ["family,n,i,m,p_i,max_lhs_at_p1,theta_a1,theta_b1,theta_a,theta_b,seed"]
        for r in rows:
            angles = ",".join(f"{a:.12g}" for a in r["angles"].values())
            lines.append(
                f"{r['family']},{r['n']},{r['i']},{r['m']},{r['p_threshold']:.6f},"
                f"{r['max_lhs_at_p1']:.12g},{angles},{seed}"
            )
    elif args.format == "structured":
        for r in rows:
            r["p_threshold"] = round(r["p_threshold"], 6)
        lines = [json.dumps({"seed": seed, "results": rows}, indent=2, sort_keys=True)]
    else:
        lines = [f"# seed = {seed}"] + [
            f"{r['family']} n={r['n']} m={r['m']}: p_{r['i']} = {r['p_threshold']:.4f} "
            f"(max LHS at p=1: {r['max_lhs_at_p1']:.6g})"
            for r in rows
        ]
    _write_output("\n".join(lines) + "\n", args.output)


# ---------------------------------------------------------------------------
# Parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value file supplying defaults")
    parser.add_argument("--output", help="write output atomically to this path")


def _add_expression(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--k-prime", dest="k_prime", type=int, default=1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlocality",
        description="Multipartite Bell-type inequality hierarchy toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct an inequality expression")
    _add_expression(p)
    p.add_argument("--format", choices=["text", "structured"], default="text")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("evaluate", help="evaluate the LHS on a noisy GHZ/W state")
    _add_expression(p)
    p.add_argument("--family", required=True, help="ghz or w")
    p.add_argument("--p", type=float, default=1.0, help="visibility in [0, 1] (default: %(default)s)")
    # one of the two is required; that is checked after a config file is read (`_parse_angles`)
    angles = p.add_mutually_exclusive_group()
    angles.add_argument("--angles", help="2n comma-separated radians: a-angles then b-angles")
    angles.add_argument("--symmetric-angles", dest="symmetric_angles", help="4 comma-separated radians")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("certify", help="check the classical m-local bound numerically")
    _add_expression(p)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_common(p)
    p.set_defaults(func=cmd_certify)

    for name in ("threshold", "table"):
        p = sub.add_parser(name, help=f"{name} search over visibility")
        if name == "threshold":
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--m", type=int, required=True)
        else:
            p.add_argument("--n-list", dest="n_list", required=True, help="comma-separated party counts")
        p.add_argument("--family", required=True, help="ghz or w")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="only recorded; the search is deterministic")
        for f in fields(OptimizerConfig):
            p.add_argument(
                f"--{f.name.replace('_', '-')}", type=type(f.default), default=f.default,
                help=f"{f.metadata['help']} (default: %(default)s)",
            )
        p.add_argument("--format", choices=["csv", "structured", "text"], default="csv")
        _add_common(p)
        p.set_defaults(func=cmd_threshold if name == "threshold" else cmd_table)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = parser.parse_args(_with_config_file(argv, args))
        return args.func(args)
    except ParameterDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NoViolationError as exc:
        print(f"finding: {exc}", file=sys.stderr)
        return EXIT_FINDING
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
