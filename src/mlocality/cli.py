"""Command-line front end.

Commands: build, evaluate, certify, threshold, table.  Exit codes: 0 on
success, 1 for findings (a certification failure or no violation at p=1),
2 for usage or parameter-domain errors.

A flat key=value config file (--config) supplies defaults; explicit flags
override it.  MLOCALITY_SEED and MLOCALITY_WORKERS environment variables
override built-in defaults for the seed and worker count (flags still win);
every randomized command logs the seed it used.  threshold and table also
take --seed, but their search is deterministic: the seed is only recorded
in the output and does not change the results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
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
    maximize_violation,
    reproduce_table,
    state_for_family,
    thresholds_to_csv,
)

DEFAULT_SEED = 20230
DEFAULT_SAMPLES = 10000

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2


def _flag_or_env(args: argparse.Namespace, name: str, default: int) -> int:
    """The --name flag, else the MLOCALITY_<NAME> environment variable (logged), else default."""
    if getattr(args, name, None) is not None:
        return getattr(args, name)
    variable = f"MLOCALITY_{name.upper()}"
    raw = os.environ.get(variable)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"environment variable {variable} must be an integer, got {raw!r}") from None
    print(f"# {name} from {variable} = {value}", file=sys.stderr)
    return value


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


def _apply_config_file(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    casts = {
        "n": int, "m": int, "k_prime": int, "samples": int, "seed": int,
        "workers": int, "grid_resolution": int, "restarts": int,
        "refinement_rounds": int, "p": float, "local_tolerance": float,
        "family": str, "format": str,
        "output": str, "angles": str, "n_list": str,
    }
    for key, raw in _load_config_file(args.config).items():
        if key not in casts:
            raise ValueError(f"unknown config key {key!r}")
        if getattr(args, key, None) is None:
            setattr(args, key, casts[key](raw))


def _optimizer_config(args: argparse.Namespace, seed: int) -> OptimizerConfig:
    """OptimizerConfig from the given flags; the defaults live in OptimizerConfig."""
    keys = ("grid_resolution", "refinement_rounds", "local_tolerance", "restarts")
    given = {k: getattr(args, k) for k in keys if getattr(args, k) is not None}
    return OptimizerConfig(rng_seed=seed, **given)


def _expression(args: argparse.Namespace):
    return build_hierarchy_inequality(args.n, args.m, args.k_prime if args.k_prime is not None else 1)


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
    fmt = args.format or "text"
    _write_output(serialize_expression(expr, fmt).decode(), args.output)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    expr = _expression(args)
    psi = state_for_family(args.family, args.n)
    state = NoisyState(psi, args.p if args.p is not None else 1.0)
    angles = _parse_angles(args, args.n)
    value = evaluate_lhs(expr, state, angles)
    _write_output(f"{value:.12g}\n", args.output)
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    seed = _flag_or_env(args, "seed", DEFAULT_SEED)
    workers = _flag_or_env(args, "workers", 1)
    samples = args.samples if args.samples is not None else DEFAULT_SAMPLES
    expr = _expression(args)
    lines = [f"# certify n={args.n} m={args.m} samples={samples} seed={seed}"]
    deterministic_max = max_strategy_lhs(expr)
    lines.append(f"deterministic_max = {deterministic_max}")
    try:
        sampled_max = certify_m_local_bound(expr, samples, seed, workers=workers)
    except CertificationError as exc:
        lines.append("sampled_certification = FAIL")
        _write_output("\n".join(lines) + "\n", args.output)
        print(json.dumps(exc.report, indent=2, sort_keys=True), file=sys.stderr)
        return EXIT_FINDING
    lines.append(f"sampled_max = {sampled_max:.12g}")
    verdict = deterministic_max <= 0 and sampled_max <= CERT_TOL
    lines.append(f"bound_satisfied = {str(verdict).lower()}")
    _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK if verdict else EXIT_FINDING


def cmd_threshold(args: argparse.Namespace) -> int:
    seed = _flag_or_env(args, "seed", DEFAULT_SEED)
    config = _optimizer_config(args, seed)
    result = find_threshold(args.n, args.m, args.family, config)
    _emit_threshold_results([result], args, seed)
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    seed = _flag_or_env(args, "seed", DEFAULT_SEED)
    workers = _flag_or_env(args, "workers", 1)
    config = _optimizer_config(args, seed)
    n_list = [int(x) for x in args.n_list.split(",")]
    if any(not 2 <= n for n in n_list):
        raise ParameterDomainError(f"party counts must be >= 2, got {n_list}")
    results = reproduce_table(args.family, n_list, config, workers=workers)
    _emit_threshold_results(results, args, seed)
    return EXIT_OK


def _emit_threshold_results(results, args: argparse.Namespace, seed: int) -> None:
    fmt = args.format or "csv"
    if fmt == "csv":
        _write_output(thresholds_to_csv(results, seed), args.output)
    elif fmt == "structured":
        doc = {
            "seed": seed,
            "results": [
                {
                    "family": r.state_family,
                    "n": r.n,
                    "i": r.m - 1,
                    "m": r.m,
                    "p_threshold": round(r.p_threshold, 6),
                    "max_lhs_at_p1": r.max_lhs_at_p1,
                    "angles": {
                        "theta_a1": r.best_angles.theta_a1,
                        "theta_b1": r.best_angles.theta_b1,
                        "theta_a_rest": r.best_angles.theta_a_rest,
                        "theta_b_rest": r.best_angles.theta_b_rest,
                    },
                }
                for r in results
            ],
        }
        _write_output(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.output)
    else:
        lines = [f"# seed = {seed}"]
        for r in results:
            lines.append(
                f"{r.state_family} n={r.n} m={r.m}: p_{r.m - 1} = {r.p_threshold:.4f} "
                f"(max LHS at p=1: {r.max_lhs_at_p1:.6g})"
            )
        _write_output("\n".join(lines) + "\n", args.output)


# ---------------------------------------------------------------------------
# Parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value file supplying defaults")
    parser.add_argument("--output", help="write output atomically to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlocality",
        description="Multipartite Bell-type inequality hierarchy toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct an inequality expression")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k-prime", dest="k_prime", type=int)
    p.add_argument("--format", choices=["text", "structured"])
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("evaluate", help="evaluate the LHS on a noisy GHZ/W state")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k-prime", dest="k_prime", type=int)
    p.add_argument("--family", required=True, help="ghz or w")
    p.add_argument("--p", type=float, help="visibility in [0, 1], default 1")
    p.add_argument("--angles", help="2n comma-separated radians: a-angles then b-angles")
    p.add_argument("--symmetric-angles", dest="symmetric_angles", help="4 comma-separated radians")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("certify", help="check the classical m-local bound numerically")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k-prime", dest="k_prime", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_certify)

    for name in ("threshold", "table"):
        p = sub.add_parser(name, help=f"{name} search over visibility")
        if name == "threshold":
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--m", type=int, required=True)
        else:
            p.add_argument("--n-list", dest="n_list", required=True, help="comma-separated party counts")
            p.add_argument("--workers", type=int)
        p.add_argument("--family", required=True, help="ghz or w")
        p.add_argument("--seed", type=int, help="only recorded; the search is deterministic")
        p.add_argument("--grid-resolution", dest="grid_resolution", type=int)
        p.add_argument("--restarts", type=int)
        p.add_argument("--refinement-rounds", dest="refinement_rounds", type=int)
        p.add_argument("--local-tolerance", dest="local_tolerance", type=float)
        p.add_argument("--format", choices=["csv", "structured", "text"])
        _add_common(p)
        p.set_defaults(func=cmd_threshold if name == "threshold" else cmd_table)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
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
