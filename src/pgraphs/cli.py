"""Command line interface: config ingestion, scenario runs, serialization.

Subcommands::

    validate     parse and invariant-check a model config
    semigroups   table of admissible sign patterns with generators and scale
    graph-build  build a slice and export it as DOT or JSON
    graph-check  run structural checks on a slice
    qlo          minimal common upper bounds of a pair in a cone
    product      external product of previously exported slices

Exit status: 0 all checks pass, 1 check failure (witness printed),
2 usage or config error.  Output files and stdout are deterministic for
identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import cone_semigroup as cs
from . import coset_model as cm
from . import pgraph as pg
from .errors import CertificationFailed, ConfigError, PGraphsError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

STRUCTURAL_CHECKS = ("rooted", "factorization", "fibers", "regularity")


@dataclass
class RunReport:
    """Collected per-check statuses with witnesses and timings.

    Timings are retained for callers but never printed, so command
    output stays byte-identical across runs.
    """

    command: str
    checks: list[tuple[str, str, tuple]] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    def record(self, name: str, status: str, witnesses: tuple = ()):
        self.checks.append((name, status, witnesses))

    @property
    def failed(self) -> bool:
        return any(status == "FAIL" for _, status, _ in self.checks)


def bundled_config_path(name: str) -> Path:
    """Path of a packaged example config, e.g. 'example_5_2'."""
    fname = name if name.endswith(".json") else f"{name}.json"
    return Path(str(resources.files("pgraphs").joinpath("configs", fname)))


def load_config(path: str | Path):
    """Parse and validate a model config; returns (model, defaults)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    kind = data.get("kind")
    if kind == "padic":
        model = _load_padic(data, path)
    elif kind == "tree":
        model = _load_tree(data, path)
    else:
        raise ConfigError(f"{path}: kind must be 'padic' or 'tree', got {kind!r}")
    defaults = data.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ConfigError(f"{path}: defaults: must be an object")
    for key, minimum in (("depth", 0), ("bound", 1)):
        if key in defaults and (type(defaults[key]) is not int or defaults[key] < minimum):
            raise ConfigError(f"{path}: defaults.{key}: integer >= {minimum} required")
    return model, defaults


def _load_padic(data: dict, path) -> cm.PadicModel:
    rows = data.get("rows")
    if not isinstance(rows, list) or not rows:
        raise ConfigError(f"{path}: rows: non-empty array required")
    rank = data.get("rank")
    if not isinstance(rank, int) or rank < 1:
        raise ConfigError(f"{path}: rank: positive integer required")
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ConfigError(f"{path}: rows[{i}]: object required")
        prime = row.get("prime")
        exps = row.get("exponents")
        if not isinstance(prime, int):
            raise ConfigError(f"{path}: rows[{i}].prime: integer required")
        if (
            not isinstance(exps, list)
            or not all(isinstance(e, int) for e in exps)
        ):
            raise ConfigError(f"{path}: rows[{i}].exponents: integer array required")
        if len(exps) != rank:
            raise ConfigError(
                f"{path}: rows[{i}].exponents: length {len(exps)} != rank {rank}"
            )
        parsed.append((prime, tuple(exps)))
    try:
        return cm.PadicModel(tuple(parsed))
    except PGraphsError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load_tree(data: dict, path) -> cm.TreeModel:
    valencies = data.get("valencies")
    if (
        not isinstance(valencies, list)
        or not valencies
        or not all(isinstance(d, int) for d in valencies)
    ):
        raise ConfigError(f"{path}: valencies: non-empty integer array required")
    try:
        return cm.TreeModel(tuple(valencies))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than `minimum`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _parse_vector(text: str, rank: int):
    try:
        coords = tuple(int(c) for c in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad vector {text!r}; expected e.g. '1,0'") from exc
    if len(coords) != rank:
        raise ConfigError(f"vector {text!r} has {len(coords)} coordinates, want {rank}")
    return coords


def _resolve_pattern(args, defaults, spec) -> cs.SignPattern:
    text = getattr(args, "pattern", None) or defaults.get("pattern")
    if not text:
        raise ConfigError("no --pattern given and config declares no default")
    pattern = cs.SignPattern.parse(text)
    pattern.require_full(spec.components)
    return pattern


# ---------------------------------------------------------------------------
# Commands


def cmd_validate(args) -> int:
    model, _ = load_config(args.config)
    spec = model.flat_spec()
    print(f"valid: kind={'padic' if isinstance(model, cm.PadicModel) else 'tree'} "
          f"rank={spec.rank} components={spec.components} "
          f"scales={','.join(map(str, spec.relative_scales))}")
    return EXIT_OK


def cmd_semigroups(args) -> int:
    model, defaults = load_config(args.config)
    spec = model.flat_spec()
    bound = args.bound if args.bound is not None else defaults.get("bound", 16)
    patterns = cs.enumerate_admissible(spec)
    rows = []
    for pattern in patterns:
        P = cs.ConeSemigroup(spec, pattern)
        gens = cs.minimal_generators(P, norm_bound=bound)
        sigma = " ".join(f"({','.join(map(str, g))})" for g in gens.sigma)
        forms = cs.scale_exponent_forms(spec, pattern)
        rows.append((str(pattern), sigma, cs.format_scale(forms)))
    w1 = max(len("pattern"), *(len(r[0]) for r in rows)) if rows else len("pattern")
    w2 = max(len("sigma"), *(len(r[1]) for r in rows)) if rows else len("sigma")
    print(f"{'pattern':<{w1}}  {'sigma':<{w2}}  scale")
    for r in rows:
        print(f"{r[0]:<{w1}}  {r[1]:<{w2}}  {r[2]}")
    print(f"{len(rows)} admissible patterns")
    return EXIT_OK


def _build_from_args(args, model, defaults):
    spec = model.flat_spec()
    pattern = _resolve_pattern(args, defaults, spec)
    depth = args.depth if args.depth is not None else defaults.get("depth", 3)
    bound = args.bound if args.bound is not None else defaults.get("bound", 16)
    P = cs.ConeSemigroup(spec, pattern)
    gens = cs.minimal_generators(P, norm_bound=bound)
    return pg.build_slice(P, gens, model, depth), P, gens


def cmd_graph_build(args) -> int:
    model, defaults = load_config(args.config)
    slice_, _, _ = _build_from_args(args, model, defaults)
    out = Path(args.out)
    if args.format == "dot":
        out.write_text(pg.slice_to_dot(slice_))
    else:
        out.write_text(json.dumps(pg.slice_to_json_dict(slice_), indent=2) + "\n")
    print(
        f"wrote {out} ({len(slice_.levels)} levels, {len(slice_.vertices)} vertices, "
        f"{len(slice_.edges)} edges)"
    )
    return EXIT_OK


def _run_checks(slice_, which, regularity_depth) -> RunReport:
    report = RunReport(command="graph-check")
    runners = {
        "rooted": lambda: pg.check_rooted_strongly_simple(slice_),
        "factorization": lambda: pg.check_factorization(slice_),
        "fibers": lambda: pg.check_fiber_regularity(slice_),
        "regularity": lambda: pg.check_regularity(slice_, regularity_depth),
    }
    for name in which:
        if name == "product":
            continue
        t0 = time.perf_counter()
        result = runners[name]()
        report.timings[name] = time.perf_counter() - t0
        report.record(name, "PASS" if result.ok else "FAIL", result.witnesses)
        if not result.ok:
            for line in result.failures[:5]:
                report.record(name, "  witness", (line,))
    if "product" in which:
        t0 = time.perf_counter()
        result = pg.check_product_of_trees(slice_)
        report.timings["product"] = time.perf_counter() - t0
        report.record("product-of-trees", result.status, (result.witness,))
    return report


def cmd_graph_check(args) -> int:
    model, defaults = load_config(args.config)
    slice_, _, _ = _build_from_args(args, model, defaults)
    which = (
        list(STRUCTURAL_CHECKS) + ["product"]
        if args.checks == "all"
        else [c.strip() for c in args.checks.split(",")]
    )
    for name in which:
        if name not in STRUCTURAL_CHECKS + ("product",):
            raise ConfigError(f"unknown check {name!r}")
    reg_depth = (
        args.regularity_depth
        if args.regularity_depth is not None
        else max(slice_.depth - 1, 0)
    )
    report = _run_checks(slice_, which, reg_depth)
    for name, status, witnesses in report.checks:
        if status == "  witness":
            print(f"    {witnesses[0]}")
        else:
            print(f"{name}: {status}")
    return EXIT_CHECK_FAILED if report.failed else EXIT_OK


def cmd_qlo(args) -> int:
    model, defaults = load_config(args.config)
    spec = model.flat_spec()
    pattern = _resolve_pattern(args, defaults, spec)
    P = cs.ConeSemigroup(spec, pattern)
    a = _parse_vector(args.a, spec.rank)
    b = _parse_vector(args.b, spec.rank)
    bound = args.bound if args.bound is not None else defaults.get("bound", 8)
    ubs = cs.minimal_common_upper_bounds(P, a, b, bound)
    for u in ubs:
        print(f"({','.join(map(str, u))})")
    tag = (
        "least upper bound"
        if len(ubs) == 1
        else f"{len(ubs)} minimal upper bounds (no least upper bound)"
    )
    print(tag)
    return EXIT_OK


def cmd_product(args) -> int:
    factors = []
    for path in args.slices:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read slice {path}: {exc}") from exc
        try:
            factors.append(pg.slice_from_json_dict(data))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    result = pg.external_product(factors)
    out = Path(args.out)
    if args.format == "dot":
        out.write_text(pg.slice_to_dot(result))
    else:
        out.write_text(json.dumps(pg.slice_to_json_dict(result), indent=2) + "\n")
    print(
        f"wrote {out} ({len(result.levels)} levels, {len(result.vertices)} vertices, "
        f"{len(result.edges)} edges)"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pgraphs",
        description="cone semigroups and truncated coset graphs of flat-group actions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and check a model config")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("semigroups", help="admissible sign patterns with generators")
    p.add_argument("config")
    p.add_argument(
        "--bound", type=_int_at_least(1), default=None, help="generator search bound"
    )
    p.set_defaults(func=cmd_semigroups)

    p = sub.add_parser("graph-build", help="build and export a slice")
    p.add_argument("config")
    p.add_argument("--pattern", help="sign pattern, e.g. +1+2-3")
    p.add_argument("--depth", type=_int_at_least(0), default=None)
    p.add_argument("--bound", type=_int_at_least(1), default=None)
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_graph_build)

    p = sub.add_parser("graph-check", help="run structural checks on a slice")
    p.add_argument("config")
    p.add_argument("--pattern")
    p.add_argument("--depth", type=_int_at_least(0), default=None)
    p.add_argument("--bound", type=_int_at_least(1), default=None)
    p.add_argument(
        "--checks",
        default="all",
        help="'all' or comma list of rooted,factorization,fibers,regularity,product",
    )
    p.add_argument("--regularity-depth", type=_int_at_least(0), default=None)
    p.set_defaults(func=cmd_graph_check)

    p = sub.add_parser("qlo", help="minimal common upper bounds of a pair")
    p.add_argument("config")
    p.add_argument("--pattern")
    p.add_argument("--a", required=True, help="comma vector, e.g. 1,0")
    p.add_argument("--b", required=True)
    p.add_argument("--bound", type=_int_at_least(1), default=None)
    p.set_defaults(func=cmd_qlo)

    p = sub.add_parser("product", help="external product of exported slices")
    p.add_argument("slices", nargs="+", help="exported slice JSON files")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_product)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificationFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except PGraphsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
