"""Command line interface: config ingestion, scenario runs, serialization.

Subcommands::

    validate     parse and invariant-check a model config
    semigroups   table of admissible sign patterns with generators and scale
    graph-build  build a slice and export it as DOT or JSON
    graph-check  run structural checks on a slice
    qlo          minimal common upper bounds of a pair in a cone
    product      external product of previously exported slices

Exit status: 0 all checks pass, 1 check failure (witness printed),
2 usage, config or slice error.  Output files and stdout are
deterministic for identical inputs.

Each subcommand's interface is written once, in `_COMMANDS`.  A command
line in the plain form (the command's exact name, its own exact long
flags each at most once, one run of positionals, values that pass their
types and choices; see `_parse_plain`) is read straight from that
table.  Anything else, such as help, a usage error, an abbreviated or
repeated option, `--` or a value that looks like an option, goes to the
argparse parser built from the same table, so its output is argparse's.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from importlib import resources
from pathlib import Path

from . import cone_semigroup as cs
from . import coset_model as cm
from . import pgraph as pg
from .errors import CertificationFailed, ConfigError, NotApplicable, PGraphsError, SliceTooLarge

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

STRUCTURAL_CHECKS = ("rooted", "factorization", "fibers", "regularity")


def bundled_config_path(name: str) -> Path:
    """Path of a packaged example config, e.g. 'example_5_2'."""
    fname = name if name.endswith(".json") else f"{name}.json"
    return Path(str(resources.files("pgraphs").joinpath("configs", fname)))


def load_config(path: str | Path):
    """Parse and validate a model config; returns (model, defaults)."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
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
    if "pattern" in defaults and type(defaults["pattern"]) is not str:
        raise ConfigError(f"{path}: defaults.pattern: string required")
    return model, defaults


def _load_padic(data: dict, path) -> cm.PadicModel:
    rows = data.get("rows")
    if not isinstance(rows, list) or not rows:
        raise ConfigError(f"{path}: rows: non-empty array required")
    rank = data.get("rank")
    if type(rank) is not int or rank < 1:
        raise ConfigError(f"{path}: rank: positive integer required")
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ConfigError(f"{path}: rows[{i}]: object required")
        prime = row.get("prime")
        exps = row.get("exponents")
        if type(prime) is not int:
            raise ConfigError(f"{path}: rows[{i}].prime: integer required")
        if not isinstance(exps, list) or not all(type(e) is int for e in exps):
            raise ConfigError(f"{path}: rows[{i}].exponents: integer array required")
        if len(exps) != rank:
            raise ConfigError(
                f"{path}: rows[{i}].exponents: length {len(exps)} != rank {rank}"
            )
        parsed.append((prime, tuple(exps)))
    try:
        return cm.PadicModel(tuple(parsed))
    except (PGraphsError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load_tree(data: dict, path) -> cm.TreeModel:
    valencies = data.get("valencies")
    if not isinstance(valencies, list) or not valencies:
        raise ConfigError(f"{path}: valencies: non-empty integer array required")
    for i, d in enumerate(valencies):
        if type(d) is not int or d < 2:
            raise ConfigError(f"{path}: valencies[{i}]: integer >= 2 required")
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


def _resolve_cone(args, defaults, spec) -> cs.ConeSemigroup:
    """The cone of --pattern, or of the config's default pattern."""
    source, text = "--pattern", args.pattern
    if not text:
        source, text = "defaults.pattern", defaults.get("pattern")
    if not text:
        raise ConfigError("no --pattern given and config declares no default")
    try:
        return cs.ConeSemigroup(spec, cs.SignPattern.parse(text))
    except (ValueError, NotApplicable) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


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
    P = _resolve_cone(args, defaults, model.flat_spec())
    depth = args.depth if args.depth is not None else defaults.get("depth", 3)
    bound = args.bound if args.bound is not None else defaults.get("bound", 16)
    gens = cs.minimal_generators(P, norm_bound=bound)
    try:
        return pg.build_slice(P, gens, model, depth)
    except SliceTooLarge as exc:
        raise ConfigError(f"--depth {depth}: {exc}; lower --depth") from None


def _write_slice(slice_, args) -> int:
    """Export a slice to args.out in args.format and report its size."""
    out = Path(args.out)
    chunks = [pg.slice_to_dot(slice_)] if args.format == "dot" else pg.slice_to_json_chunks(slice_)
    try:
        with out.open("w") as f:
            f.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {out}: {exc}") from exc
    print(
        f"wrote {out} ({len(slice_.levels)} levels, {len(slice_.vertices)} vertices, "
        f"{len(slice_.edges)} edges)"
    )
    return EXIT_OK


def cmd_graph_build(args) -> int:
    model, defaults = load_config(args.config)
    return _write_slice(_build_from_args(args, model, defaults), args)


def _run_checks(slice_, which, regularity_depth) -> tuple[list[str], bool]:
    """The report lines of the checks in `which`, and whether any failed;
    each failed check is followed by up to five of its witnesses."""
    lines, failed = [], False
    runners = {
        "rooted": lambda: pg.check_rooted_strongly_simple(slice_),
        "factorization": lambda: pg.check_factorization(slice_),
        "fibers": lambda: pg.check_fiber_regularity(slice_),
        "regularity": lambda: pg.check_regularity(slice_, regularity_depth),
    }
    for name in which:
        if name == "product":
            continue
        result = runners[name]()
        lines.append(f"{name}: {'PASS' if result.ok else 'FAIL'}")
        if not result.ok:
            failed = True
            lines.extend(f"    {line}" for line in result.failures[:5])
    if "product" in which:
        lines.append(f"product-of-trees: {pg.check_product_of_trees(slice_).status}")
    return lines, failed


def cmd_graph_check(args) -> int:
    which = (
        list(STRUCTURAL_CHECKS) + ["product"]
        if args.checks == "all"
        else [c.strip() for c in args.checks.split(",")]
    )
    for name in which:
        if name not in STRUCTURAL_CHECKS + ("product",):
            raise ConfigError(f"unknown check {name!r}")
    model, defaults = load_config(args.config)
    slice_ = _build_from_args(args, model, defaults)
    reg_depth = (
        args.regularity_depth
        if args.regularity_depth is not None
        else max(slice_.depth - 1, 0)
    )
    lines, failed = _run_checks(slice_, which, reg_depth)
    for line in lines:
        print(line)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_qlo(args) -> int:
    model, defaults = load_config(args.config)
    P = _resolve_cone(args, defaults, model.flat_spec())
    inputs = []
    for flag, text in (("--a", args.a), ("--b", args.b)):
        try:
            v = _parse_vector(text, P.spec.rank)
        except ConfigError as exc:
            raise ConfigError(f"{flag}: {exc}") from None
        if not P.contains(v):
            raise ConfigError(f"{flag}: ({','.join(map(str, v))}) is outside the cone {P.pattern}")
        inputs.append(v)
    a, b = inputs
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


class _SliceError(PGraphsError):
    """An exported slice file cannot be read or imported; the message
    names the file and the field."""


def cmd_product(args) -> int:
    factors = []
    for path in args.slices:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise _SliceError(f"{path}: cannot read: {exc}") from exc
        try:
            factors.append(pg.slice_from_json_dict(data))
        except ValueError as exc:
            raise _SliceError(f"{path}: {exc}") from exc
    try:
        slice_ = pg.external_product(factors)
    except SliceTooLarge as exc:
        raise ConfigError(f"{exc}; multiply smaller slices") from None
    return _write_slice(slice_, args)


# ---------------------------------------------------------------------------


# Each subcommand's interface, written once and read by both parsers:
# name -> (help, function, positional, options).  The positional and each
# option are (name or flag, the keyword arguments of `add_argument`);
# every option takes one value (argparse's default "store" action).
_COMMANDS = {
    "validate": ("parse and check a model config", cmd_validate, ("config", {}), ()),
    "semigroups": (
        "admissible sign patterns with generators",
        cmd_semigroups,
        ("config", {}),
        (
            (
                "--bound",
                dict(type=_int_at_least(1), default=None, help="generator search bound"),
            ),
        ),
    ),
    "graph-build": (
        "build and export a slice",
        cmd_graph_build,
        ("config", {}),
        (
            ("--pattern", dict(help="sign pattern, e.g. +1+2-3")),
            ("--depth", dict(type=_int_at_least(0), default=None)),
            ("--bound", dict(type=_int_at_least(1), default=None)),
            ("--format", dict(choices=("dot", "json"), default="json")),
            ("--out", dict(required=True)),
        ),
    ),
    "graph-check": (
        "run structural checks on a slice",
        cmd_graph_check,
        ("config", {}),
        (
            ("--pattern", {}),
            ("--depth", dict(type=_int_at_least(0), default=None)),
            ("--bound", dict(type=_int_at_least(1), default=None)),
            (
                "--checks",
                dict(
                    default="all",
                    help="'all' or comma list of rooted,factorization,fibers,regularity,product",
                ),
            ),
            ("--regularity-depth", dict(type=_int_at_least(0), default=None)),
        ),
    ),
    "qlo": (
        "minimal common upper bounds of a pair",
        cmd_qlo,
        ("config", {}),
        (
            ("--pattern", {}),
            ("--a", dict(required=True, help="comma vector, e.g. 1,0")),
            ("--b", dict(required=True)),
            ("--bound", dict(type=_int_at_least(1), default=None)),
        ),
    ),
    "product": (
        "external product of exported slices",
        cmd_product,
        ("slices", dict(nargs="+", help="exported slice JSON files")),
        (
            ("--format", dict(choices=("dot", "json"), default="json")),
            ("--out", dict(required=True)),
        ),
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser for `_COMMANDS`, built once per process and
    shared: parsing leaves it unchanged, so every `main` call that needs
    it reuses it.  Callers must not add to it."""
    ap = argparse.ArgumentParser(
        prog="pgraphs",
        description="cone semigroups and truncated coset graphs of flat-group actions",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, func, (positional, kwargs), options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(positional, **kwargs)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return ap


def _dest(flag: str) -> str:
    """The Namespace attribute of a long flag, as argparse names it."""
    return flag[2:].replace("-", "_")


def _plain_value(kwargs: dict, text: str):
    """`text` converted by the argument's `type` and checked against its
    `choices`, as argparse does; raises ValueError or ArgumentTypeError."""
    value = kwargs["type"](text) if "type" in kwargs else text
    if "choices" in kwargs and value not in kwargs["choices"]:
        raise ValueError(value)
    return value


def _parse_plain(argv) -> argparse.Namespace | None:
    """The Namespace `build_parser().parse_args(argv)` returns, read from
    `_COMMANDS` without building the parser, when `argv` is in the plain
    form; otherwise None.

    Plain means: `argv[0]` is a command's exact name; each option is one
    of that command's exact long flags, given at most once, as
    `--flag=value` with a value other than `--`, or as `--flag value`
    with a value that does not start with `-`; every other token is a
    positional, and they form one contiguous run of one token (one or
    more for `nargs="+"`); every value passes its `type` and `choices`;
    and every required flag is given.  Help, abbreviations, repeated
    options, `--` and values that look like options are not plain, so
    argparse handles them.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, (positional, pos_kwargs), options = _COMMANDS[argv[0]]
    by_flag = dict(options)
    given: dict[str, str] = {}
    run: list[str] = []
    run_end = i = 1
    while i < len(argv):
        token = argv[i]
        i += 1
        if not token.startswith("-"):
            if run and run_end != i - 1:
                return None
            run.append(token)
            run_end = i
            continue
        flag, eq, value = token.partition("=")
        if not eq:
            if i == len(argv) or argv[i].startswith("-"):
                return None
            value = argv[i]
            i += 1
        # `--flag=--` goes to main, which refuses it on every Python version
        if flag not in by_flag or flag in given or value == "--":
            return None
        given[flag] = value
    many = pos_kwargs.get("nargs") == "+"
    if not run or (len(run) > 1 and not many):
        return None
    if any(kwargs.get("required") and flag not in given for flag, kwargs in options):
        return None
    try:
        values = [_plain_value(pos_kwargs, text) for text in run]
        parsed = {
            _dest(flag): (
                _plain_value(kwargs, given[flag]) if flag in given else kwargs.get("default")
            )
            for flag, kwargs in options
        }
    except (ValueError, argparse.ArgumentTypeError):
        return None
    return argparse.Namespace(
        command=argv[0], **{positional: values if many else values[0]}, **parsed, func=func
    )


def _double_dash_flag(argv) -> str | None:
    """The command's flag that a `--flag=--` token before any `--`
    names, matched as argparse matches it: exactly, or else by a unique
    prefix among the command's flags and `--help`; None if there is no
    such token.  Argparse before Python 3.13 reads that value as an
    empty list and later versions as the string `--`, so it is refused
    before argparse reads the line, the same way on every version."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = [flag for flag, _ in _COMMANDS[argv[0]][3]]
    for token in argv[1:]:
        if token == "--":
            break
        name, eq, value = token.partition("=")
        if name.startswith("--") and eq and value == "--":
            matches = [name] if name in flags else [
                flag for flag in (*flags, "--help") if flag.startswith(name)
            ]
            if len(matches) == 1 and matches[0] in flags:
                return matches[0]
    return None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_plain(argv)
    if args is None:
        if flag := _double_dash_flag(argv):
            print(f"pgraphs {argv[0]}: error: argument {flag}: expected one argument",
                  file=sys.stderr)
            return EXIT_USAGE
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # a command's data is acyclic tuples and ints: pause the cycle collector
    # while it runs, and leave it as it was found
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _SliceError as exc:
        print(f"slice error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificationFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except PGraphsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
