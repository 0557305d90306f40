import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import pgraphs
from pgraphs import cli
from pgraphs.cli import bundled_config_path, main

GOLDEN_DIR = Path(__file__).parent / "goldens"
WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "name",
    ["example_5_1", "example_5_2", "example_5_3", "moller_tree", "coprime_2_3"],
)
def test_validate_bundled_configs(capsys, name):
    path = bundled_config_path(name)
    assert path.exists()
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0 and out.startswith("valid:")


def test_validate_bad_configs(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    code, _, err = run(capsys, "validate", str(empty))
    assert code == 2 and "invalid JSON" in err

    composite = tmp_path / "composite.json"
    composite.write_text(
        json.dumps({"kind": "padic", "rank": 1, "rows": [{"prime": 4, "exponents": [1]}]})
    )
    code, _, err = run(capsys, "validate", str(composite))
    assert code == 2 and "not prime" in err

    code, _, err = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2


def test_semigroups_table(capsys):
    code, out, _ = run(capsys, "semigroups", str(bundled_config_path("example_5_2")))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "6 admissible patterns"
    body = "\n".join(lines)
    assert "+1+2+3" in body and "2^(2n1+2n2)" in body
    assert "(1,-1) (1,0)" in body and "2^(2n1+n2)" in body

    code2, out2, _ = run(capsys, "semigroups", str(bundled_config_path("example_5_2")))
    assert out2 == out  # deterministic


def test_semigroups_tree(capsys):
    code, out, _ = run(capsys, "semigroups", str(bundled_config_path("moller_tree")))
    assert code == 0
    assert out.strip().splitlines()[-1] == "2 admissible patterns"
    assert "3^(n1)" in out


def test_semigroups_square_rank4_golden(capsys):
    # five rows of rank 4 around the cone over a square: 12 of the 28
    # admissible cones are not simplicial
    code, out, _ = run(capsys, "semigroups", str(GOLDEN_DIR / "square_rank4.json"))
    assert code == 0
    assert out.encode() == (GOLDEN_DIR / "square_rank4.txt").read_bytes()


def test_graph_build_deterministic(capsys, tmp_path):
    cfg = str(bundled_config_path("example_5_3"))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "graph-build", cfg, "--depth", "2", "--out", str(out1))[0] == 0
    assert run(capsys, "graph-build", cfg, "--depth", "2", "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert len(data["levels"]) == 9
    assert {tuple(e["x"]): e["size"] for e in data["levels"]}[(2, 0)] == 16


def test_graph_build_depth_zero(capsys, tmp_path):
    cfg = str(bundled_config_path("example_5_1"))
    out = tmp_path / "point.json"
    assert run(capsys, "graph-build", cfg, "--depth", "0", "--out", str(out))[0] == 0
    data = json.loads(out.read_text())
    assert len(data["vertices"]) == 1 and not data["edges"]


def test_graph_build_dot_golden(capsys, tmp_path):
    cfg = str(bundled_config_path("example_5_1"))
    out = tmp_path / "g.dot"
    code, _, _ = run(
        capsys, "graph-build", cfg, "--depth", "3", "--format", "dot", "--out", str(out)
    )
    assert code == 0
    assert out.read_bytes() == (GOLDEN_DIR / "example_5_1_d3.dot").read_bytes()


def test_graph_build_json_golden(capsys, tmp_path):
    cfg = str(bundled_config_path("example_5_3"))
    out = tmp_path / "g.json"
    argv = ("graph-build", cfg, "--pattern=+1+2", "--depth", "2", "--out", str(out))
    assert run(capsys, *argv)[0] == 0
    assert out.read_bytes() == (GOLDEN_DIR / "example_5_3_d2.json").read_bytes()


def test_product_dot_golden(capsys, tmp_path):
    a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "p.dot"
    for name, path, *pattern in (("example_5_1", a, "--pattern=+1+2"), ("moller_tree", b)):
        cfg = str(bundled_config_path(name))
        argv = ("graph-build", cfg, *pattern, "--depth", "1", "--out", str(path))
        assert run(capsys, *argv)[0] == 0
    code, _, _ = run(capsys, "product", str(a), str(b), "--format", "dot", "--out", str(out))
    assert code == 0
    golden = GOLDEN_DIR / "product_5_1_d1_x_moller_tree_d1.dot"
    assert out.read_bytes() == golden.read_bytes()


def test_graph_check_all(capsys):
    code, out, _ = run(
        capsys,
        "graph-check",
        str(bundled_config_path("example_5_2")),
        "--depth",
        "2",
    )
    assert code == 0
    assert "rooted: PASS" in out
    assert "factorization: PASS" in out
    assert "fibers: PASS" in out
    assert "regularity: PASS" in out
    assert "product-of-trees: not_product" in out


CHECK_LADDER = [("moller_tree", "+1", (4, 5, 6)), ("example_5_2", "+1+2+3", (3, 4)),
                ("example_5_3", "+1+2", (2, 3)), ("coprime_2_3", "+1+2", (3, 4)),
                ("example_5_1", "+1+2", (4, 5))]


def _graph_check_transcript(capsys) -> str:
    """Each ladder job's command, stdout and exit code, in ladder order."""
    parts = []
    for name, pattern, depths in CHECK_LADDER:
        for depth in depths:
            argv = (f"--pattern={pattern}", "--depth", str(depth), "--bound", "16",
                    "--checks", "all")
            code, out, _ = run(capsys, "graph-check", str(bundled_config_path(name)), *argv)
            parts.append(f"$ graph-check {name}.json {' '.join(argv)}\n{out}exit {code}\n")
    return "".join(parts)


def test_graph_check_all_golden(capsys):
    golden = GOLDEN_DIR / "graph_check_all.txt"
    assert _graph_check_transcript(capsys) == golden.read_text()


def test_ladder_checks_take_the_pass_paths(monkeypatch):
    # every ladder slice passes the rooted check, so no per-vertex failure
    # path runs, and the cached rooted report is read without the public check
    from pgraphs import cone_semigroup as cs
    from pgraphs import pgraph as pg

    def refuse(*args, **kwargs):
        raise AssertionError("a failure path ran")

    monkeypatch.setattr(pg.PGraphSlice, "succ", property(refuse))
    monkeypatch.setattr(pg.PGraphSlice, "walk_back", refuse)
    for name in ("_rooted_failures", "_factorization_by_enumeration", "_regularity_by_matcher",
                 "descendant_cone", "cones_isomorphic"):
        monkeypatch.setattr(pg, name, refuse)
    rooted_calls = []
    rooted = pg.check_rooted_strongly_simple
    monkeypatch.setattr(pg, "check_rooted_strongly_simple",
                        lambda s: rooted_calls.append(s) or rooted(s))

    jobs = [(name, pattern, depth) for name, pattern, depths in CHECK_LADDER for depth in depths]
    blocks = (GOLDEN_DIR / "graph_check_all.txt").read_text().split("$ ")[1:]
    assert len(blocks) == len(jobs) == 11
    for (name, pattern, depth), block in zip(jobs, blocks):
        model, _ = cli.load_config(bundled_config_path(name))
        P = cs.ConeSemigroup(model.flat_spec(), cs.SignPattern.parse(pattern))
        s = pg.build_slice(P, cs.minimal_generators(P, 16), model, depth)
        lines, failed = cli._run_checks(s, [*cli.STRUCTURAL_CHECKS, "product"], depth - 1)
        assert [*lines, f"exit {int(failed)}"] == block.splitlines()[1:]
        assert rooted_calls == [s]
        rooted_calls.clear()


def test_regularity_depth_past_the_slice_stops_early(capsys):
    # no level of the d=2 slice holds a depth-3 cone, so depth 10^5 must
    # stop listing generator sums as soon as no level is left
    argv = ("graph-check", str(bundled_config_path("example_5_2")), "--depth", "2",
            "--checks", "regularity", "--regularity-depth")
    shallow = run(capsys, *argv, "3")
    start = time.perf_counter()
    deep = run(capsys, *argv, "100000")
    assert time.perf_counter() - start < 1
    assert deep[:2] == shallow[:2] == (0, "regularity: PASS\n")


def test_graph_check_moller(capsys):
    code, out, _ = run(
        capsys, "graph-check", str(bundled_config_path("moller_tree")), "--depth", "3"
    )
    assert code == 0 and "product-of-trees: product_of_trees" in out


def test_graph_check_unknown_check(capsys):
    code, _, err = run(
        capsys,
        "graph-check",
        str(bundled_config_path("moller_tree")),
        "--checks",
        "nonsense",
    )
    assert code == 2 and "unknown check" in err


def test_graph_check_validates_checks_before_building(capsys, monkeypatch, tmp_path):
    def no_build(*args):
        raise AssertionError("built a slice for an invalid --checks")

    monkeypatch.setattr(cli, "_build_from_args", no_build)
    cfg = str(bundled_config_path("example_5_2"))
    for argv in (
        [cfg, "--pattern=+1+2+3", "--checks", "rooted,bogus"],
        [cfg, "--pattern=+1+2", "--checks", "bogus"],  # the pattern is wrong too
        [str(tmp_path / "missing.json"), "--checks", "bogus"],
    ):
        code, out, err = run(capsys, "graph-check", *argv)
        assert (code, out) == (2, "") and "unknown check 'bogus'" in err


SLICE_TOO_LARGE = {"kind": "padic", "rank": 2, "rows": [
    {"prime": 3, "exponents": [1, 1]}, {"prime": 7, "exponents": [-1, 1]}]}


@pytest.mark.parametrize("command", ["graph-build", "graph-check"])
def test_a_slice_too_large_exits_2_naming_depth(capsys, monkeypatch, tmp_path, command):
    # about 2.5e10 vertices at depth 6; the build used to end in MemoryError
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SLICE_TOO_LARGE))
    out = tmp_path / "x.json"
    argv = [command, str(cfg), "--pattern=+1+2", "--depth", "6"]
    if command == "graph-build":
        argv += ["--out", str(out)]
    with monkeypatch.context() as patch:
        patch.setattr(pgraphs.pgraph, "fiber", None)  # refused before any fiber is listed
        start = time.perf_counter()
        code, stdout, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
    assert (code, stdout) == (2, "") and not out.exists()
    assert err == (
        "config error: --depth 6: the slice would hold 24726434461 vertices, "
        f"above the limit {pgraphs.pgraph.MAX_SLICE_VERTICES}; lower --depth\n"
    )
    argv[argv.index("6")] = "2"
    assert run(capsys, *argv)[0] == 0


def test_product_too_large_exits_2(capsys, monkeypatch, tmp_path):
    cfg = str(bundled_config_path("example_5_2"))
    factor = str(tmp_path / "d4.json")
    assert run(capsys, "graph-build", cfg, "--pattern=+1+2+3", "--depth", "4", "--out", factor)[0] == 0
    out = tmp_path / "p.json"
    monkeypatch.setattr(pgraphs.pgraph, "mixed_radix", None)  # refused before expanding
    code, _, err = run(capsys, "product", factor, factor, "--out", str(out))
    assert code == 2 and not out.exists()
    assert "the product would hold 2537649 vertices" in err  # 1593 squared


def test_qlo(capsys):
    code, out, _ = run(
        capsys,
        "qlo",
        str(bundled_config_path("example_5_3")),
        "--a",
        "1,0",
        "--b",
        "1,-1",
    )
    assert code == 0
    assert out.splitlines() == [
        "(2,-1)",
        "(2,0)",
        "2 minimal upper bounds (no least upper bound)",
    ]

    code, out, _ = run(
        capsys,
        "qlo",
        str(bundled_config_path("example_5_1")),
        "--a",
        "1,0",
        "--b",
        "0,1",
    )
    assert code == 0 and out.splitlines() == ["(1,1)", "least upper bound"]


def test_product_command(capsys, tmp_path):
    tree2 = tmp_path / "tree2.json"
    tree2.write_text(
        json.dumps(
            {"kind": "tree", "valencies": [2], "defaults": {"pattern": "+1", "depth": 2}}
        )
    )
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(capsys, "graph-build", str(tree2), "--out", str(a))[0] == 0
    assert (
        run(
            capsys,
            "graph-build",
            str(bundled_config_path("moller_tree")),
            "--depth",
            "2",
            "--out",
            str(b),
        )[0]
        == 0
    )
    out = tmp_path / "prod.json"
    assert run(capsys, "product", str(a), str(b), "--out", str(out))[0] == 0
    data = json.loads(out.read_text())
    sizes = {tuple(e["x"]): e["size"] for e in data["levels"]}
    assert sizes[(2, 2)] == 4 * 9 and sizes[(1, 2)] == 2 * 9


@pytest.mark.parametrize(
    "argv, option",
    [
        (("graph-build", "--depth", "-1", "--out", "x.json"), "--depth"),
        (("graph-check", "--depth", "-1"), "--depth"),
        (("graph-check", "--regularity-depth", "-1"), "--regularity-depth"),
        (("graph-build", "--bound", "0", "--out", "x.json"), "--bound"),
        (("semigroups", "--bound", "0"), "--bound"),
        (("qlo", "--a", "1,0", "--b", "0,1", "--bound", "0"), "--bound"),
    ],
)
def test_bad_numeric_options(capsys, tmp_path, argv, option):
    command, *rest = (str(tmp_path / a) if a == "x.json" else a for a in argv)
    cfg = str(bundled_config_path("example_5_1"))
    code, out, err = run(capsys, command, cfg, *rest)
    assert code == 2 and not out
    assert f"argument {option}: must be >=" in err


def test_bad_config_defaults(capsys, tmp_path):
    cfg = tmp_path / "neg.json"
    cfg.write_text(json.dumps({"kind": "tree", "valencies": [2], "defaults": {"depth": -1}}))
    code, _, err = run(capsys, "graph-build", str(cfg), "--out", str(tmp_path / "x.json"))
    assert code == 2 and "defaults.depth" in err


def test_product_rejects_malformed_slices(capsys, tmp_path):
    good = tmp_path / "good.json"
    cfg = str(bundled_config_path("moller_tree"))
    assert run(capsys, "graph-build", cfg, "--depth", "1", "--out", str(good))[0] == 0
    data = json.loads(good.read_text())
    edge = dict(data["edges"][0], to=len(data["vertices"]))
    cases = [
        (dict(data, edges=[edge] + data["edges"][1:]), "edges[0].to"),
        ({k: v for k, v in data.items() if k != "vertices"}, "vertices"),
        (dict(data, levels=data["levels"] + [{"x": [5], "size": 0}]), "levels[2].x"),
        (dict(data, vertices=data["vertices"] + data["vertices"][1:2]),
         "vertices[4]: duplicates vertices[1]"),
        (dict(data, levels=[dict(data["levels"][0], size=5)] + data["levels"][1:]),
         "levels[0].size"),
        (dict(data, levels=[data["levels"][0], dict(data["levels"][1], size="two")]),
         "levels[1].size"),
        (dict(data, levels=data["levels"] + data["levels"][1:]),
         "levels[2].x: duplicates levels[1]"),
        (
            {
                "levels": [{"x": [0], "size": 1}, {"x": [1], "size": 2}],
                "vertices": [{"level": [i], "residues": [0]} for i in (0, 1, 1)],
                "edges": [{"from": 0, "to": 1, "gen": 0}, {"from": 0, "to": 2, "gen": 0}],
            },
            "vertices[2]: duplicates vertices[1]",
        ),
        (  # generator steps (1,) and (-1,): a cycle of levels
            {
                "levels": [{"x": [0], "size": 1}, {"x": [1], "size": 1}],
                "vertices": [{"level": [0], "residues": []}, {"level": [1], "residues": [0]}],
                "edges": [{"from": 0, "to": 1, "gen": 0}, {"from": 1, "to": 0, "gen": 1}],
            },
            "edges: generator steps form a cycle",
        ),
    ]
    cases.append(({"levels": 3}, "levels: array required"))
    bad = tmp_path / "bad.json"
    for payload, name in cases:
        bad.write_text(json.dumps(payload))
        code, _, err = run(capsys, "product", str(bad), "--out", str(tmp_path / "p.json"))
        assert code == 2 and err.startswith(f"slice error: {bad}: ") and name in err
    for text in (None, "{"):  # a missing file, and one that is not JSON
        bad.unlink(missing_ok=True)
        if text is not None:
            bad.write_text(text)
        code, _, err = run(capsys, "product", str(bad), "--out", str(tmp_path / "p.json"))
        assert code == 2 and err.startswith(f"slice error: {bad}: cannot read: ")


@pytest.mark.parametrize("command", ["validate", "product"])
@pytest.mark.parametrize(
    "content", [b"\xff\xfe{\x00}\x00", b"[" * 200000], ids=["utf16-bom", "nested-200000"]
)
def test_undecodable_or_deeply_nested_file_exits_2_naming_it(capsys, tmp_path, command, content):
    # a file that is not UTF-8 raised UnicodeDecodeError, and one nested
    # past the recursion limit RecursionError, each with a traceback
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    out_args = ("--out", str(tmp_path / "p.json")) if command == "product" else ()
    code, out, err = run(capsys, command, str(bad), *out_args)
    kind = "config" if command == "validate" else "slice"
    assert (code, out) == (2, "")
    assert err.startswith(f"{kind} error: ") and str(bad) in err and "Traceback" not in err


def _config(tmp_path, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _padic(rank, rows, **extra):
    rows = [{"prime": p, "exponents": list(e)} for p, e in rows]
    return {"kind": "padic", "rank": rank, "rows": rows, **extra}


def _unit_rows(n, rank):
    return [(2, tuple(int(i == j % rank) for i in range(rank))) for j in range(n)]


MALFORMED = [
    # id, argv, config payloads by name, the field the message must name
    ("pattern-syntax", ("graph-build", "5_2", "--pattern", "foo", "--out", "x.json"), {},
     "--pattern"),
    ("pattern-both-signs", ("graph-check", "5_2", "--pattern", "+1-1+2"), {}, "--pattern"),
    ("pattern-index-0", ("qlo", "5_2", "--pattern", "+0", "--a", "1,0", "--b", "0,1"), {},
     "--pattern"),
    ("pattern-not-full", ("graph-build", "5_2", "--pattern", "+1+2", "--out", "x.json"), {},
     "--pattern"),
    ("default-pattern-type", ("graph-build", "cfg", "--out", "x.json"),
     {"cfg": _padic(1, [(2, (1,))], defaults={"pattern": 12})}, "defaults.pattern"),
    ("out-unwritable", ("graph-build", "5_2", "--out", "missing/dir/x.json"), {}, "--out"),
    ("rank-bool", ("validate", "cfg"), {"cfg": _padic(True, [(2, (True,)), (2, (1,))])},
     "rank"),
    ("exponent-bool", ("validate", "cfg"), {"cfg": _padic(1, [(2, (True,)), (2, (1,))])},
     "rows[0].exponents"),
    ("prime-bool", ("validate", "cfg"), {"cfg": _padic(1, [(True, (1,))])}, "rows[0].prime"),
    ("17-rows", ("validate", "cfg"), {"cfg": _padic(2, _unit_rows(17, 2))}, "components"),
    ("rank-17", ("validate", "cfg"), {"cfg": _padic(17, _unit_rows(17, 17))}, "rank"),
    ("valency-1", ("validate", "cfg"), {"cfg": {"kind": "tree", "valencies": [1]}},
     "valencies[0]"),
    ("valency-bool", ("validate", "cfg"), {"cfg": {"kind": "tree", "valencies": [3, True]}},
     "valencies[1]"),
    ("prime-undecided", ("validate", "cfg"), {"cfg": _padic(1, [(2**89 - 1, (1,))])},
     "rows[0].prime"),
    ("qlo-a-outside-cone", ("qlo", "5_3", "--pattern", "+1+2", "--a=-1,0", "--b", "1,1"), {},
     "--a: (-1,0)"),
    ("qlo-b-outside-cone", ("qlo", "5_3", "--pattern", "+1+2", "--a", "1,1", "--b", "0,1"), {},
     "--b: (0,1)"),
    ("qlo-bad-vector", ("qlo", "5_3", "--pattern", "+1+2", "--a", "1,1", "--b", "1,x"), {},
     "--b: bad vector"),
]


@pytest.mark.parametrize(
    "argv, configs, field", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
)
def test_malformed_input_exits_2_naming_the_field(capsys, tmp_path, argv, configs, field):
    paths = {name: _config(tmp_path, name, payload) for name, payload in configs.items()}
    paths["5_2"] = str(bundled_config_path("example_5_2"))
    paths["5_3"] = str(bundled_config_path("example_5_3"))
    paths["x.json"] = str(tmp_path / "x.json")
    paths["missing/dir/x.json"] = str(tmp_path / "missing" / "dir" / "x.json")
    code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert (code, out) == (2, "")
    assert field in err and "Traceback" not in err


def test_validate_large_prime_is_fast(capsys, tmp_path):
    cfg = _config(tmp_path, "cfg", _padic(1, [(2**61 - 1, (1,))]))
    start = time.perf_counter()
    code, out, _ = run(capsys, "validate", cfg)
    assert time.perf_counter() - start < 0.5
    assert code == 0 and out == f"valid: kind=padic rank=1 components=1 scales={2**61 - 1}\n"


@pytest.mark.parametrize(
    "argv, source, pattern",
    [
        (("graph-build", "5_2", "--pattern", "+1+2", "--out", "x.json"), "--pattern", "+1+2"),
        (("graph-build", "5_2", "--pattern", "+1+2+3+4", "--out", "x.json"), "--pattern",
         "+1+2+3+4"),
        (("qlo", "5_2", "--pattern", "+1+2", "--a", "1,0", "--b", "0,1"), "--pattern", "+1+2"),
        (("qlo", "5_2", "--pattern", "+1+2+3+4", "--a", "1,0", "--b", "0,1"), "--pattern",
         "+1+2+3+4"),
        (("graph-build", "partial", "--out", "x.json"), "defaults.pattern", "+1+2"),
        (("qlo", "partial", "--a", "1,0", "--b", "0,1"), "defaults.pattern", "+1+2"),
        (("graph-build", "5_2", "--pattern", "+1+2+5", "--out", "x.json"), "--pattern",
         "+1+2+5"),
    ],
)
def test_a_pattern_that_does_not_cover_the_components_exits_2(capsys, tmp_path, argv, source,
                                                               pattern):
    # example_5_2 has three components
    rows = [(2, (1, 0)), (2, (1, 1)), (2, (0, 1))]
    paths = {
        "5_2": str(bundled_config_path("example_5_2")),
        "partial": _config(tmp_path, "partial", _padic(2, rows, defaults={"pattern": "+1+2"})),
        "x.json": str(tmp_path / "x.json"),
    }
    code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert (code, out) == (2, "")
    problem = {  # a pattern that names a component above 3 is refused for that index
        "+1+2": "does not cover all 3 components",
        "+1+2+3+4": "names component 4, but the spec has 3",
        "+1+2+5": "names component 5, but the spec has 3",
    }[pattern]
    assert err == f"config error: {source}: pattern {pattern} {problem}\n"
    assert not (tmp_path / "x.json").exists()


_OPTION_PAIRS = [
    (command, flag)
    for command, (*_, options) in cli._COMMANDS.items()
    for flag, _ in options
]


@pytest.mark.parametrize("command, flag", _OPTION_PAIRS)
def test_flag_equals_double_dash_is_a_usage_error(capsys, monkeypatch, tmp_path, command, flag):
    # argparse before Python 3.13 reads `--flag=--` as an empty list and
    # later versions as the literal `--` (for --out, a file named `--`);
    # the line is refused the same way on every version
    monkeypatch.chdir(tmp_path)
    _, _, (positional, _), options = cli._COMMANDS[command]
    if positional == "slices":
        build = ["graph-build", str(bundled_config_path("moller_tree")), "--depth", "1"]
        assert main([*build, "--out", "slice.json"]) == 0
        argv = [command, "slice.json"]
    else:
        argv = [command, str(bundled_config_path("example_5_2"))]
    required = {"--out": "out.json", "--a": "1,0", "--b": "0,1"}
    for other, kwargs in options:
        if kwargs.get("required") and other != flag:
            argv += [other, required[other]]
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    code, out, err = run(capsys, *argv, f"{flag}=--")
    assert (code, out) == (2, "")
    assert err == f"pgraphs {command}: error: argument {flag}: expected one argument\n"
    assert sorted(tmp_path.iterdir()) == before


def test_abbreviated_flag_equals_double_dash_is_a_usage_error(capsys, monkeypatch, tmp_path):
    # argparse reads --ou as --out, the one flag it abbreviates
    monkeypatch.chdir(tmp_path)
    cfg = str(bundled_config_path("moller_tree"))
    code, out, err = run(capsys, "graph-build", cfg, "--depth", "1", "--ou=--")
    assert (code, out) == (2, "")
    assert err == "pgraphs graph-build: error: argument --out: expected one argument\n"
    assert list(tmp_path.iterdir()) == []


def test_inadmissible_pattern_exits_1(capsys):
    cfg = str(bundled_config_path("example_5_2"))
    code, out, err = run(capsys, "graph-check", cfg, "--pattern", "+1-2+3")
    assert (code, out) == (1, "") and "not admissible" in err


def test_semigroups_certification_bound_too_small(capsys):
    code, _, err = run(
        capsys, "semigroups", str(bundled_config_path("example_5_3")), "--bound", "1"
    )
    assert code == 1 and "bound" in err


def padic_config(tmp_path, exponent_rows):
    path = tmp_path / "cfg.json"
    rows = [{"prime": 2, "exponents": list(e)} for e in exponent_rows]
    path.write_text(json.dumps({"kind": "padic", "rank": 2, "rows": rows}))
    return str(path)


def test_semigroups_names_needed_bound(capsys, tmp_path):
    # the extreme ray (10,1) has layer norm 17; the certificate needs 19
    cfg = padic_config(tmp_path, [(1, 0), (0, 7), (1, -10)])
    code, out, err = run(capsys, "semigroups", cfg)
    assert code == 1 and out == "" and "19" in err
    # pattern -1-2+3 has eleven generators and needs 34
    code, _, err = run(capsys, "semigroups", cfg, "--bound", "19")
    assert code == 1 and "34" in err
    code, out, _ = run(capsys, "semigroups", cfg, "--bound", "34")
    assert code == 0
    assert ["+1+2+3", "(1,0)", "(10,1)", "2^(2n1-3n2)"] in [r.split() for r in out.splitlines()]


def test_semigroups_names_the_long_ray_rank3_bound(capsys, tmp_path):
    # pattern +1-2-3+4 has fifteen generators and needs 54
    cfg = tmp_path / "rank3.json"
    rows = [(-1, 0, 2), (0, -2, 1), (2, -2, -1), (2, 1, 0)]
    cfg.write_text(json.dumps(
        {"kind": "padic", "rank": 3, "rows": [{"prime": 2, "exponents": list(e)} for e in rows]}
    ))
    code, out, err = run(capsys, "semigroups", str(cfg))
    assert code == 1 and out == "" and "54" in err


def test_qlo_names_needed_bound(capsys, tmp_path):
    cfg = padic_config(tmp_path, [(-4, -2), (-1, 3)])
    argv = ("qlo", cfg, "--pattern", "+1+2", "--a=-4,-1", "--b=-1,2")
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "21" in err
    code, out, _ = run(capsys, *argv, "--bound", "21")
    assert code == 0 and out.splitlines() == [
        "(-7,0)",
        "(-5,1)",
        "2 minimal upper bounds (no least upper bound)",
    ]


def test_run_checks_flags_corrupted_slice():
    import dataclasses

    from pgraphs import cone_semigroup as cs
    from pgraphs import pgraph as pg
    from pgraphs.cli import _run_checks, load_config

    model, _ = load_config(bundled_config_path("example_5_2"))
    P = cs.ConeSemigroup(model.flat_spec(), cs.SignPattern.parse("+1+2+3"))
    s = pg.build_slice(P, cs.minimal_generators(P, 16), model, 2)
    edges = list(s.edges)
    u, w, g = edges[-1]
    other = next(t for t in s.fiber_at(s.vertices[w].level) if t != w)
    edges[-1] = (u, other, g)
    corrupted = dataclasses.replace(s, edges=tuple(sorted(edges)))
    lines, failed = _run_checks(corrupted, ["rooted"], 1)
    assert failed
    assert lines[0] == "rooted: FAIL" and lines[1].startswith("    ")


def test_usage_error(capsys):
    assert main([]) == 2
    assert main(["graph-build", "nope.json", "--out", "x"]) == 2


def test_one_parser_serves_a_usage_error_and_then_valid_commands(capsys, tmp_path):
    cfg = str(bundled_config_path("example_5_2"))
    out = str(tmp_path / "s.json")
    calls = [
        ["graph-build", cfg, "--depth", "-1", "--out", out],
        [],
        ["semigroups", cfg, "--bound", "0"],
        ["bogus"],
        ["validate", cfg],
        ["semigroups", cfg],
        ["graph-build", cfg, "--pattern=+1+2+3", "--depth", "2", "--out", out],
        ["graph-check", cfg, "--pattern=+1+2+3", "--depth", "2"],
        ["qlo", cfg, "--pattern=+1+2+3", "--a=1,0", "--b=0,1"],
        ["--help"],
    ]
    cli.build_parser.cache_clear()
    reused = [run(capsys, *argv) for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [2, 2, 2, 2, 0, 0, 0, 0, 0, 0]
    # the valid commands are plain, so they run without building the parser
    cli.build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls[4:-1]] == reused[4:-1]
    assert cli.build_parser.cache_info().misses == 0


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="argparse's help and error wording differs by Python version "
    "(3.10 prints 'optional arguments:'); the golden is Python 3.11's",
)
def test_help_and_usage_errors_golden(capsys, monkeypatch):
    # argparse's bytes for help and usage errors, each command replayed
    # from the golden's `$ pgraphs` lines at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    golden = (GOLDEN_DIR / "cli_usage.txt").read_text()
    parts = []
    for line in golden.splitlines():
        if line.startswith("$ pgraphs"):
            code, out, err = run(capsys, *line[len("$ pgraphs"):].split())
            parts.append(f"{line}\n--- stdout\n{out}--- stderr\n{err}exit {code}\n")
    assert "".join(parts) == golden


@pytest.mark.skipif(not WORKLOADS.exists(), reason="benchmarks/ is not present")
def test_plain_parser_reads_every_benchmark_job():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    argvs = [
        list(job.argv)
        for name in ("check", "build_export", "search", "smoke")
        for seed in range(1, 6)
        for job in workloads.make_inputs(name, seed)[1]
    ]
    assert argvs
    for argv in argvs:
        args = cli._parse_plain(argv)
        assert args is not None, argv
        assert vars(args) == vars(cli.build_parser().parse_args(argv))


_FLAGS = sorted({flag for *_, options in cli._COMMANDS.values() for flag, _ in options})
_ARGV_VALUES = ("3", "0", "-1", "", "-1,0", "1,0", "json", "xml", "--", "-h", "-", "c.json")


@st.composite
def _argvs(draw):
    """A command name (or not); most of its flags, each exact, and maybe
    one more flag, exact, abbreviated or repeated; in `=` or space form
    and shuffled; values valid or not; and one or two bare values, each
    put anywhere among them."""
    command = draw(st.sampled_from([*cli._COMMANDS, "qlo-", "-h", ""]))
    options = cli._COMMANDS[command][3] if command in cli._COMMANDS else ()
    flags = [flag for flag, _ in options if draw(st.integers(0, 3))]
    noise = st.sampled_from([*_FLAGS, *(f[:4] for f in _FLAGS), "--help"])
    tokens = []
    for flag in draw(st.permutations(flags + draw(st.lists(noise, max_size=1)))):
        valid = "json" if flag == "--format" else "3"
        value = draw(st.one_of(st.just(valid), st.sampled_from(_ARGV_VALUES)))
        tokens += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    for value in draw(st.lists(st.sampled_from(_ARGV_VALUES), min_size=1, max_size=2)):
        tokens.insert(draw(st.integers(0, len(tokens))), value)
    return [command, *tokens]


@settings(max_examples=200, deadline=None)
@given(_argvs())
@example(["qlo", "c.json", "--a=--", "--b=0,1"])  # argparse < 3.13 gives a == []
@example(["product", "a.json", "--out", "p.json", "b.json"])  # two runs of positionals
def test_plain_parser_agrees_with_argparse(argv):
    # whatever the plain parser accepts, argparse accepts with equal values
    args = cli._parse_plain(argv)
    if args is not None:
        assert args == cli.build_parser().parse_args(argv)


def test_cli_import_does_not_load_networkx():
    src = str(Path(pgraphs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, pgraphs.cli; print([m for m in ('networkx', 'fractions') if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"



@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("outcome", [0, 1, 2, "raise"])
def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch, collecting, outcome):
    import dataclasses
    import gc

    cfg = str(bundled_config_path("example_5_2"))
    argv = ["graph-check", cfg, "--pattern=+1+2+3", "--depth", "2"]
    if outcome == 2:  # the size guard refuses the build before listing a fiber
        argv[-1] = "12"
        monkeypatch.setattr(pgraphs.pgraph, "fiber", None)
    build, paused = cli._build_from_args, []

    def build_then(*args):
        paused.append(not gc.isenabled())
        if outcome == "raise":
            raise RuntimeError("not a pgraphs error")
        s = build(*args)
        if outcome != 1:
            return s
        edges = list(s.edges)  # retarget the last edge: the rooted check fails
        u, w, g = edges[-1]
        edges[-1] = (u, next(t for t in s.fiber_at(s.vertices[w].level) if t != w), g)
        return dataclasses.replace(s, edges=tuple(sorted(edges)))

    monkeypatch.setattr(cli, "_build_from_args", build_then)
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if outcome == "raise":
            with pytest.raises(RuntimeError):
                main(argv)
        else:
            assert run(capsys, *argv)[0] == outcome
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if before else gc.disable)()
    assert paused == [True]
