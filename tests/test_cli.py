import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pgraphs
from pgraphs.cli import bundled_config_path, main

GOLDEN_DIR = Path(__file__).parent / "goldens"


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
    ]
    bad = tmp_path / "bad.json"
    for payload, name in cases:
        bad.write_text(json.dumps(payload))
        code, _, err = run(capsys, "product", str(bad), "--out", str(tmp_path / "p.json"))
        assert code == 2 and name in err


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


def test_cli_import_does_not_load_networkx():
    src = str(Path(pgraphs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, pgraphs.cli; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
