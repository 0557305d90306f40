import json
from pathlib import Path

import pytest

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
    ]
    bad = tmp_path / "bad.json"
    for payload, name in cases:
        bad.write_text(json.dumps(payload))
        code, _, err = run(capsys, "product", str(bad), "--out", str(tmp_path / "p.json"))
        assert code == 2 and name in err


def test_semigroups_certification_bound_too_small(capsys):
    code, _, err = run(
        capsys, "semigroups", str(bundled_config_path("example_5_3")), "--bound", "1"
    )
    assert code == 1 and "bound" in err


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
    report = _run_checks(corrupted, ["rooted"], 1)
    assert report.failed
    assert any(status == "  witness" for _, status, _ in report.checks)


def test_usage_error(capsys):
    assert main([]) == 2
    assert main(["graph-build", "nope.json", "--out", "x"]) == 2
