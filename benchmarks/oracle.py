"""Output oracle: checks each job's exit code, stdout and written files
against values the benchmark computes itself in plain integers, and
against the seed-independent counts recorded in `workloads.EXPECT`.

`check_job` returns the observed counts and a list of problems; a job
with any problem counts as failed.
"""

from __future__ import annotations

import json
import os
import re

from workloads import EXPECT, Config, Job

CHECK_LINES = ("rooted: PASS", "factorization: PASS", "fibers: PASS", "regularity: PASS")
_WROTE = re.compile(r"^wrote (\S+) \((\d+) levels, (\d+) vertices, (\d+) edges\)$")
_DOT_VERTEX = re.compile(r'^  "L([^@"]*)@([^"]*)";$')
_DOT_EDGE = re.compile(r'^  "L([^@"]*)@[^"]*" -> "L([^@"]*)@[^"]*" \[label="(\d+)"\];$')
_VEC = re.compile(r"\((-?\d+(?:,-?\d+)*)\)")


def _dot(row, x) -> int:
    return sum(a * b for a, b in zip(row, x))


def caps(cfg: Config, x) -> list[int]:
    """Residue cap per component at level x: s_j ** max(rho_j(x), 0)."""
    return [s ** max(_dot(w, x), 0) for w, s in cfg.weights()]


def fiber_size(cfg: Config, x) -> int:
    n = 1
    for c in caps(cfg, x):
        n *= c
    return n


def flipped_rho(cfg: Config, pattern: str, x) -> list[int]:
    signs = dict((int(j), s) for s, j in re.findall(r"([+-])(\d+)", pattern))
    return [(_dot(w, x) if signs[j + 1] == "+" else -_dot(w, x))
            for j, (w, _) in enumerate(cfg.weights())]


def in_cone(cfg: Config, pattern: str, x) -> bool:
    return all(c >= 0 for c in flipped_rho(cfg, pattern, x))


def _vec(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text.split(","))


# ---------------------------------------------------------------------------
# Slice files


def read_slice(path: str, fmt: str) -> dict:
    """Levels (with vertex counts), vertex/edge counts and generator
    labels of an exported slice; raises ValueError on a malformed file."""
    with open(path) as fh:
        text = fh.read()
    if fmt == "json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSON ({exc.msg})") from exc
        per_level: dict[tuple, int] = {}
        for v in data["vertices"]:
            lvl = tuple(v["level"])
            per_level[lvl] = per_level.get(lvl, 0) + 1
        listed = {tuple(e["x"]): e["size"] for e in data["levels"]}
        if listed != per_level:
            raise ValueError(f"{path}: level sizes disagree with the vertex list")
        nv = len(data["vertices"])
        for e in data["edges"]:
            if not (0 <= e["from"] < nv and 0 <= e["to"] < nv):
                raise ValueError(f"{path}: edge index out of range")
        gens = {e["gen"] for e in data["edges"]}
        return {"levels": per_level, "V": nv, "E": len(data["edges"]), "gens": len(gens)}
    lines = text.split("\n")
    if lines[0] != "digraph pgraph {" or lines[-2:] != ["}", ""]:
        raise ValueError(f"{path}: not a complete DOT digraph")
    per_level, names, n_edges, gens = {}, set(), 0, set()
    for line in lines[1:-2]:
        m = _DOT_VERTEX.match(line)
        if m:
            lvl = _vec(m.group(1))
            per_level[lvl] = per_level.get(lvl, 0) + 1
            names.add(m.group(1))
            continue
        m = _DOT_EDGE.match(line)
        if not m or m.group(1) not in names or m.group(2) not in names:
            raise ValueError(f"{path}: bad DOT line {line[:60]!r}")
        n_edges += 1
        gens.add(m.group(3))
    return {"levels": per_level, "V": sum(per_level.values()), "E": n_edges,
            "gens": len(gens)}


def _fmt(job: Job) -> str:
    return "dot" if job.out.endswith(".dot") else "json"


# ---------------------------------------------------------------------------
# Per-command checks


def _check_wrote(job: Job, stdout: str, sl: dict, problems: list) -> None:
    m = _WROTE.match(stdout.rstrip("\n"))
    if not m or stdout.count("\n") != 1:
        problems.append(f"unexpected stdout {stdout[:80]!r}")
        return
    printed = (m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4)))
    in_file = (job.out, len(sl["levels"]), sl["V"], sl["E"])
    if printed != in_file:
        problems.append(f"printed {printed} but the file holds {in_file}")


def _build(job, cfg, stdout, files, workdir, problems) -> dict:
    sl = files[job.id] = read_slice(os.path.join(workdir, job.out), _fmt(job))
    _check_wrote(job, stdout, sl, problems)
    for lvl, n in sl["levels"].items():
        if not in_cone(cfg, job.pattern, lvl):
            problems.append(f"level {lvl} lies outside the cone")
        elif n != fiber_size(cfg, lvl):
            problems.append(f"level {lvl} has {n} vertices, scale gives {fiber_size(cfg, lvl)}")
    formula = sum(fiber_size(cfg, lvl) for lvl in sl["levels"])
    if formula != sl["V"]:
        problems.append(f"V={sl['V']} but the sum of scales over levels is {formula}")
    return {"L": len(sl["levels"]), "V": sl["V"], "E": sl["E"], "gens": sl["gens"]}


def _product(job, stdout, files, workdir, problems) -> dict:
    sl = read_slice(os.path.join(workdir, job.out), _fmt(job))
    _check_wrote(job, stdout, sl, problems)
    a, b = (files[f] for f in job.factors)
    want = (len(a["levels"]) * len(b["levels"]), a["V"] * b["V"],
            a["E"] * b["V"] + a["V"] * b["E"])
    got = (len(sl["levels"]), sl["V"], sl["E"])
    if got != want:
        problems.append(f"product L/V/E {got}, factors give {want}")
    return {"L": got[0], "V": got[1], "E": got[2], "gens": sl["gens"]}


def _graph_check(job, stdout, problems) -> dict:
    lines = stdout.rstrip("\n").split("\n")
    if tuple(lines[:4]) != CHECK_LINES or len(lines) != 5:
        problems.append(f"checks did not all pass: {stdout[:200]!r}")
        return {}
    status = lines[4].removeprefix("product-of-trees: ")
    return {"status": status}


def _semigroups(job, cfg, stdout, problems) -> dict:
    lines = stdout.rstrip("\n").split("\n")
    m = re.fullmatch(r"(\d+) admissible patterns", lines[-1])
    if not m or not lines[0].startswith("pattern"):
        problems.append(f"unexpected stdout {stdout[:80]!r}")
        return {}
    rows = lines[1:-1]
    if len(rows) != int(m.group(1)):
        problems.append(f"{len(rows)} rows for {m.group(1)} patterns")
    n_gens = 0
    for row in rows:
        pattern = row.split()[0]
        sigma = [_vec(v) for v in _VEC.findall(row)]
        n_gens += len(sigma)
        for g in sigma:
            if not any(g) or not in_cone(cfg, pattern, g):
                problems.append(f"generator {g} is not a nonzero element of cone {pattern}")
    return {"patterns": len(rows), "gens": n_gens}


def _qlo(job, cfg, stdout, problems) -> dict:
    lines = stdout.rstrip("\n").split("\n")
    bounds = [_vec(v) for v in _VEC.findall(" ".join(lines[:-1]))]
    want_tag = ("least upper bound" if len(bounds) == 1
                else f"{len(bounds)} minimal upper bounds (no least upper bound)")
    if lines[-1] != want_tag or len(bounds) != len(lines) - 1:
        problems.append(f"unexpected stdout {stdout[:80]!r}")
    a, b = job.qlo_pair
    for u in bounds:
        for low in (a, b):
            diff = tuple(x - y for x, y in zip(u, low))
            if not in_cone(cfg, job.pattern, diff):
                problems.append(f"{u} is not above {low} in the cone order")
    return {"bounds": len(bounds)}


def check_job(job: Job, rec: dict, configs: dict, files: dict, workdir: str) -> tuple[dict, list]:
    """(observed counts, problems) for one job record of a round run in
    `workdir`.  `files` carries the slices read so far, for `product`."""
    problems: list[str] = []
    if rec["error"]:
        return {}, [rec["error"]]
    if rec["rc"] != 0:
        return {}, [f"exit code {rec['rc']}: {rec['stderr'][-200:]!r}"]
    cfg = configs.get(job.config)
    try:
        if job.kind == "build":
            seen = _build(job, cfg, rec["stdout"], files, workdir, problems)
        elif job.kind == "product":
            seen = _product(job, rec["stdout"], files, workdir, problems)
        elif job.kind == "check":
            seen = _graph_check(job, rec["stdout"], problems)
        elif job.kind == "semigroups":
            seen = _semigroups(job, cfg, rec["stdout"], problems)
        else:
            seen = _qlo(job, cfg, rec["stdout"], problems)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return {}, problems + [f"{type(exc).__name__}: {exc}"]
    expected = EXPECT[job.id]
    for key, value in seen.items():
        if key in expected and expected[key] != value:
            problems.append(f"{key}={value} differs from the recorded {expected[key]}")
    return seen, problems


def check_traced_sizes(job: Job, stats: dict) -> list:
    """Compare the L/V/E a traced build_slice reported with the record."""
    st = stats.get(job.id, {}).get("pgraph.build_slice")
    expected = EXPECT[job.id]
    if st is None or job.kind not in ("check", "build"):
        return []
    seen = {"L": st["levels"], "V": st["vertices"], "E": st["edges"], "gens": st["gens"]}
    return [f"traced {k}={v} differs from the recorded {expected[k]}"
            for k, v in seen.items() if expected[k] != v]
