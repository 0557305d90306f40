"""Workload definitions: seeded model configs, job lists and the values
every job must reproduce.

A workload is a job list of `pgraphs` CLI invocations over generated
config files.  The seed relabels the inputs with the transforms the
workload allows:

* "swap"    -- odd seeds swap the two rank coordinates, remapping `qlo`
               vectors to match;
* "permute" -- the seed picks an order of the weight rows (components),
               remapping sign patterns to match;
* "primes"  -- the seed draws each row's prime.

Each workload allows only the transforms that leave its work unchanged,
so every seed does the same work and, except for the tree model, gives
different output bytes; the level/vertex/edge/generator counts recorded
in `EXPECT` hold for every seed, and a run whose counts differ fails
its jobs.  The transforms left out change the program's cost, which is
itself a finding about the program:

* `check` keeps the bundled labelling.  The regularity check's VF2
  matching depends on vertex order: the rows of example_5_2 reordered
  to (1,1),(1,0),(0,1) at depth 4, or example_5_3 with its coordinates
  swapped at depth 3, run past 25 s where the bundled labelling takes
  0.5 to 2.5 s.
* `search` does not permute rows: the generator search solves with the
  first independent rows as its basis, and a basis with (1,1) in it
  makes `semigroups` on rank2_q4 1.6 to 1.8 times slower.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import permutations

# Base models, as in the package's bundled configs: padic rows are
# (prime, exponents); tree models list valencies.
BASE = {
    "example_5_1": {"kind": "padic", "rows": [(2, (1, 0)), (2, (0, 1))]},
    "example_5_2": {"kind": "padic", "rows": [(2, (1, 0)), (2, (1, 1)), (2, (0, 1))]},
    "example_5_3": {"kind": "padic", "rows": [(2, (1, 1)), (2, (1, -1))]},
    "coprime_2_3": {"kind": "padic", "rows": [(2, (1, 0)), (3, (0, 1))]},
    "moller_tree": {"kind": "tree", "valencies": [3]},
    # rank-2 generator-search ladder: (1,0), (0,1) plus q-2 copies of (1,1)
    "rank2_q4": {"kind": "padic", "rows": [(2, (1, 0)), (2, (0, 1))] + [(2, (1, 1))] * 2},
    "rank2_q5": {"kind": "padic", "rows": [(2, (1, 0)), (2, (0, 1))] + [(2, (1, 1))] * 3},
}

PRIMES = (2, 3, 5, 7, 11, 13)


@dataclass(frozen=True)
class Config:
    """One seeded config.  `perm[i]` is the base row that became row i."""

    name: str
    kind: str
    rows: tuple  # ((prime, exponents), ...) for padic, valencies for tree
    perm: tuple[int, ...]
    swap: bool

    @property
    def rank(self) -> int:
        return len(self.rows[0][1]) if self.kind == "padic" else len(self.rows)

    def to_json(self) -> dict:
        if self.kind == "tree":
            return {"kind": "tree", "valencies": list(self.rows)}
        return {
            "kind": "padic",
            "rank": self.rank,
            "rows": [{"prime": p, "exponents": list(e)} for p, e in self.rows],
        }

    def pattern(self, base_text: str) -> str:
        """A base sign pattern such as '+1+2-3' in this config's row order."""
        signs = {int(j) - 1: sign for sign, j in re.findall(r"([+-])(\d+)", base_text)}
        return "".join(f"{signs[old]}{i + 1}" for i, old in enumerate(self.perm))

    def vector(self, base: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(reversed(base)) if self.swap else tuple(base)

    def weights(self) -> list[tuple[tuple[int, ...], int]]:
        """(weight row, relative scale) per component, in row order."""
        if self.kind == "tree":
            n = len(self.rows)
            return [(tuple(int(i == j) for i in range(n)), d) for j, d in enumerate(self.rows)]
        return [(e, p) for p, e in self.rows]


def make_config(name: str, seed: int, transforms: frozenset[str]) -> Config:
    base = BASE[name]
    if base["kind"] == "tree":
        n = len(base["valencies"])
        return Config(name, "tree", tuple(base["valencies"]), tuple(range(n)), False)
    rows = base["rows"]
    perms = list(permutations(range(len(rows))))
    perm = perms[(seed // 2) % len(perms)] if "permute" in transforms else perms[0]
    swap = "swap" in transforms and seed % 2 == 1
    rng = random.Random(f"{seed}:{name}")
    out = []
    for old in perm:
        prime, exps = rows[old]
        if "primes" in transforms:
            prime = rng.choice(PRIMES)
        out.append((prime, tuple(reversed(exps)) if swap else tuple(exps)))
    return Config(name, "padic", tuple(out), perm, swap)


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  `kind` selects the oracle; `out` is the file
    it writes, `factors` the job ids whose files `product` reads."""

    id: str
    kind: str  # check | build | product | semigroups | qlo
    config: str | None
    argv: tuple[str, ...]
    out: str | None = None
    factors: tuple[str, ...] = ()
    qlo_pair: tuple = ()
    pattern: str | None = None


def _vec(v) -> str:
    return ",".join(map(str, v))


def _all_plus(cfg: Config) -> str:
    q = len(cfg.rows)
    return cfg.pattern("".join(f"+{j + 1}" for j in range(q)))


def _check(cfg: Config, depth: int) -> Job:
    pattern = _all_plus(cfg)
    argv = ("graph-check", f"{cfg.name}.json", f"--pattern={pattern}",
            "--depth", str(depth), "--bound", "16", "--checks", "all")
    return Job(f"check:{cfg.name}:d{depth}", "check", cfg.name, argv, pattern=pattern)


def _build(cfg: Config, depth: int, fmt: str, out: str) -> Job:
    pattern = _all_plus(cfg)
    argv = ("graph-build", f"{cfg.name}.json", f"--pattern={pattern}",
            "--depth", str(depth), "--bound", "16", "--format", fmt, "--out", out)
    return Job(f"build:{cfg.name}:d{depth}:{fmt}", "build", cfg.name, argv, out=out,
               pattern=pattern)


def _product(a: Job, b: Job, out: str) -> Job:
    argv = ("product", a.out, b.out, "--out", out)
    return Job(f"product:{a.out}*{b.out}", "product", None, argv, out=out,
               factors=(a.id, b.id))


def _semigroups(cfg: Config, bound: int) -> Job:
    argv = ("semigroups", f"{cfg.name}.json", "--bound", str(bound))
    return Job(f"semigroups:{cfg.name}", "semigroups", cfg.name, argv)


def _qlo(cfg: Config, base_pattern: str, a, b, bound: int) -> Job:
    pattern = cfg.pattern(base_pattern)
    va, vb = cfg.vector(a), cfg.vector(b)
    argv = ("qlo", f"{cfg.name}.json", f"--pattern={pattern}",
            f"--a={_vec(va)}", f"--b={_vec(vb)}", "--bound", str(bound))
    return Job(f"qlo:{cfg.name}:b{bound}", "qlo", cfg.name, argv,
               qlo_pair=(va, vb), pattern=pattern)


def _check_jobs(c):
    ladder = [("moller_tree", (4, 5, 6)), ("example_5_2", (3, 4)), ("example_5_3", (2, 3)),
              ("coprime_2_3", (3, 4)), ("example_5_1", (4, 5))]
    return [_check(c[name], d) for name, depths in ladder for d in depths]


def _build_export_jobs(c):
    e = _build(c["example_5_1"], 4, "json", "e.json")
    f = _build(c["moller_tree"], 4, "json", "f.json")
    return [
        _build(c["example_5_3"], 5, "json", "a.json"),
        _build(c["example_5_2"], 5, "json", "b.json"),
        _build(c["moller_tree"], 8, "dot", "c.dot"),
        _build(c["coprime_2_3"], 6, "dot", "d.dot"),
        e, f, _product(e, f, "g.json"),
    ]


def _search_jobs(c):
    return [
        _semigroups(c["rank2_q4"], 16),
        _semigroups(c["rank2_q5"], 16),
        _semigroups(c["example_5_2"], 16),
        _qlo(c["example_5_2"], "+1+2+3", (1, 0), (0, 1), 16),
        _qlo(c["example_5_3"], "+1+2", (1, -1), (1, 1), 32),
    ]


def _smoke_jobs(c):
    """A tiny job list covering every command; used by the self-test."""
    s1 = _build(c["example_5_1"], 2, "json", "s1.json")
    s3 = _build(c["moller_tree"], 2, "json", "s3.json")
    return [
        s1, _build(c["moller_tree"], 2, "dot", "s2.dot"), s3, _product(s1, s3, "s4.json"),
        _check(c["coprime_2_3"], 2),
        _semigroups(c["example_5_1"], 8),
        _qlo(c["example_5_3"], "+1+2", (1, -1), (1, 1), 4),
    ]


# workload -> (configs used, seed transforms, job list factory)
WORKLOADS = {
    "check": (("moller_tree", "example_5_2", "example_5_3", "coprime_2_3", "example_5_1"),
              frozenset(), _check_jobs),
    "build_export": (("example_5_3", "example_5_2", "moller_tree", "coprime_2_3",
                      "example_5_1"), frozenset({"swap", "permute"}), _build_export_jobs),
    "search": (("rank2_q4", "rank2_q5", "example_5_2", "example_5_3"),
               frozenset({"swap", "primes"}), _search_jobs),
    "smoke": (("example_5_1", "moller_tree", "coprime_2_3", "example_5_3"),
              frozenset({"swap", "permute"}), _smoke_jobs),
}


def make_inputs(workload: str, seed: int) -> tuple[dict[str, Config], list[Job]]:
    """The seeded configs and the job list of one workload."""
    names, transforms, jobs = WORKLOADS[workload]
    configs = {n: make_config(n, seed, transforms) for n in names}
    return configs, jobs(configs)


# Seed-independent values per job id: L/V/E and generator count of the
# slice built (check, build, product); admissible patterns and total
# generator count (semigroups); minimal upper bounds (qlo); and the
# product-of-trees status graph-check reports.
EXPECT = {
    "check:moller_tree:d4": {"L": 5, "V": 121, "E": 120, "gens": 1, "status": "product_of_trees"},
    "check:moller_tree:d5": {"L": 6, "V": 364, "E": 363, "gens": 1, "status": "product_of_trees"},
    "check:moller_tree:d6": {"L": 7, "V": 1093, "E": 1092, "gens": 1, "status": "product_of_trees"},
    "check:example_5_2:d3": {"L": 10, "V": 313, "E": 456, "gens": 2, "status": "not_product"},
    "check:example_5_2:d4": {"L": 15, "V": 1593, "E": 2504, "gens": 2, "status": "not_product"},
    "check:example_5_3:d2": {"L": 9, "V": 93, "E": 156, "gens": 3, "status": "not_free_semigroup"},
    "check:example_5_3:d3": {"L": 16, "V": 541, "E": 1116, "gens": 3, "status": "not_free_semigroup"},
    "check:coprime_2_3:d3": {"L": 10, "V": 90, "E": 125, "gens": 2, "status": "product_of_trees"},
    "check:coprime_2_3:d4": {"L": 15, "V": 301, "E": 450, "gens": 2, "status": "product_of_trees"},
    "check:example_5_1:d4": {"L": 15, "V": 129, "E": 196, "gens": 2, "status": "product_of_trees"},
    "check:example_5_1:d5": {"L": 21, "V": 321, "E": 516, "gens": 2, "status": "product_of_trees"},
    "build:example_5_3:d5:json": {"L": 36, "V": 14109, "E": 34140, "gens": 3},
    "build:example_5_2:d5:json": {"L": 21, "V": 7737, "E": 12744, "gens": 2},
    "build:moller_tree:d8:dot": {"L": 9, "V": 9841, "E": 9840, "gens": 1},
    "build:coprime_2_3:d6:dot": {"L": 28, "V": 3025, "E": 4830, "gens": 2},
    "build:example_5_1:d4:json": {"L": 15, "V": 129, "E": 196, "gens": 2},
    "build:moller_tree:d4:json": {"L": 5, "V": 121, "E": 120, "gens": 1},
    "product:e.json*f.json": {"L": 75, "V": 15609, "E": 39196, "gens": 3},
    "semigroups:rank2_q4": {"patterns": 6, "gens": 12},
    "semigroups:rank2_q5": {"patterns": 6, "gens": 12},
    "semigroups:example_5_2": {"patterns": 6, "gens": 12},
    "qlo:example_5_2:b16": {"bounds": 1},
    "qlo:example_5_3:b32": {"bounds": 1},
    # smoke
    "build:example_5_1:d2:json": {"L": 6, "V": 17, "E": 20, "gens": 2},
    "build:moller_tree:d2:dot": {"L": 3, "V": 13, "E": 12, "gens": 1},
    "build:moller_tree:d2:json": {"L": 3, "V": 13, "E": 12, "gens": 1},
    "product:s1.json*s3.json": {"L": 18, "V": 221, "E": 464, "gens": 3},
    "check:coprime_2_3:d2": {"L": 6, "V": 25, "E": 30, "gens": 2, "status": "product_of_trees"},
    "semigroups:example_5_1": {"patterns": 4, "gens": 8},
    "qlo:example_5_3:b4": {"bounds": 1},
}
