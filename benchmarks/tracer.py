"""Per-layer tracing from outside the package.

Each traced function is rebound at every place the package holds a
reference to it (modules bind with `from ... import`, so patching only
the defining module would miss calls).  Two kinds of wrapper:

* timed: records a span (name, start, end, parent span, job id) and
  accumulates calls, inclusive seconds and self seconds per job;
* counted: a call counter only, for functions called millions of times
  per round, where timing each call would distort the run.

Self time is a span's duration minus the time its timed child spans
cover.  Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import json
import sys
import time

# Timed functions: metric prefix (layer.function) -> (module, attribute,
# statistics reported as per-layer metrics).  `self_s` is reported for
# the functions whose timed callees carry most of their time.
TIMED = {
    "cli.load_config": ("pgraphs.cli", "load_config", ("calls", "s")),
    "coset_model.fiber": ("pgraphs.coset_model", "fiber", ("calls", "s", "self_s")),
    "coset_model.truncate": ("pgraphs.coset_model", "truncate", ("calls", "s", "self_s")),
    "cone_semigroup.enumerate_admissible":
        ("pgraphs.cone_semigroup", "enumerate_admissible", ("calls", "s", "self_s")),
    "cone_semigroup.is_admissible": ("pgraphs.cone_semigroup", "is_admissible", ("calls", "s")),
    "cone_semigroup.minimal_generators":
        ("pgraphs.cone_semigroup", "minimal_generators", ("calls", "s", "self_s")),
    "cone_semigroup.minimal_common_upper_bounds":
        ("pgraphs.cone_semigroup", "minimal_common_upper_bounds", ("calls", "s")),
    "pgraph.build_slice": ("pgraphs.pgraph", "build_slice", ("calls", "s", "self_s")),
    "pgraph.slice_to_json_dict": ("pgraphs.pgraph", "slice_to_json_dict", ("calls", "s")),
    "pgraph.slice_to_dot": ("pgraphs.pgraph", "slice_to_dot", ("calls", "s")),
    "pgraph.slice_from_json_dict": ("pgraphs.pgraph", "slice_from_json_dict", ("calls", "s")),
    "pgraph.external_product": ("pgraphs.pgraph", "external_product", ("calls", "s", "self_s")),
    "pgraph.check_rooted_strongly_simple":
        ("pgraphs.pgraph", "check_rooted_strongly_simple", ("calls", "s")),
    "pgraph.check_factorization": ("pgraphs.pgraph", "check_factorization", ("calls", "s")),
    "pgraph.check_fiber_regularity":
        ("pgraphs.pgraph", "check_fiber_regularity", ("calls", "s")),
    "pgraph.check_regularity": ("pgraphs.pgraph", "check_regularity", ("calls", "s", "self_s")),
    "pgraph.check_product_of_trees":
        ("pgraphs.pgraph", "check_product_of_trees", ("calls", "s")),
    "pgraph.descendant_cone": ("pgraphs.pgraph", "descendant_cone", ("calls", "s")),
    "pgraph.cone_certificate": ("pgraphs.pgraph", "cone_certificate", ("calls", "s", "self_s")),
    "pgraph.cones_isomorphic": ("pgraphs.pgraph", "cones_isomorphic", ("calls", "s")),
}

# Counted functions (calls only): metric prefix -> (module, attribute path).
COUNTED = {
    "flat_core.make_spec": ("pgraphs.flat_core", "make_spec"),
    "flat_core.rho": ("pgraphs.flat_core", "rho"),
    "coset_model.caps": ("pgraphs.coset_model", "caps"),
    "intlinalg.ImageSolver.preimage": ("pgraphs._intlinalg", "ImageSolver.preimage"),
    "pgraph.PGraphSlice.gen_words": ("pgraphs.pgraph", "PGraphSlice.gen_words"),
    "pgraph.PGraphSlice.walk_back": ("pgraphs.pgraph", "PGraphSlice.walk_back"),
    "pgraph.PGraphSlice.ancestor": ("pgraphs.pgraph", "PGraphSlice.ancestor"),
}

# counted functions whose non-None results are counted as hits
HIT_COUNTED = {"intlinalg.ImageSolver.preimage"}

# The job span: the harness calls cli.main through the tracer.
JOB = "cli.main"


class Tracer:
    """Holds the spans and per-job counters of one traced round."""

    def __init__(self):
        self.job = "setup"
        self._counts: dict[str, list[int]] = {}  # counted name -> [calls, hits]
        self._base: dict[str, tuple[int, int]] = {}
        self.spans: list[tuple] = []  # (name, start, end, parent index, job)
        self._stack: list[list] = []  # [span index, child seconds]
        self.stats: dict[str, dict[str, dict[str, float]]] = {}  # job -> name -> stat

    # -- recording -----------------------------------------------------

    def _stat(self, name: str) -> dict[str, float]:
        per_job = self.stats.setdefault(self.job, {})
        st = per_job.get(name)
        if st is None:
            st = per_job[name] = {"calls": 0, "s": 0.0, "self_s": 0.0}
        return st

    def timed(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0]
            spans.append(None)  # the slot child spans name as their parent
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                d = t1 - t0
                if parent is not None:
                    parent[1] += d
                spans[frame[0]] = (name, t0, t1, parent[0] if parent else None, self.job)
                st = self._stat(name)
                st["calls"] += 1
                st["s"] += d
                st["self_s"] += d - frame[1]
            self._observe(name, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        cell = self._counts.setdefault(name, [0, 0])
        if name not in HIT_COUNTED:
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
            return wrapper

        def hit_wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            cell[0] += 1
            if result is not None:
                cell[1] += 1
            return result

        return hit_wrapper

    def _observe(self, name: str, result) -> None:
        """Size counters computed from a traced function's output."""
        if name not in ("pgraph.build_slice", "coset_model.fiber",
                        "cone_semigroup.is_admissible"):
            return
        st = self._stat(name)
        if name == "pgraph.build_slice":
            st["levels"] = st.get("levels", 0) + len(result.levels)
            st["vertices"] = st.get("vertices", 0) + len(result.vertices)
            st["edges"] = st.get("edges", 0) + len(result.edges)
            st["gens"] = len(result.generators)
        elif name == "coset_model.fiber":
            st["vertices"] = st.get("vertices", 0) + len(result)
        elif name == "cone_semigroup.is_admissible":
            st["hits"] = st.get("hits", 0) + bool(result.admissible)

    def switch(self, job) -> None:
        """Credit the counted calls since the last switch to the current
        job, then make `job` current (None after the last job)."""
        for name, (calls, hits) in self._counts.items():
            calls0, hits0 = self._base.get(name, (0, 0))
            if calls > calls0:
                st = self._stat(name)
                st["calls"] += calls - calls0
                st["hits"] = st.get("hits", 0) + hits - hits0
            self._base[name] = (calls, hits)
        self.job = job

    def run_job(self, job_id: str, fn, *args):
        """Run one job under the job span."""
        self.switch(job_id)
        try:
            return self.timed(JOB, fn)(*args)
        finally:
            self.switch(None)

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function wherever the package refers to it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "pgraphs" or n.startswith("pgraphs.")]
        targets = [(name, module, path, self.timed) for name, (module, path, _) in TIMED.items()]
        targets += [(name, module, path, self.counted) for name, (module, path) in COUNTED.items()]
        for name, module, path, wrap in targets:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = wrap(name, original)
            if outer:  # a method: the class is its only binding
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def write_spans(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "job"],
                "names": names,
                "spans": [[code[n], round(t0, 7), round(t1, 7), p, j]
                          for n, t0, t1, p, j in self.spans],
            }, fh, separators=(",", ":"))
