"""The pgraphs benchmark.

    python3 benchmarks/run.py --workload check --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Workloads (see `workloads.py` for the job lists):

* check        -- graph-check --checks all on a depth ladder of all five
                  bundled models; the structural checks dominate.
* build_export -- graph-build to JSON and DOT plus one `product`; slice
                  construction and export dominate, checks barely run.
* search       -- semigroups and qlo; generator search and upper-bound
                  search only, no slice is built.

Each round runs the workload's job list once, back to back (a closed
loop, one client, one thread), in a fresh child interpreter, so no
module-level state survives between rounds.  Rounds repeat while the
next one is expected to end within --seconds (at least one round, and
one of each kind when traced).  Every job's output is checked by
`oracle.py`; a failed, timed-out or unrun job counts as failed.

With --trace 0 the rounds are untraced and the result reports the
end-to-end metrics: wall_s (median job-list seconds), setup_s (median
seconds from spawning the interpreter to ready-to-run), peak_rss_mb
(median peak RSS of a round's process) and pass_ratio (jobs passed /
jobs attempted).  With --trace 1 untraced and traced rounds alternate;
the result reports the per-layer metrics of the traced rounds and the
tracing overhead (traced minus untraced median wall_s).  No layer waits
on a queue, lock or I/O peer, so there is no wait-time metric.

The last line of stdout is the result JSON.  The line before it is
metadata: per-round samples, each with the time of a fixed
calibration loop run just before the round, /proc/loadavg before and
after the run (to tell machine drift from program changes), median
seconds per job, and, when traced, per-job layer numbers beside each
job's L/V/E.  Spans of the last traced round go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 160.0  # every run must end within 180 s
WORK_DIR = ".bench_work"
OUT_DIR = ".bench_out"

# Per-layer metrics (--trace 1).  Each timed function reports the
# statistics listed in tracer.TIMED, each counted function its calls; the
# job span cli.main reports the whole job and the time no traced
# function covers (argument parsing, JSON encoding, file writes).  The
# ratios divide hits by calls; the size counters are read from the
# traced functions' outputs and from the files written.
DERIVED_METRICS = {
    "cone_semigroup.is_admissible.admissible_ratio": ("cone_semigroup.is_admissible", "ratio"),
    "intlinalg.ImageSolver.preimage.hit_ratio": ("intlinalg.ImageSolver.preimage", "ratio"),
    "coset_model.fiber.vertices": ("coset_model.fiber", "vertices"),
    "pgraph.build_slice.levels": ("pgraph.build_slice", "levels"),
    "pgraph.build_slice.vertices": ("pgraph.build_slice", "vertices"),
    "pgraph.build_slice.edges": ("pgraph.build_slice", "edges"),
}
UNITS = {"calls": "count", "s": "s", "self_s": "s", "ratio": "ratio", "vertices": "count",
         "levels": "count", "edges": "count"}


def _reported_stats() -> dict[str, tuple[str, ...]]:
    stats = {tracer.JOB: ("s", "self_s")}
    stats.update({fn: spec[2] for fn, spec in tracer.TIMED.items()})
    stats.update({fn: ("calls",) for fn in tracer.COUNTED})
    return stats


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    out = {f"{fn}.{stat}": UNITS[stat] for fn, stats in _reported_stats().items()
           for stat in stats}
    out.update({name: UNITS[stat] for name, (_, stat) in DERIVED_METRICS.items()})
    out["pgraph.export.bytes"] = "bytes"
    out["trace.overhead_s"] = "s"
    return out


# ---------------------------------------------------------------------------
# Rounds


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop; a machine-speed probe."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def run_round(workload: str, seed: int, traced: bool, round_dir: str, src: str,
              deadline: float) -> dict:
    """Run the job list once in a fresh interpreter; returns its record,
    or {"crash": message} if the child produced none."""
    os.makedirs(round_dir)
    spans = os.path.abspath(os.path.join(OUT_DIR, f"spans-{workload}-s{seed}.json"))
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
    spawn = time.monotonic()
    argv = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
            "1" if traced else "0", repr(spawn), repr(deadline), src, spans]
    proc = subprocess.Popen(argv, cwd=round_dir, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0) + 5.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"crash": "round killed at the run deadline"}
    try:
        with open(os.path.join(round_dir, "result.json")) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {"crash": f"child exited {proc.returncode}: {(err or out)[-500:]}"}


def check_round(configs: dict, jobs: list, result: dict, round_dir: str) -> list[dict]:
    """Oracle verdict per job: {"id", "ok", "seen", "problems"}."""
    if "crash" in result:
        return [{"id": j.id, "ok": False, "seen": {}, "problems": [result["crash"]]}
                for j in jobs]
    files: dict = {}
    verdicts = []
    for job, rec in zip(jobs, result["jobs"]):
        seen, problems = oracle.check_job(job, rec, configs, files, round_dir)
        if "stats" in result:
            problems += oracle.check_traced_sizes(job, result["stats"])
        verdicts.append({"id": job.id, "ok": not problems, "seen": seen, "problems": problems})
    return verdicts


# ---------------------------------------------------------------------------
# Summaries


def tail(samples: list[float]) -> dict:
    """Median plus the highest of p75/p90/p95/p99 that has at least ten
    samples beyond it (None when there are too few samples)."""
    out = {"n": len(samples), "median": statistics.median(samples), "pct": None, "value": None}
    for pct in (99, 95, 90, 75):
        if len(samples) * (100 - pct) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=100)
            out.update(pct=pct, value=cuts[pct - 1])
            break
    return out


def layer_values(stats: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round (all jobs and set-up)."""
    total: dict[str, dict[str, float]] = {}
    for per_job in stats.values():
        for fn, st in per_job.items():
            acc = total.setdefault(fn, {})
            for key, value in st.items():
                acc[key] = acc.get(key, 0) + value
    values = {}
    for fn, names in _reported_stats().items():
        for stat in names:
            values[f"{fn}.{stat}"] = total.get(fn, {}).get(stat, 0)
    for name, (fn, stat) in DERIVED_METRICS.items():
        st = total.get(fn, {})
        if stat == "ratio":
            values[name] = st.get("hits", 0) / st["calls"] if st.get("calls") else 0.0
        else:
            values[name] = st.get(stat, 0)
    return values


def job_table(stats: dict, verdicts: list[dict], export_bytes: dict) -> list[dict]:
    """Per-job layer numbers beside the job's L/V/E (one traced round)."""
    rows = []
    for v in verdicts:
        per_job = stats.get(v["id"], {})
        row = {"job": v["id"], **v["seen"]}
        built = per_job.get("pgraph.build_slice")
        if built:
            row.update(L=built["levels"], V=built["vertices"], E=built["edges"],
                       gens=built["gens"])
        row["export_bytes"] = export_bytes.get(v["id"], 0)
        for fn, st in sorted(per_job.items()):
            for key in ("calls", "s", "self_s"):
                if st.get(key):
                    row[f"{fn}.{key}"] = st[key]
        rows.append(row)
    return rows


def output_bytes(jobs: list, round_dir: str) -> dict[str, int]:
    return {j.id: os.path.getsize(os.path.join(round_dir, j.out))
            for j in jobs if j.out and os.path.exists(os.path.join(round_dir, j.out))}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "pgraphs", "__init__.py")):
        print(f"no pgraphs package under {src}; run from the root of a source checkout",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    configs, jobs = workloads.make_inputs(args.workload, args.seed)
    work = os.path.join(WORK_DIR, f"{args.workload}-s{args.seed}-{os.getpid()}")
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "loadavg": [loadavg()]}
    rounds: list[dict] = []
    durations: list[float] = []
    try:
        while True:
            t0 = time.monotonic()
            calibration = calibrate()
            traced = bool(args.trace) and len(rounds) % 2 == 1
            round_dir = os.path.join(work, f"round{len(rounds)}")
            result = run_round(args.workload, args.seed, traced, round_dir, src, deadline)
            verdicts = check_round(configs, jobs, result, round_dir)
            if traced and "stats" in result:
                result["export_bytes"] = output_bytes(jobs, round_dir)
            result["job_s"] = [rec["s"] for rec in result.pop("jobs", [])]
            rounds.append({"traced": traced, "result": result, "verdicts": verdicts,
                           "calibration_s": calibration})
            shutil.rmtree(round_dir)
            durations.append(time.monotonic() - t0)
            # stop before a round that would end past --seconds (or the
            # hard limit); a traced run needs one round of each kind
            ends_at = time.monotonic() - start + statistics.median(durations)
            if "crash" in result or start + ends_at > deadline:
                break
            if ends_at > args.seconds and not (args.trace and len(rounds) < 2):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)
    meta["calibration_s_after"] = calibrate()
    meta["loadavg"].append(loadavg())

    plain = [r["result"] for r in rounds if not r["traced"] and "crash" not in r["result"]]
    traced = [r for r in rounds if r["traced"] and "crash" not in r["result"]]
    if not plain or (args.trace and not traced):
        crash = next(r["result"]["crash"] for r in rounds if "crash" in r["result"])
        print(f"no round completed: {crash}", file=sys.stderr)
        return 1
    attempted = sum(len(r["verdicts"]) for r in rounds)
    failed = sum(not v["ok"] for r in rounds for v in r["verdicts"])
    for r in rounds:
        for v in r["verdicts"]:
            if not v["ok"]:
                print(f"FAILED {v['id']}: {'; '.join(v['problems'])[:500]}", file=sys.stderr)

    walls = [r["wall_s"] for r in plain]
    meta["rounds"] = [{"traced": r["traced"], "calibration_s": r["calibration_s"],
                       **{k: r["result"].get(k) for k in
                          ("wall_s", "setup_s", "peak_rss_mb", "crash")}} for r in rounds]
    meta["wall_s"] = tail(walls)
    meta["job_s"] = {j.id: statistics.median(r["job_s"][k] for r in plain)
                     for k, j in enumerate(jobs)}
    meta["fail_ratio"] = failed / attempted
    correct = failed == 0
    if args.trace:
        units = per_layer_names()
        per_round = [layer_values(r["result"]["stats"]) for r in traced]
        counters = {k: v for k, v in per_round[0].items() if units[k] != "s"}
        if any({k: v for k, v in pr.items() if k in counters} != counters for pr in per_round):
            print("counters differ between traced rounds of one seed", file=sys.stderr)
            correct = False
        values = {k: statistics.median(pr[k] for pr in per_round) for k in per_round[0]}
        values["pgraph.export.bytes"] = statistics.median(
            sum(r["result"]["export_bytes"].values()) for r in traced)
        values["trace.overhead_s"] = (statistics.median(r["result"]["wall_s"] for r in traced)
                                      - statistics.median(walls))
        last = traced[-1]
        meta["jobs"] = job_table(last["result"]["stats"], last["verdicts"],
                                 last["result"]["export_bytes"])
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
            "pass_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
