"""One benchmark round in a fresh interpreter.

    python3 child.py WORKLOAD SEED TRACE SPAWN DEADLINE SRC SPANS_OUT

Runs in the round directory, which is its working directory.  Set-up
is everything from the parent's spawn timestamp SPAWN (time.monotonic)
to ready: interpreter start, `import pgraphs`, writing the seeded config
files and loading each with `pgraphs.cli.load_config`.  Then the job
list runs back to back through `pgraphs.cli.main`, with stdout and
stderr captured.  A job still running at the per-job limit or at
DEADLINE is stopped and recorded as timed out; jobs after the deadline
are recorded as not run.  The round's record goes to `result.json`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

JOB_TIMEOUT_S = 60.0


class JobTimeout(BaseException):
    """Raised in the running job by the interval timer.  A BaseException,
    so no handler in the program under test swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def main(argv: list[str]) -> int:
    workload, seed, trace, spawn, deadline, src, spans_out = argv
    seed, trace = int(seed), trace == "1"
    spawn, deadline = float(spawn), float(deadline)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, src)

    import pgraphs.cli as cli  # set-up cost: the package and networkx

    import workloads

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    configs, jobs = workloads.make_inputs(workload, seed)
    for name, cfg in configs.items():
        with open(f"{name}.json", "w") as fh:
            json.dump(cfg.to_json(), fh)
        cli.load_config(f"{name}.json")
    ready = time.monotonic()

    signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    for job in jobs:
        remaining = min(JOB_TIMEOUT_S, deadline - time.monotonic())
        rec = {"id": job.id, "rc": None, "stdout": "", "stderr": "", "error": None, "s": 0.0}
        if remaining <= 0:
            rec["error"] = "not run: round deadline passed"
            records.append(rec)
            continue
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, remaining)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rec["rc"] = cli.main(list(job.argv))
                else:
                    rec["rc"] = tracer.run_job(job.id, cli.main, list(job.argv))
        except JobTimeout:
            rec["error"] = f"timed out after {remaining:.1f} s"
        except Exception as exc:  # a traceback is a failed job, not a failed round
            rec["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        rec["s"] = time.perf_counter() - t0
        rec["stdout"], rec["stderr"] = out.getvalue(), err.getvalue()
        records.append(rec)
    done = time.monotonic()

    result = {
        "setup_s": ready - spawn,
        "wall_s": done - ready,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": records,
    }
    if tracer is not None:
        result["stats"] = tracer.stats
        tracer.write_spans(spans_out)
    with open("result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
