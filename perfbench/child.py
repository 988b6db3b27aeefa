"""One benchmark sample, run by `run.py` in a process of its own.

Usage: python3 child.py JOB_JSON

JOB_JSON holds: entry (census entry to load during set-up, or null), cli
(CLI flags of the workload), out (CSV path), result (path for this sample's
timings), setup_only, trace, run_id, spans (JSON-lines path for spans) and
cpu_limit (seconds of CPU before the kernel stops the sample).

Set-up ends once `l2approx` is imported and the census entry is parsed and
validated.  Solving starts at the call into `cli.run_experiment` and ends
when `cli.main` has written the CSV and the summary.  Timestamps come from
`time.perf_counter`, the system-wide monotonic clock, so the parent can
measure set-up from the moment it spawned this process.
"""

import json
import resource
import sys
import time


def main() -> int:
    job = json.loads(sys.argv[1])
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
    resource.setrlimit(resource.RLIMIT_CPU, (job["cpu_limit"], job["cpu_limit"] + 5))

    import l2approx
    from l2approx import census, cli

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer(job["run_id"])
        tracer.install()
    if job["entry"]:
        census.builtin_entry(job["entry"])
    setup_end = time.perf_counter()
    result = {"setup_end": setup_end, "library": l2approx.__file__}
    if not job["setup_only"]:
        run_experiment = cli.run_experiment
        marks = {}

        def timed_run_experiment(cfg):
            marks["call"] = time.perf_counter()
            marks["counting"] = tracer.counting_s if tracer else 0.0
            return run_experiment(cfg)

        cli.run_experiment = timed_run_experiment
        result["rc"] = cli.main(job["cli"] + ["--out", job["out"]])
        result["done"] = time.perf_counter()
        result["call"] = marks.get("call", setup_end)
        if tracer is not None:
            result["self_s"] = tracer.self_times()
            result["solve_self_s"] = tracer.self_times(start=result["call"])
            result["calls"] = tracer.calls()
            result["counts"] = tracer.counts
            result["counting_s"] = tracer.counting_s - marks.get("counting", 0.0)
            tracer.write(job["spans"])
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
