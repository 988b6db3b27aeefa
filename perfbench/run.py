"""l2approx benchmark: run one workload, check every row, print metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload homology-fig8 --seed 1 --seconds 45 --trace 0

Each sample is a fresh child process (`child.py`) that runs one CLI
experiment; children run one at a time.  With `--trace 0` the run reports
the end-to-end metrics setup_s, solve_s and peak_rss_mb as medians over the
run's samples.  With `--trace 1` it alternates traced and untraced samples
and reports per-layer self times, exact work counts, the tracing overhead
and how much of the traced solve time the library layers cover.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A failed row (see workloads.py) makes the
run exit 1; a missing library or a refused seed exits 2 with no result.
The workloads are fixed experiments, so `--seed` does not change them; the
harris element seed is `--element-seed` and must keep that workload's
defining property.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

MIN_SAMPLES = 2
SETUP_ONLY_PER_SAMPLE = 3  # extra set-up measurements per solve sample (untraced runs)
RUN_LIMIT_S = 170  # CPU seconds a run's children may use in all
COVERAGE_RANGE = (0.9, 1.1)


def host_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def pinned_env(root: Path, build: Path) -> dict:
    """Child environment: no inherited Python or l2approx settings, a fixed
    hash seed, the checkout's own sources, byte code kept in the build dir."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "L2APPROX_"))}
    env.update(PYTHONHASHSEED="0", PYTHONPATH=str(root / "src"),
               PYTHONPYCACHEPREFIX=str(build / "pycache"))
    return env


class Sampler:
    """Spawns children one at a time and collects their measurements."""

    def __init__(self, root: Path, workload, element_seed: int, env: dict, scratch: Path,
                 spans_path: Path):
        self.root, self.workload, self.element_seed = root, workload, element_seed
        self.env, self.scratch, self.spans_path = env, scratch, spans_path
        self.start = time.perf_counter()
        self.count = 0

    def spawn(self, *, setup_only: bool, trace: bool) -> dict:
        self.count += 1
        tag = f"s{self.count}"
        out, result = self.scratch / f"{tag}.csv", self.scratch / f"{tag}.json"
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.start)
        job = {"entry": self.workload.entry, "setup_only": setup_only, "trace": trace,
               "cli": workloads.cli_args(self.workload, self.element_seed),
               "out": str(out), "result": str(result), "run_id": f"{self.workload.name}/{tag}",
               "spans": str(self.spans_path), "cpu_limit": max(5, int(remaining))}
        with open(self.scratch / f"{tag}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(job)],
                                    cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = proc.returncode == 0 and result.exists()
        res = json.loads(result.read_text()) if ok else {}
        ok = ok and Path(res["library"]).resolve().is_relative_to(self.root / "src")
        sample = {"ok": ok, "setup_s": res["setup_end"] - t0 if ok else None}
        if setup_only:
            return sample
        sample["failed"] = self.workload.rows
        if ok and res["rc"] == 0 and out.exists():
            sample["failed"] = workloads.failed_rows(self.workload, out.read_text(),
                                                     self.element_seed)
        if not ok or res["rc"] != 0:
            tail = (self.scratch / f"{tag}.err").read_text(errors="replace")[-2000:]
            print(f"sample {tag} failed (process exit {proc.returncode}, CLI exit "
                  f"{res.get('rc')}):\n{tail}", file=sys.stderr)
        sample.update(solve_s=res.get("done", 0) - res.get("call", 0),
                      rss_mb=usage.ru_maxrss / 1024,
                      **{k: res[k] for k in ("self_s", "solve_self_s", "calls", "counts",
                                             "counting_s") if k in res})
        for p in (out, out.with_suffix(".csv.summary.txt")):
            p.unlink(missing_ok=True)
        return sample


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def collect(sampler: Sampler, seconds: float, trace: bool) -> tuple[list, list]:
    """Solve samples until the next one would end after `seconds`, with at
    least MIN_SAMPLES; a traced run alternates traced and untraced samples."""
    sampler.spawn(setup_only=True, trace=False)  # warm the byte-code and file caches
    sampler.start = time.perf_counter()
    setups, solves = [], []
    while True:
        t0 = time.perf_counter()
        traced = trace and len(solves) % 2 == 0
        if not trace:
            for _ in range(SETUP_ONLY_PER_SAMPLE):
                s = sampler.spawn(setup_only=True, trace=False)
                if not s["ok"]:
                    return setups, solves + [dict(s, failed=sampler.workload.rows)]
                setups.append(s["setup_s"])
        s = sampler.spawn(setup_only=False, trace=traced)
        s["traced"] = traced
        solves.append(s)
        if not s["ok"] or s["failed"]:
            break
        if not traced:
            setups.append(s["setup_s"])
        elapsed = time.perf_counter() - sampler.start
        last = time.perf_counter() - t0
        if len(solves) >= MIN_SAMPLES and elapsed + last > seconds:
            break
    return setups, solves


def layer_metrics(solves: list) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced samples, and any problems found."""
    traced = [s for s in solves if s["traced"]]
    plain = [s for s in solves if not s["traced"]]
    problems = []
    ref = traced[0]
    for s in traced[1:]:
        if s["counts"] != ref["counts"] or s["calls"] != ref["calls"]:
            problems.append("work counts differ between traced samples")
    metrics = {}
    for name in tracer.span_names():
        metrics[f"{name}.self_s"] = (statistics.median(s["self_s"].get(name, 0.0)
                                                       for s in traced), "s")
        metrics[f"{name}.calls"] = (ref["calls"].get(name, 0), "count")
    for name in tracer.COUNTERS:
        metrics[name] = (ref["counts"].get(name, 0), "count")
    coverage = []
    for s in traced:
        library = sum(v for k, v in s["solve_self_s"].items() if not k.startswith("cli."))
        coverage.append(library / (s["solve_s"] - s["counting_s"]))
    if not all(COVERAGE_RANGE[0] <= c <= COVERAGE_RANGE[1] for c in coverage):
        problems.append(f"layer self times cover {coverage} of the traced solve time, "
                        f"outside {COVERAGE_RANGE}")
    traced_solve = statistics.median(s["solve_s"] for s in traced)
    metrics["trace.solve_s"] = (traced_solve, "s")
    metrics["trace.overhead_s"] = (traced_solve - statistics.median(s["solve_s"] for s in plain),
                                   "s")
    metrics["trace.coverage"] = (statistics.median(coverage), "ratio")
    return metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded; the workloads are fixed experiments")
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--element-seed", type=int, default=workloads.DEFAULT_ELEMENT_SEED,
                    help="seed of the harris-nonabelian element (passed to the CLI as --seed)")
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "l2approx" / "__init__.py").is_file():
        print(f"error: no l2approx sources under {root / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"available: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if workload.name == "harris-nonabelian" and \
            not workloads.element_seed_qualifies(args.element_seed):
        print(f"error: element seed {args.element_seed} does not give a non-abelian support "
              f"subgroup of order {workloads.HARRIS_SUPPORT_ORDER}", file=sys.stderr)
        return 2

    build = root / ".bench_build"
    (build / "trace").mkdir(parents=True, exist_ok=True)
    spans_path = build / "trace" / f"{workload.name}-seed{args.seed}.jsonl"
    info = host_info()
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=build))
    try:
        if args.trace:
            spans_path.write_text(json.dumps({"host": info, "workload": workload.name}) + "\n")
        sampler = Sampler(root, workload, args.element_seed, pinned_env(root, build), scratch,
                          spans_path)
        setups, solves = collect(sampler, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = workload.rows * len(solves)
    failed = sum(s["failed"] for s in solves)
    problems = []
    print(f"host: nproc={info['nproc']} python={info['python']} cpu={info['cpu']}")
    print(f"workload {workload.name} (seed {args.seed}, element seed {args.element_seed}): "
          f"{len(solves)} solve samples, {len(setups)} set-up samples")
    if failed:
        metrics = {}
    elif args.trace:
        metrics, problems = layer_metrics(solves)
    else:
        metrics = {}
        for name, values, unit in (("setup_s", setups, "s"),
                                   ("solve_s", [s["solve_s"] for s in solves], "s"),
                                   ("peak_rss_mb", [s["rss_mb"] for s in solves], "MiB")):
            med, q1, q3 = quartiles(values)
            metrics[name] = (med, unit)
            print(f"  {name:<12} {med:.6g} {unit}  (median; q1 {q1:.6g}, q3 {q3:.6g}; "
                  f"n={len(values)})  samples: {' '.join(f'{v:.4g}' for v in values)}")
    print(f"  {'failed_frac':<12} {failed / attempted:.6g} ratio  ({failed} of {attempted} rows)")
    if args.trace and not failed:
        metrics["failed_frac"] = (failed / attempted, "ratio")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<44} {value:.6g} {unit}")
        print(f"  spans written to {spans_path.relative_to(root)}")
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
