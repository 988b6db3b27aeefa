"""Run every workload several times; print each metric per workload with its
unit, median, quartiles and run-to-run spread.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py --runs 10 [--first-seed 1] [--trace 0|1]
                               [--seconds N] [--workloads a,b]

Runs go one at a time, run r with seed first-seed + r.  The workload order
rotates from run to run, so drift in host speed falls on every workload.
The spread of a metric is (q3 - q1) / median over its per-run values, with
quartiles from `statistics.quantiles(values, n=4)`; end-to-end metrics are
shown next to their bound from BENCHMARK.json.  Exits 1 if a run fails or a
spread other than setup_s's exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import host_info

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args(argv)

    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict = {w: {} for w in names}
    units: dict = {}
    bad = 0
    info = host_info()
    print(f"host: nproc={info['nproc']} python={info['python']} cpu={info['cpu']}", flush=True)
    for r in range(args.runs):
        seed = args.first_seed + r
        for w in names[r % len(names):] + names[:r % len(names)]:
            proc = subprocess.run([sys.executable, str(RUN), "--workload", w, "--seed", str(seed),
                                   "--seconds", str(args.seconds), "--trace", str(args.trace)],
                                  capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None:
                bad += 1
                print(f"run {w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      flush=True)
            if result is None:
                continue
            result["metrics"]["failed_frac"] = {"value": result["failed"] / result["attempted"],
                                                "unit": "ratio"}
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            if args.trace == 0:
                print(f"run {w} seed {seed}: " + ", ".join(
                    f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)

    for w in names:
        print(f"\n{w}")
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            line = f"  {name:<44} {med:.6g} {units[name]}  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(vals)})"
            if name in bounds:
                spread = (q3 - q1) / med
                verdict = "ok" if spread < bounds[name] / 3 else "wide"
                if spread > bounds[name] and name != "setup_s":
                    verdict, bad = "over bound", bad + 1
                line += f"  spread {spread:.3f} of bound {bounds[name]} {verdict}"
            print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
