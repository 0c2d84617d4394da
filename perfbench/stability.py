"""Run-to-run stability of the end-to-end metrics.

    python3 perfbench/stability.py              # every workload
    python3 perfbench/stability.py classify     # only the workloads named

Runs the benchmark command once per workload and seed (seeds 101-110, each
for run_seconds from BENCHMARK.json), one run at a time, and reports for
each end-to-end metric its median and its spread: the distance
between the first and third quartiles (statistics.quantiles(n=4)) as a share
of the median.  A spread at or above a third of the metric's bound in
BENCHMARK.json is flagged (setup_s is not flagged: its bound applies to
medians only).  Also prints the share of failed operations.  The table goes
to stdout and .perfbench_out/stability.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(101, 111)


def main(names):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report, ok = {}, True
    for workload in names or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in SEEDS:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        rows = {}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flagged = m["name"] != "setup_s" and spread >= m["bound"] / 3
            ok &= not flagged
            rows[m["name"]] = {"median": statistics.median(vals), "spread": spread,
                               "bound": m["bound"], "flagged": flagged, "values": vals}
        ok &= all(r["correct"] for r in runs) and len(shares) == 1
        report[workload] = {"metrics": rows, "failed_shares": sorted(shares),
                            "correct": all(r["correct"] for r in runs)}
        for name, row in rows.items():
            print(f"  {workload:10s} {name:14s} median {row['median']:.5g}  spread {row['spread']:.4f}"
                  f"  bound {row['bound']}{'  FLAGGED' if row['flagged'] else ''}")
        print(f"  {workload:10s} failed share {sorted(shares)}  correct {report[workload]['correct']}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "stability.json").write_text(json.dumps(report, indent=2) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
