"""starplane benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload build --seed 1 --seconds 40 --trace 0

Run from the repository root.  The program is imported from ./src, so the
benchmark measures the checkout it sits in.  A round builds fresh seeded
inputs (set-up), runs one timed pass over the workload's operations, then
checks every output with `oracle` outside the timed region.  Whole rounds
repeat while a typical round still ends within --seconds of wall time, with
at least MIN_ROUNDS rounds.

Times are scaled to a reference machine speed: each timed interval is
multiplied by PROBE_REF_S over the mean duration of a fixed stdlib-only
probe job run just before and just after it (for an operation: before and
after its group).  When the host runs at the speed it had at its fastest
while this benchmark was tuned, scaled times equal wall times; on a host whose speed drifts (that one drifted by up to
1.8x within minutes) the scaling removes most of the drift.  Raw wall times
of every pass are kept in the result copy under .perfbench_out/.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (see spans.py).  The last
line of stdout is one JSON object {correct, attempted, failed, metrics};
progress goes to stderr, and a copy of the result with every round's figures
goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MIN_ROUNDS = 3
IMPORT_SAMPLES = 5
PROBE_SAMPLES = 20
PROBE_REF_S = 0.0045  # the probe job's duration on the tuning host at its fastest (CPython 3.11)
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                 "import starplane, starplane.docs; print(time.perf_counter() - t)")


def import_seconds():
    """Median scaled cold import time of starplane, each in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_SAMPLES):
        before = speed_probe()
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        raw = float(done.stdout.strip().splitlines()[-1])
        times.append(scale(raw, before, speed_probe()))
    return statistics.median(times)


def load_program():
    if not (SRC / "starplane" / "__init__.py").is_file():
        raise SystemExit(f"error: no starplane sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import starplane
    import starplane.docs  # noqa: F401  (the CLI's renderer)

    if Path(starplane.__file__).resolve().parent != SRC / "starplane":
        raise SystemExit(f"error: imported starplane from {starplane.__file__}, not {SRC}")
    return starplane


def cache_clearer(package):
    """A function that empties every functools cache of starplane's modules.

    Clearing before each group means `quantize`'s cache can answer a call
    only from the same group (as `classify_p2` reuses `quantize_series`'s
    products), and memory does not grow pass by pass.  Exits when
    `quantize` answers a repeated call from a cache that this cannot reach.
    """
    caches = {id(f): f.cache_clear for name, mod in list(sys.modules.items())
              if mod is not None and (name == "starplane" or name.startswith("starplane."))
              for f in vars(mod).values() if callable(getattr(f, "cache_clear", None))}

    def clear():
        for cache_clear in caches.values():
            cache_clear()

    phi = package.parse_poly("x*y")
    first = package.quantize(phi, 1)
    clear()
    if package.quantize(phi, 1) is first:
        raise SystemExit("error: quantize answers from a cache that the benchmark cannot clear")
    clear()
    return clear


def _probe_unit():
    """A fixed stdlib-only job shaped like the engine's hot loop (dict of Fractions)."""
    p = {(i, j): Fraction(i + 2 * j + 1, j + 3) for i in range(8) for j in range(8)}
    q = list(p.items())[:24]
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q:
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, 0) + c1 * c2
    return out


def speed_probe():
    """Seconds the probe job takes now: the mean of PROBE_SAMPLES tries."""
    clock, ts = time.perf_counter, []
    for _ in range(PROBE_SAMPLES):
        t0 = clock()
        _probe_unit()
        ts.append(clock() - t0)
    return sum(ts) / len(ts)


def scale(seconds, probe_before, probe_after):
    return seconds * 2 * PROBE_REF_S / (probe_before + probe_after)


def run_pass(groups, clear, log):
    """Run every step of every group, clearing starplane's caches before each group.

    Returns (raw op seconds, scaled op seconds, failed).  An operation's
    scaled time is its wall time times PROBE_REF_S over the mean speed probe
    taken just before and just after its group.
    """
    clock = time.perf_counter
    raw, scaled, failed = [], [], 0
    before = speed_probe()
    for group in groups:
        clear()
        times = []
        for name, step in group.steps:
            if group.error is not None:
                failed += 1  # depends on a step that failed
                continue
            t0 = clock()
            try:
                step(group.state)
            except Exception as exc:  # the run goes on; the failure is counted
                group.error = f"{name}: {type(exc).__name__}: {exc}"
                failed += 1
                log(f"  FAILED {group.label}: {group.error}")
            times.append(clock() - t0)
        after = speed_probe()
        raw += times
        scaled += [scale(t, before, after) for t in times]
        before = after
    return raw, scaled, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["build", "classify", "normalize"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    package = load_program()
    import workloads
    from spans import REPORTED, Tracer, unit_of

    workloads.bind(package)
    clear = cache_clearer(package)
    log = workloads.log
    setup = workloads.WORKLOADS[args.workload]
    import_s = import_seconds()

    rng = random.Random(f"{args.workload}:{args.seed}")
    check_rng = random.Random(f"{args.workload}:{args.seed}:check")
    tracer = Tracer()
    clock = time.perf_counter
    began = clock()
    rounds = []  # one dict per round
    attempted = failed = 0
    failures = []
    # Start a round only if a typical round still ends within --seconds.
    while len(rounds) < MIN_ROUNDS or (
            clock() - began + statistics.median(r["round_s"] for r in rounds) <= args.seconds):
        traced = args.trace == 1 and len(rounds) % 2 == 1
        t0 = clock()
        clear()
        p0 = speed_probe()
        t1 = clock()
        groups = setup(rng)
        setup_raw = clock() - t1
        setup_s = scale(setup_raw, p0, speed_probe())
        with tracer.installed() if traced else nullcontext():
            raw, scaled, pass_failed = run_pass(groups, clear, log)
        attempted += sum(len(g.steps) for g in groups)
        failed += pass_failed
        for g in groups:
            if g.error is None:
                failures += [f"{g.label}: {f}" for f in workloads.run_checks(g, check_rng)]
        rounds.append({"traced": traced, "setup_s": setup_s, "setup_wall_s": setup_raw,
                       "run_s": sum(scaled), "slowest_op_s": max(scaled),
                       "run_wall_s": sum(raw), "slowest_op_wall_s": max(raw), "ops_s": scaled,
                       "layers": tracer.metrics() if traced else None,
                       "round_s": clock() - t0})
        log(f"round {len(rounds)}{' traced' if traced else ''}: setup {setup_s:.3f}s "
            f"run {sum(scaled):.3f}s (wall {sum(raw):.3f}s) slowest {max(scaled):.3f}s")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    med = statistics.median
    plain = [r for r in rounds if not r["traced"]]
    if args.trace == 0:
        metrics = {
            "setup_s": (import_s + med(r["setup_s"] for r in rounds), "s"),
            "run_s": (med(r["run_s"] for r in plain), "s"),
            "slowest_op_s": (med(r["slowest_op_s"] for r in plain), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        traced_rounds = [r for r in rounds if r["traced"]]
        metrics = {name: (med(r["layers"][name] for r in traced_rounds), unit_of(name))
                   for name in REPORTED}
        metrics["trace.overhead_s"] = (med(r["run_s"] for r in traced_rounds)
                                       - med(r["run_s"] for r in plain), "s")
    for f in failures:
        log(f"CHECK FAILED {f}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    detail = {**result, "import_s": import_s, "rounds": rounds}
    (OUT_DIR / f"result_{stem}.json").write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
