"""The skeinlab benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload knots --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Each workload is a closed loop: one client, one thread, and the next item
starts only after the previous one has finished and been checked.  With
`--trace 0` the loop starts whole rounds of the workload's corpus until
`--seconds` have passed and reports the end-to-end metrics.  With
`--trace 1` it runs a fixed number of rounds once untraced and once under
the per-layer tracer, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The line before it gives
the seed, a digest of the generated corpus and the sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# |traced wall - attributed time| allowed, as a share of the traced wall
ACCOUNTING_TOLERANCE = 0.01
# calibrate() at the reference host speed: its typical time on the 2-vCPU
# host the baseline in README.md was measured on
HOST_REFERENCE_S = 0.025


def load_program():
    """Import the skeinlab sources of this checkout and the benchmark
    modules that use them; returns (workloads, tracing, import seconds)."""
    if not (SRC / "skeinlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no skeinlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import tracing
    import workloads
    import_s = perf_counter() - t0
    import skeinlab

    if Path(skeinlab.__file__).resolve().parent != SRC / "skeinlab":
        sys.exit(f"perfbench: imported skeinlab from {skeinlab.__file__}, not {SRC}")
    return workloads, tracing, import_s


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []


def step(wl, item, tally: Tally, quiet=contextlib.nullcontext):
    """One closed-loop item: the timed program calls, then the check.  An
    exception from either is a failed item, never an aborted run."""
    tally.attempted += 1
    failure = None
    try:
        t0 = perf_counter()
        result = wl.run(item)
        tally.latencies.append(perf_counter() - t0)
        with quiet():
            failure = wl.check(item, result)
    except Exception as e:  # noqa: BLE001 - counted and reported below
        failure = f"{type(e).__name__}: {e}"
    if failure is not None:
        tally.failed += 1
        tally.reasons.append(failure)


def run_rounds(wl, rounds, tally: Tally, step_fn=step) -> float:
    """Every item of the given rounds once; returns the wall time."""
    t0 = perf_counter()
    for rnd in rounds:
        for item in rnd:
            step_fn(wl, item, tally)
    return perf_counter() - t0


def calibrate() -> float:
    """Seconds taken by a fixed piece of interpreter work (Fraction
    arithmetic, tuple keys, dict updates) that uses no skeinlab code.

    The host this benchmark was built on changes speed by up to 2x for
    seconds to minutes at a time (README.md).  Timed metrics are rescaled by
    HOST_REFERENCE_S / calibrate(), measured around the same round, so that
    they follow the program rather than the host.  The cyclic collector is
    off meanwhile, so the program's heap does not change the result."""
    gc.disable()
    try:
        t0 = perf_counter()
        acc: dict = {}
        x = Fraction(1, 3)
        for i in range(3000):
            x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i + 1)
            if x.denominator > 10**12:
                x = Fraction(1, 3)
            key = (i % 17, i % 13)
            acc[key] = acc.get(key, 0) + i
        return perf_counter() - t0
    finally:
        gc.enable()


def run_for(wl, pool, seconds: float, tally: Tally) -> tuple[int, float, list[float]]:
    """Start whole rounds (cycling the pool) while under `seconds`; a
    started round is always finished.  Each round's wall time and item
    latencies are rescaled to the reference host speed by the mean of the
    calibrations just before and after it.  Returns (rounds, rescaled wall
    time, rescaled latencies)."""
    start = perf_counter()
    done, wall, latencies = 0, 0.0, []
    before = calibrate()
    while perf_counter() - start < seconds:
        first = len(tally.latencies)
        t0 = perf_counter()
        for item in pool[done % len(pool)]:
            step(wl, item, tally)
        round_s = perf_counter() - t0
        after = calibrate()
        scale = 2 * HOST_REFERENCE_S / (before + after)
        wall += round_s * scale
        latencies += [x * scale for x in tally.latencies[first:]]
        before = after
        done += 1
    return done, wall, latencies


def setup(workloads, wl, seed: int, build_rounds: int):
    """Generate the corpus and build its program objects; returns
    (specs, built rounds, median build seconds over SETUP_REPEATS)."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        specs = workloads.specs(wl, seed, wl.POOL_ROUNDS)
        shared = wl.setup()
        built = [[wl.build(shared, s) for s in rnd] for rnd in specs[:build_rounds]]
        times.append(perf_counter() - t0)
    return specs, built, statistics.median(times)


def traced_pass(tracing, wl, rounds) -> tuple[Tally, float, object]:
    """The rounds once under the tracer; checks run as harness time."""
    tally = Tally()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        item_span = tracer.span(tracing.HARNESS, step)
        wall = run_rounds(
            wl, rounds, tally,
            lambda w, item, t: item_span(w, item, t, tracer.suspended),
        )
    finally:
        tracer.uninstall()
    return tally, wall, tracer


def report_failures(name: str, tally: Tally):
    for reason in tally.reasons[:5]:
        print(f"perfbench {name}: FAILED {reason}", file=sys.stderr)
    if tally.failed > 5:
        print(f"perfbench {name}: ... {tally.failed - 5} more failures", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="skeinlab benchmark")
    p.add_argument("--workload", required=True, choices=["knots", "tl", "algebra", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    workloads, tracing, import_s = load_program()
    wl = workloads.WORKLOADS[args.workload]
    build_rounds = wl.TRACE_ROUNDS if args.trace else wl.POOL_ROUNDS
    calibrate()  # warm-up
    host_before = calibrate()
    specs, pool, build_s = setup(workloads, wl, args.seed, build_rounds)
    setup_scale = 2 * HOST_REFERENCE_S / (host_before + calibrate())
    digest = hashlib.sha256(repr(specs).encode()).hexdigest()
    gc.collect()

    info = {"workload": wl.name, "seed": args.seed, "corpus_sha256": digest,
            "round_items": len(wl.ROUND)}
    if args.trace:
        plain = Tally()
        plain_wall = run_rounds(wl, pool, plain)
        tally, traced_wall, tracer = traced_pass(tracing, wl, pool)
        unattributed = traced_wall - tracer.attributed_s()
        accounted = abs(unattributed) <= ACCOUNTING_TOLERANCE * traced_wall
        if not accounted:
            print(f"perfbench {wl.name}: accounting check failed, {unattributed:.4f}s of "
                  f"{traced_wall:.4f}s traced wall time unattributed", file=sys.stderr)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.layer_metrics().items()}
        metrics["trace.overhead_ratio"] = {"value": traced_wall / plain_wall, "unit": "ratio"}
        metrics["trace.unattributed_s"] = {"value": unattributed, "unit": "s"}
        attempted = plain.attempted + tally.attempted
        failed = plain.failed + tally.failed
        correct = failed == 0 and accounted
        info.update(rounds=len(pool), items_per_pass=tally.attempted, traced_wall_s=traced_wall,
                    untraced_wall_s=plain_wall, harness_s=tracer.spans[tracing.HARNESS][1]
                    + tracer.bookkeeping_s)
        report_failures(wl.name, plain)
        report_failures(wl.name, tally)
        print(json.dumps({"spans": tracer.table()}))
    else:
        tally = Tally()
        t0 = perf_counter()
        rounds, host_wall, lat = run_for(wl, pool, args.seconds, tally)
        wall = perf_counter() - t0
        passed = tally.attempted - tally.failed

        def deciles(v):
            # a run where every item raised has no latencies; it reports
            # 0 ms and correct = false
            return (statistics.quantiles(v, n=10, method="inclusive") if len(v) > 1
                    else (v or [0.0]) * 9)

        host, raw = deciles(lat), deciles(tally.latencies)
        metrics = {
            "items_per_s": {"value": passed / host_wall, "unit": "1/s"},
            "item_p50_ms": {"value": host[4] * 1e3, "unit": "ms"},
            "item_p90_ms": {"value": host[8] * 1e3, "unit": "ms"},
            "setup_s": {"value": (import_s + build_s) * setup_scale, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        attempted, failed = tally.attempted, tally.failed
        correct = failed == 0
        info.update(rounds=rounds, items=attempted, samples=len(lat), wall_s=wall,
                    fail_ratio=failed / attempted if attempted else 1.0,
                    raw_items_per_s=passed / wall,
                    raw_item_p50_ms=raw[4] * 1e3, raw_item_p90_ms=raw[8] * 1e3,
                    raw_setup_s=import_s + build_s)
        report_failures(wl.name, tally)
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
