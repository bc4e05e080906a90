"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy.  The process is single-threaded and
starts no other process.

--trace 0 measures the end-to-end metrics: set-up time, ops per second of
program time, median and 90th-percentile op latency, and peak memory.  Whole
rounds of ops run until the next round would end after --seconds.  Times are
scaled to a reference host speed (see HostSpeed).

--trace 1 gives the per-layer metrics.  It runs the workload's first
fixed_rounds rounds untraced, clears the program's caches, builds the
workload again with every layer wrapped, and runs those rounds once more.
Call counts, self times and work counts come from that second set-up and
pass, so two traced runs with one seed report the same counts;
trace.overhead_s is the traced minus the untraced program time of the
rounds, both scaled to the reference host speed.  Spans are written to
.perfbench/ at the end; a span's op id is round * 10000 + position in the
round, or -1 for set-up.

The last line of standard output is the result object; problems found by the
checks go to standard error.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


def seconds_since_process_start() -> float:
    """Wall time since the kernel started this process, so that interpreter
    start-up counts as set-up; falls back to the time since this module
    began running where /proc is not available."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = int(fields[19])  # field 22 of stat(5): start time after boot
        return time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - STARTED


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def calibration_loop() -> int:
    """A fixed piece of pure-Python work: integer arithmetic, small-int dict
    updates and a sort.  It allocates no object the garbage collector tracks,
    so its speed follows the host's, not the size of the program's heap."""
    counts: dict = {}
    acc = 0
    for i in range(4000):
        k = (i * 7919) % 211
        counts[k] = counts.get(k, 0) + (i & 3)
        acc = (acc * 31 + k) % 1000003
    return acc + len(sorted(counts.values()))


class HostSpeed:
    """Tracks how fast the host runs the interpreter right now, so that op
    times can be scaled to a fixed reference speed.  A shared host can run
    the same code 20-30% slower for minutes at a time; the scale is the
    reference time of calibration_loop over the median of its last
    WINDOW timings, which are taken every EVERY_S of program CPU time."""

    REFERENCE_S = 0.001
    EVERY_S = 0.2
    WINDOW = 5

    def __init__(self):
        self.samples: list[float] = []
        self.since = 0.0
        for _ in range(3):
            self.measure()

    def measure(self) -> None:
        t0 = time.process_time()
        calibration_loop()
        self.samples.append(time.process_time() - t0)
        self.since = 0.0

    def scale(self, program_s: float) -> float:
        self.since += program_s
        if self.since >= self.EVERY_S:
            self.measure()
        return self.REFERENCE_S / statistics.median(self.samples[-self.WINDOW:])


class Tally:
    """Op latencies and outcomes.  An op's latency is the CPU time the
    process spends in its program calls: the program is single-threaded and
    does no I/O, and CPU time leaves out the time the host gives to other
    processes.  It is scaled to the reference speed of `speed`."""

    def __init__(self, speed: HostSpeed):
        self.latencies: list[float] = []
        self.raw: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.speed = speed

    def run(self, ops, first_id: int = 0, tracer=None) -> None:
        """Run the ops in order, recording latencies and outcomes."""
        clock = time.process_time
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = first_id + i
            self.attempted += 1
            t0 = clock()
            try:
                result = op.run()
            except Exception as exc:  # a program fault fails the op, not the run
                self.failed += 1
                print(f"op {first_id + i} ({op.kind}) raised {exc!r}", file=sys.stderr)
                continue
            took = clock() - t0
            if tracer is not None:
                tracer.op = -1
            problems = op.check(result)
            if problems:
                self.failed += 1
                self.incorrect += 1
                print(f"op {first_id + i} ({op.kind}) failed its checks: {problems[:3]}", file=sys.stderr)
                continue
            self.raw.append(took)
            self.latencies.append(took * self.speed.scale(took))


def reset_program_caches() -> None:
    """Empty every functools cache in the program's modules, as a new process
    would find them."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "enrvar" or name.startswith("enrvar.")):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def end_to_end(workload_cls, seed: int, seconds: float):
    """Whole rounds until the next would end after `seconds`, and at least the
    workload's fixed_rounds; peak memory is read once those are done."""
    workload = workload_cls(seed)
    ops = workload.round(0)
    setup_s = seconds_since_process_start()
    speed = HostSpeed()
    setup_s *= speed.scale(0.0)
    tally = Tally(speed)
    began = time.perf_counter()
    r = 0
    while True:
        round_began = time.perf_counter()
        tally.run(ops, first_id=tally.attempted)
        r += 1
        if r == workload_cls.fixed_rounds:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.perf_counter()
        if r >= workload_cls.fixed_rounds and now - began + (now - round_began) > seconds:
            break
        ops = workload.round(r)
    lat = sorted(tally.latencies)
    if len(lat) < 2:
        raise SystemExit("perfbench: fewer than two ops completed; no latency figures")
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = sorted(tally.raw)
    extra = {
        "rounds": r,
        "unscaled": {
            "ops_per_s": len(raw) / sum(raw),
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_p90_ms": statistics.quantiles(raw, n=10, method="inclusive")[8] * 1e3,
        },
        "host_speed": speed.samples,
    }
    return tally, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, extra


def per_layer(workload_cls, seed: int, spans_path: Path):
    from tracer import Tracer

    rounds = range(workload_cls.fixed_rounds)
    tally = Tally(HostSpeed())
    workload = workload_cls(seed)
    for r in rounds:
        tally.run(workload.round(r))
    untraced_s = sum(tally.latencies)
    reset_program_caches()
    tracer = Tracer()
    tracer.install()
    try:
        workload = workload_cls(seed)
        for r in rounds:
            tally.run(workload.round(r), r * 10_000, tracer)
    finally:
        tracer.uninstall()
    traced_s = sum(tally.latencies) - untraced_s
    OUT_DIR.mkdir(exist_ok=True)
    spans = tracer.write_spans(spans_path)
    extra = {"spans": spans, "untraced_program_s": untraced_s, "traced_program_s": traced_s}
    return tally, tracer.metrics(traced_s - untraced_s), extra


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "enrvar" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/enrvar; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tally, metrics, extra = per_layer(workload_cls, args.seed, OUT_DIR / f"{stem}.spans.jsonl")
    else:
        tally, metrics, extra = end_to_end(workload_cls, args.seed, args.seconds)
    result = {
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{stem}.result.json", "w") as fh:
        json.dump({
            **result,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "nproc": os.cpu_count(), "python": platform.python_version(), **extra,
        }, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
