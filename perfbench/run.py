"""Benchmark for ntdice: one closed-loop workload per run, stdlib only.

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout that holds ``src/ntdice``.  One
process runs rounds of the workload's ops back to back (one client, no
threads) until the ops have been busy for ``--seconds``, then checks the
first round's outputs against the independent computations in
``oracle.py``; every later round must repeat them.  The last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s,
ops_per_s, op_p50_ms, peak_rss_mb); with ``--trace 1`` the same run is
made with every public ntdice function wrapped, and the metrics are the
per-layer ones.  Spans go to ``perfbench_out/spans-<workload>-<seed>.json``.
See README.md for what each op and metric is.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
# Timings are reported at a fixed reference speed: each timed interval is
# scaled by REFERENCE_S / (mean time the reference kernel took right before,
# during and right after it).  Single-thread speed on small shared machines
# drifts by 20-40% within seconds to minutes; the kernel (pure Python, no
# ntdice code) drifts with it, so the ratio holds still while raw times do
# not.  During an in-process op the kernel also runs every SAMPLE_EVERY_S
# from a SIGALRM handler, and its time is taken out of the op's.
REFERENCE_S = 0.010
SAMPLE_EVERY_S = 0.25


@dataclass(frozen=True)
class Context:
    root: str
    src: str
    out_dir: str


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="ntdice benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("census", "families", "explore", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def reference() -> float:
    """Seconds the reference kernel takes now: a brute-force census of the
    1,680 words at n = 3 (recursion, strings, dicts; about 10 ms)."""
    start = time.perf_counter()
    oracle.brute_census(3)
    return time.perf_counter() - start


class Sampler:
    """Reference-kernel samples taken while an op runs in this process."""

    def __init__(self) -> None:
        self.kernels: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernels.append(reference())
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self.kernels, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the reference
    kernel runs where the timed work runs."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def probe_setup(args: argparse.Namespace) -> tuple[float, float]:
    """(raw, scaled) seconds from starting a fresh interpreter until it has
    imported ntdice, built the inputs and finished one warm-up op."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"]
    before = reference()
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    raw = float(proc.stdout.split()[-1]) - start
    return raw, raw * 2 * REFERENCE_S / (before + reference())


def run(args: argparse.Namespace) -> dict:
    import ntdice
    import workloads

    if Path(ntdice.__file__).resolve().parent != SRC / "ntdice":
        raise RuntimeError(f"imported ntdice from {ntdice.__file__}, not from {SRC}")
    ctx = Context(str(ROOT), str(SRC), str(OUT))
    workload = workloads.WORKLOADS[args.workload](args.seed, ctx)
    ops = workload.ops
    if args.probe:
        ops[0].run()
        print(time.monotonic())
        return {}

    ops[0].run()  # warm-up, untimed
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(ntdice)
    latencies: dict[str, list[float]] = {op.name: [] for op in ops}  # scaled
    raw_busy = 0.0
    first: dict[str, object] = {}
    bad: dict[str, int] = {op.name: 0 for op in ops}  # later rounds that differ
    problems: dict[str, list[str]] = {op.name: [] for op in ops}
    rounds = 0
    # No samples inside cli ops: the handler would run on the CPU the child
    # process needs.  None in the traced run either, where they would
    # inflate the open span.
    sampler = Sampler() if args.workload != "cli" and not tracer else None
    ref_before = reference()
    try:
        while rounds == 0 or raw_busy < args.seconds:
            for op in ops:
                span = tracer.begin("op." + op.name) if tracer else -1
                if sampler:
                    sampler.start()
                start = time.perf_counter()
                try:
                    output = op.run()
                except Exception as exc:  # an op that raises counts as failed
                    output = exc
                elapsed = time.perf_counter() - start
                kernels = [ref_before]
                if sampler:
                    sampler.stop()
                    elapsed -= sampler.spent
                    kernels += sampler.kernels
                if tracer:
                    tracer.end(span)
                ref_before = reference()
                kernels.append(ref_before)
                raw_busy += elapsed
                latencies[op.name].append(elapsed * REFERENCE_S / statistics.fmean(kernels))
                if rounds == 0:
                    first[op.name] = output
                elif output != first[op.name]:
                    bad[op.name] += 1
                if tracer and not isinstance(output, Exception):
                    problems[op.name] += workload.after_op(op, output, tracer)
            rounds += 1
    finally:
        restored = tracer.restore() if tracer else True
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    for op in ops:
        output = first[op.name]
        if isinstance(output, Exception):
            problems[op.name].append(f"raised {output!r}")
        else:
            problems[op.name] += op.check(output)
    # An op whose first output fails its check fails in every round.  An op
    # that passes but later differs from itself fails only now and then,
    # which leaves the rest of the run unverifiable: correct is false.
    failed = 0
    flaky = False
    for op in ops:
        if problems[op.name]:
            failed += rounds
            print(f"FAIL {op.name}: {'; '.join(problems[op.name][:5])}", file=sys.stderr)
        elif bad[op.name]:
            failed += bad[op.name]
            flaky = True
            print(f"FAIL {op.name}: {bad[op.name]} rounds differ from the first",
                  file=sys.stderr)
    attempted = rounds * len(ops)
    busy = sum(sum(ts) for ts in latencies.values())
    # ops per second of the median round: one round disturbed by the
    # machine moves it less than it moves the mean
    round_s = statistics.median(sum(ts[i] for ts in latencies.values()) for i in range(rounds))
    if not restored:
        raise RuntimeError("traced functions were not all restored")

    if tracer:
        from spans import layer_metrics

        metrics = layer_metrics(tracer, rounds)
        metrics.update(workload.layer_metrics(tracer, rounds, latencies))
        for name, unit in workloads.cli_metric_units().items():
            metrics.setdefault(name, (0.0, unit))
        metrics["bench.traced_ops_per_s"] = (len(ops) / round_s, "1/s")
        tracer.write(str(OUT / f"spans-{args.workload}-{args.seed}.json"))
    else:
        setup = [probe_setup(args) for _ in range(SETUP_PROBES)]
        all_latencies = [t for ts in latencies.values() for t in ts]
        print(f"raw: setup_s {statistics.median(raw for raw, _ in setup):.4f} "
              f"ops_per_s {attempted / raw_busy:.4f}", file=sys.stderr)
        metrics = {
            "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
            "ops_per_s": (len(ops) / round_s, "1/s"),
            "op_p50_ms": (statistics.median(all_latencies) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(f"{args.workload}: {rounds} rounds of {len(ops)} ops, {raw_busy:.2f} s busy "
          f"({busy:.2f} s at reference speed)", file=sys.stderr)
    for op in ops:
        print(f"  {op.name}: median {statistics.median(latencies[op.name]) * 1e3:.1f} ms",
              file=sys.stderr)
    return {
        "correct": not flaky,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ntdice" / "__init__.py").is_file():
        print(f"error: {SRC / 'ntdice'} not found; run inside an ntdice checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if not args.probe:
        pin_to_one_cpu()
    result = run(args)
    if not args.probe:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
