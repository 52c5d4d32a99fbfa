"""Run one benchmark workload against the boxops sources in ../src.

    python3 perfbench/run.py --workload collapse --seed 1 --seconds 30 --trace 0

Each workload is one client in a closed loop, in this one process: the next
request is issued only when the previous one has returned.  With --trace 0
the run prints the end-to-end metrics; with --trace 1 it makes an untraced
pass and a traced pass over the same requests and prints the per-layer
metrics, the tracing overhead and the self-time breakdown, and writes the
spans to .perfbench_out/.  The last line of standard output is always one
JSON object: {"correct", "attempted", "failed", "metrics"}.

A run is correct when every request passed its output check and, for the
seed pinned in expected.json, the digest of the first round's verdicts
matches the pinned one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import harness
import tracer as tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
PINNED = HERE / "expected.json"
SPAN_DIR = harness.ROOT / ".perfbench_out"
# so that at least ten latency samples lie beyond the reported p90
MIN_REQUESTS = 100


def pinned_digest(workload: str, seed: int):
    pins = json.loads(PINNED.read_text())
    if seed != pins["seed"]:
        return None
    return pins["first_round_digest"].get(workload)


def digest_verdict(name, seed, digests):
    """(ok, text) for the first-round digests of one run."""
    if len(set(digests)) != 1:
        return False, f"passes disagree: {' '.join(digests)}"
    want = pinned_digest(name, seed)
    if want is None:
        return True, f"{digests[0]} (no pin for seed {seed})"
    if want != digests[0]:
        return False, f"{digests[0]} MISMATCH, pinned {want}"
    return True, f"{digests[0]} (matches the pin for seed {seed})"


def plain_run(workload, seed, seconds):
    setup_times, lib, state = harness.timed_setup(workload)
    run = harness.closed_loop(workload, lib, state, seed, seconds,
                              min_requests=MIN_REQUESTS)
    busy = sum(run.latencies)
    p50, p90, beyond = harness.latency_summary(run.latencies)
    n = run.attempted
    metrics = {
        "items_per_s": ((n - run.failed) / busy, "1/s",
                        f"{n} requests in {run.rounds} rounds, {busy:.2f} s busy"),
        "item_p50_ms": (p50, "ms", f"n={n}"),
        "item_p90_ms": (p90, "ms", f"n={n}, {beyond} beyond"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB", "process high-water mark"),
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} set-ups"),
    }
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<13} {value:>12.4f} {unit:<4} {note}")
    rb = sorted(run.round_busy)
    print(f"{'rounds':<13} {run.rounds:>12}      {rb[0]:.3f} to {rb[-1]:.3f} s busy each")
    print(f"{'fail_ratio':<13} {run.failed / n:>12.4f}      {run.failed} of {n} failed")
    return [run], {k: (v, u) for k, (v, u, _) in metrics.items()}


def traced_run(workload, seed, seconds):
    _, lib, state = harness.setup_once(workload)
    plain = harness.closed_loop(workload, lib, state, seed, seconds / 2)
    lib = state = None
    tr = tracing.Tracer()
    _, lib, state = harness.setup_once(workload, before_setup=tr.install)
    tr.start_requests()
    traced = harness.closed_loop(workload, lib, state, seed, None,
                                 max_rounds=plain.rounds, call=tr.request_call)
    tr.finish()
    busy_plain, busy_traced = sum(plain.latencies), sum(traced.latencies)
    overhead = busy_traced / busy_plain - 1.0
    values = tr.metrics(traced.attempted, overhead)
    units = {name: unit for name, unit, _, _ in tracing.METRICS}
    for name, unit, moves, on in tracing.METRICS:
        print(f"{name:<46} {values[name]:>14.6g} {unit:<10} moves {moves} on {on}")
    print(f"traced {traced.attempted} requests in {traced.rounds} rounds: "
          f"{busy_traced:.2f} s traced against {busy_plain:.2f} s untraced "
          f"(overhead {overhead:+.1%})")
    table = tr.self_time_table()
    covered = sum(s for _, s, _ in table)
    print(f"self time by span, {covered:.2f} s in all "
          f"({covered / busy_traced:.1%} of the traced request time):")
    for name, own, calls in table:
        print(f"  {name:<46} {own:>9.3f} s {own / covered:>7.1%} {calls:>9} calls")
    print("  (request.* rows are request time outside every layer span)")
    path = SPAN_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tr.write_spans(path)
    print(f"{len(tr.spans)} spans written to {path.relative_to(harness.ROOT)}")
    return [plain, traced], {k: (values[k], units[k]) for k in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="summed request time to measure (whole rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not harness.library_present():
        print(f"no boxops sources under {harness.SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    measure = traced_run if args.trace else plain_run
    passes, metrics = measure(workload, args.seed, args.seconds)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digest_ok, digest_text = digest_verdict(
        workload.name, args.seed, [p.digest() for p in passes])
    correct = failed == 0 and digest_ok
    print(f"digest        {digest_text}")
    print(f"correct       {str(correct).lower()}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
