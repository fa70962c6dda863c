"""One workload process: set up, warm up, run ops, check them, report JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        [--setup-only] --workdir DIR

The last stdout line is a JSON object; the lines before it are a report
for people.  run.py starts this script with BLAS and OpenMP pinned to one
thread and `src` on PYTHONPATH.

Times are scaled to a reference speed.  The speed of a shared machine
drifts by tens of percent over seconds, so a fixed reference loop, which
calls nothing in equisquares, runs between ops.  Each op's time is
multiplied by REFERENCE_S over the mean time of the loop just before and
just after it.  The report prints the unscaled figures too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

MIN_OPS = 20  # every run has at least this many ops: op_tail_s needs ten above it
FINGERPRINT_OPS = 20  # the output fingerprint hashes the first this many ops
TAIL_ABOVE = 10
SHOWN_FAILURES = 5
REFERENCE_S = 0.010  # reference_loop's time at the reference speed
CALIBRATE_EVERY_S = 0.05


def reference_loop() -> float:
    """Seconds taken by fixed work in the program's style: dicts, sets, sorting, numpy."""
    import numpy as np

    start = time.perf_counter()
    counts: dict[int, int] = {}
    seen = set()
    acc = 0
    for i in range(20000):
        k = (i * 7919) % 1021
        counts[k] = counts.get(k, 0) + 1
        if k & 1:
            seen.add((k, i & 3))
        acc += k * k % 13
    ranked = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    values = np.random.default_rng(0).random(30000)
    values.sort()
    if acc < 0 or not ranked or not seen:  # keeps the work from being skipped
        raise RuntimeError("reference loop")
    return time.perf_counter() - start


@dataclass
class Record:
    index: int
    start: float
    end: float
    ok: bool
    frac: float | None
    digest: bytes
    scale: float = 1.0  # REFERENCE_S / reference-loop time around this op

    @property
    def raw(self) -> float:
        return self.end - self.start

    @property
    def seconds(self) -> float:
        return self.raw * self.scale


def run_op(wl, i: int, tracer, counts: dict | None) -> tuple[Record, str]:
    """Run, time and check op i; an exception or a failed check fails the op, never the run."""
    if tracer is not None:
        tracer.op = i
    start = time.perf_counter()
    try:
        result = wl.op(i)
        error = ""
    except Exception as exc:
        error = f"op raised {type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if tracer is not None:
        tracer.op = None
    if not error:
        try:
            outcome = wl.check(i, result)
            error = outcome.reason if not outcome.ok else ""
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    if error:
        return Record(i, start, end, False, None, b""), error
    if counts is not None:
        for key, value in outcome.counts.items():
            counts[key] = counts.get(key, 0) + value
    return Record(i, start, end, True, outcome.frac, outcome.digest), ""


def run_ops(wl, seconds: float, min_ops: int, count: int | None = None, tracer=None,
            counts: dict | None = None) -> list[Record]:
    """Run whole cycles of ops 0, 1, ...: `count` ops, or until both limits are met.

    The reference loop runs at the end of each cycle, and after any op that
    ends CALIBRATE_EVERY_S or more after the last loop.  Counts that checks
    return are summed into `counts`.
    """
    records: list[Record] = []
    pending: list[Record] = []  # ops since the last reference loop
    shown = 0
    began = time.perf_counter()
    before = reference_loop()
    calibrated = time.perf_counter()
    while True:
        i = len(records)
        if count is not None:
            if i >= count:
                break
        elif i >= min_ops and time.perf_counter() - began >= seconds:
            break
        for j in range(i, i + wl.cycle):
            record, error = run_op(wl, j, tracer, counts)
            pending.append(record)
            if error and shown < SHOWN_FAILURES:
                print(f"op {j} failed: {error}", file=sys.stderr)
                shown += 1
            if j == i + wl.cycle - 1 or time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
                after = reference_loop()
                calibrated = time.perf_counter()
                for r in pending:
                    r.scale = REFERENCE_S / ((before + after) / 2)
                records += pending
                pending = []
                before = after
    return records


def tail(seconds: list[float]) -> tuple[float, float]:
    """(percentile, value): the op time with exactly TAIL_ABOVE ops above it."""
    ordered = sorted(seconds)
    k = max(len(ordered) - TAIL_ABOVE - 1, 0)
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def fingerprint(records: list[Record]) -> str:
    h = hashlib.sha256()
    for r in records[:FINGERPRINT_OPS]:
        h.update(f"op {r.index} ok={r.ok}\n".encode())
        h.update(r.digest)
    return h.hexdigest()


def speed_note(records: list[Record]) -> str:
    scales = [r.scale for r in records]
    return (f"reference loop: median {REFERENCE_S / statistics.median(scales) * 1e3:.3f} ms, "
            f"from {REFERENCE_S / max(scales) * 1e3:.3f} to {REFERENCE_S / min(scales) * 1e3:.3f} ms; "
            f"op times are scaled to {REFERENCE_S * 1e3:.1f} ms")


def end_to_end(records: list[Record]) -> tuple[dict, list[str]]:
    secs = [r.seconds for r in records]
    raw = [r.raw for r in records]
    ok = sum(r.ok for r in records)
    fracs = [r.frac for r in records if r.frac is not None]
    pct, tail_value = tail(secs)
    metrics = {
        "ops_per_s": (ok / sum(secs), "1/s"),
        "op_p50_s": (statistics.median(secs), "s"),
        "op_tail_s": (tail_value, "s"),
        "transversal_frac": (statistics.fmean(fracs) if fracs else 0.0, "ratio"),
        "success_frac": (ok / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        speed_note(records),
        f"ops_per_s: {ok} ops in {sum(secs):.3f} s of scaled op time "
        f"({ok / sum(raw):.6g} ops/s unscaled)",
        f"op_p50_s: median of {len(secs)} ops ({statistics.median(raw):.6g} s unscaled)",
        f"op_tail_s: p{pct:.1f} of {len(secs)} ops, {TAIL_ABOVE} ops above it "
        f"({tail(raw)[1]:.6g} s unscaled)",
        f"transversal_frac: mean over {len(fracs)} ops that return a transversal",
        f"success_frac: {ok} of {len(records)} ops passed every check",
    ]
    return metrics, notes


def per_layer(tracer, traced: list[Record], untraced: list[Record]) -> tuple[dict, list[str]]:
    from tracer import per_function, untraced_time

    ops = len(traced)
    scale = {r.index: r.scale for r in traced}
    table = per_function(tracer.spans, scale)
    counts = tracer.counts
    op_time = sum(r.seconds for r in traced)
    plain_time = sum(r.seconds for r in untraced)
    outside = untraced_time(tracer.spans, {r.index: (r.start, r.end) for r in traced})
    metrics = {}
    for name, (calls, secs) in table.items():
        metrics[f"{name}.self_s"] = (secs / ops, "s")
        metrics[f"{name}.calls"] = (calls / ops, "count")
        module = f"{name.split('.')[0]}.self_s"
        metrics[module] = (metrics.get(module, (0.0,))[0] + secs / ops, "s")
    ls_calls = table.get("solvers.local_search", (0, 0.0))[0]
    survivors = counts["halving.survivor_ratio.n"]
    solves = counts["solvers.exact.solves"]
    metrics.update({
        "halving.components": (counts["halving.components"] / ops, "count"),
        "halving.deleted_edges": (counts["halving.deleted_edges"] / ops, "count"),
        "halving.survivor_ratio": (counts["halving.survivor_ratio.sum"] / survivors if survivors else 0.0,
                                   "ratio"),
        "solvers.exact.proved_ratio": (counts["solvers.exact.proved"] / solves if solves else 0.0, "ratio"),
        "solvers.local_search.gain_cells": (
            counts["solvers.local_search.gain_cells"] / ls_calls if ls_calls else 0.0, "count"),
        "squares.file_bytes": (counts["squares.file_bytes"] / ops, "bytes"),
        "cli.sidecar_bytes": (counts["cli.sidecar_bytes"] / ops, "bytes"),
        "bench.trace_overhead_s": ((op_time - plain_time) / ops, "s"),
        "bench.untraced_s": (sum(s * scale[op] for op, s in outside.items()) / ops, "s"),
    })
    lines = [speed_note(traced),
             f"traced {ops} ops, {len(tracer.spans)} spans; per op: "
             f"{op_time / ops:.6f} s traced vs {plain_time / ops:.6f} s untraced",
             f"{'module / function':<44}{'calls/op':>12}{'self s/op':>14}{'share':>8}"]
    modules: dict[str, list] = {}
    for name, (calls, secs) in table.items():
        row = modules.setdefault(name.split(".")[0], [0, 0.0, []])
        row[0] += calls
        row[1] += secs
        row[2].append((name, calls, secs))
    for module, (calls, secs, fns) in sorted(modules.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{module:<44}{calls / ops:>12.2f}{secs / ops:>14.6f}{secs / op_time:>8.1%}")
        for name, calls, secs in sorted(fns, key=lambda f: -f[2]):
            lines.append(f"  {name:<42}{calls / ops:>12.2f}{secs / ops:>14.6f}{secs / op_time:>8.1%}")
    gap = metrics["bench.untraced_s"][0]
    lines.append(f"{'(op time outside every span)':<44}{'':>12}{gap:>14.6f}{gap * ops / op_time:>8.1%}")
    return metrics, lines


def environment(wl, counts: dict, ops: int) -> dict:
    import numpy
    import scipy

    env = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "largest_square_n": wl.largest_n,
        "largest_grid_int64_bytes": wl.largest_n ** 2 * 8,
    }
    env.update({f"{key}_per_op": value / ops for key, value in sorted(counts.items())})
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args(argv)

    began = time.perf_counter()
    import workloads  # numpy, scipy and equisquares: part of set-up

    sizes = (workloads.SMOKE_SIZES if args.smoke else workloads.SIZES)[args.workload]
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes)
    workdir = Path(args.workdir)
    wl.prepare(workdir)
    try:
        run_ops(wl, 0.0, 0, count=wl.cycle)  # warm-up: one op of each kind
        setup_raw = time.perf_counter() - began
        setup_s = setup_raw * REFERENCE_S / statistics.median(reference_loop() for _ in range(3))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        min_ops = wl.cycle if args.smoke else MIN_OPS
        counts: dict = {}  # summed over the ops that checks counted
        if not args.trace:
            records = run_ops(wl, args.seconds, min_ops, counts=counts)
            untraced, counted = records, len(records)
            metrics, report = end_to_end(records)
        else:
            from tracer import Tracer

            untraced = run_ops(wl, args.seconds / 2, min_ops)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_ops(wl, 0.0, 0, count=len(untraced), tracer=tracer, counts=counts)
            finally:
                tracer.uninstall()
            tracer.counts.update(counts)
            workdir.mkdir(parents=True, exist_ok=True)
            spans_file = workdir / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write_csv(spans_file)
            metrics, report = per_layer(tracer, traced, untraced)
            report.append(f"spans written to {spans_file}")
            for plain, r in zip(untraced, traced):
                if r.ok and r.digest != plain.digest:  # tracing must not change an output
                    print(f"op {r.index} failed: traced output differs from untraced", file=sys.stderr)
                    r.ok = False
            records = untraced + traced
            counted = len(traced)
    finally:
        wl.close()
    result = {
        "setup_s": setup_s,
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "fingerprint": fingerprint(untraced),
        "env": environment(wl, counts, counted),
        "report": report + [f"setup: {setup_raw:.4f} s unscaled in this process"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
