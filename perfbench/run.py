"""equisquares benchmark: one workload, end-to-end metrics or a traced breakdown.

    python3 perfbench/run.py --workload block-pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in worker processes
started with BLAS and OpenMP pinned to one thread and `src` on PYTHONPATH:
SETUPS - 1 processes that only set up, then one that also measures.
`setup_s` is the median set-up time of all SETUPS.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the per-layer ones from
a traced run.  The last stdout line is the JSON result; the lines before
it are the report, the environment and the output fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("block-pipeline", "exact-proof", "trials-small", "cli-roundtrip")
DEFAULT_SEED = 1
CONFIRM_SEED = 2  # reserved for confirming a claimed gain; do not tune against it
SETUPS = 3
DEADLINE_S = 170  # the whole run, all workers included, ends within this
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_worker(args, root: Path, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(root / ".perfbench")]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=root, env=worker_env(root), stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within the {DEADLINE_S} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError(f"worker printed no result: {lines[-1][:200]!r}") from None


def cpu_record() -> dict:
    """nproc, CPU model and cache sizes, read from lscpu."""
    record = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0))}
    try:
        out = subprocess.run(["lscpu"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10, env={**os.environ, "LC_ALL": "C"}).stdout
    except (OSError, subprocess.TimeoutExpired):
        return record
    fields = dict(line.split(":", 1) for line in out.splitlines() if ":" in line)
    for key, name in (("Model name", "cpu_model"), ("L2 cache", "l2"), ("L3 cache", "l3")):
        if key in fields:
            record[name] = fields[key].strip()
    return record


def recorded_fingerprint(workload: str, seed: int) -> str | None:
    table = json.loads((HERE / "fingerprints.json").read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not ((root / "src" / "equisquares" / "__init__.py").is_file()
            and (root / "BENCHMARK.json").is_file()):
        print("error: run from the root of an equisquares checkout "
              "(with src/equisquares and BENCHMARK.json)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [run_worker(args, root, True, deadline)["setup_s"] for _ in range(SETUPS - 1)]
        result = run_worker(args, root, False, deadline)
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    measured = result["metrics"]
    measured["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    # Report exactly the metrics BENCHMARK.json declares; a layer that never ran reads 0.
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing and not args.trace:
        print(f"error: {args.workload}: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: measured.get(m["name"], {"value": 0.0, "unit": m["unit"]}) for m in wanted}

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    for line in result["report"]:
        print(line)
    print(f"setup_s: median of {len(setups)} set-ups: " + ", ".join(f"{s:.4f}" for s in setups))
    if not args.trace:
        for name, m in metrics.items():
            print(f"  {name:<18}{m['value']:>14.6g} {m['unit']}")
    print("env " + json.dumps({**cpu_record(), **result["env"]}))
    known = recorded_fingerprint(args.workload, args.seed)
    verdict = ("no recorded fingerprint for this seed" if known is None
               else "matches the recorded one" if known == result["fingerprint"]
               else f"DIFFERS from the recorded {known}")
    print(f"fingerprint {result['fingerprint']} ({verdict})")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
