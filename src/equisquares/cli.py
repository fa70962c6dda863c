"""Command-line driver: generate instances, run solvers, verify artifacts,
and run the experiment suites with CSV output.

JSON goes to stdout for machine consumption; human-readable notes go to
stderr.  Exit codes: 0 success, 1 verification failure, 2 usage error.
All randomness flows from one seed through named per-site streams, and
trial i of an experiment draws its own seed from (seed, i), so runs are
reproducible even under --parallel and adjacent seeds share no trials.

Each experiment is one entry of EXPERIMENTS, its jobs and its summary.  A
trial function returns only its own CSV columns, and the runner puts trial,
seed and n in front (bound-tightness: one row per order, without the first two).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import bipartite, constructions, halving, solvers, squares
from .rng import stream, trial_seed

# Search nodes per order in bound-tightness: up to n = 40 it proves every
# order but 25, 31 and 33, and the whole run takes about 3 s on 2 cores.
BOUND_TIGHTNESS_BUDGET = 3 * 10**5


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _fail_usage(msg: str) -> int:
    _say(f"error: {msg}")
    return 2


def _int_at_least(lowest: int):
    """An argparse type: an integer of at least `lowest`, else a usage error (exit 2)."""
    def integer(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        return value
    return integer


# ---------------------------------------------------------------- generate

def cmd_generate(args) -> int:
    out = Path(args.out)
    if args.kind == "block" and args.m is None:
        return _fail_usage("--m is required for block squares")
    sidecar, extra = None, {}  # sidecar: (name, function writing it to a path)
    try:
        if args.kind == "counterexample":
            square, pairing = constructions.counterexample_square(args.n)
            text = constructions._pairing_text(args.n)
            sidecar = ("pairing", lambda path: path.write_bytes(text))
            extra = {"bound": pairing.transversal_bound()}
        elif args.kind == "block":
            square, blocks = constructions.block_structured_square(args.n, args.m, seed=args.seed)
            sidecar = ("blocks", lambda path: constructions.write_blocks(blocks, path))
        elif args.kind == "random":
            square = constructions.random_equi_square(args.n, seed=args.seed)
        else:  # cyclic
            square = constructions.cyclic_latin(args.n)
    except (constructions.TooSmall, constructions.NotDivisible) as exc:
        return _fail_usage(str(exc))
    squares.write_square(square, out)
    report = {"square": str(out)}
    if sidecar:
        name, write = sidecar
        path = out.with_suffix(f".{name}.json")
        write(path)
        report[name] = str(path)
    _say("wrote " + " and ".join(report.values()))
    print(json.dumps({**report, **extra}))
    return 0


# ------------------------------------------------------------------- solve

def cmd_solve(args) -> int:
    square = squares.read_square(args.infile)
    n = square.n
    out = Path(args.out) if args.out else Path(str(args.infile) + ".transversal.txt")
    optimal = False

    if args.method == "exact":
        t, optimal = solvers.exact_max(square, node_budget=args.budget)
    elif args.method == "brute":
        try:
            _, t = solvers.brute_force_max(square)
        except solvers.TooLarge as exc:
            return _fail_usage(str(exc))
        optimal = True
    elif args.method == "greedy":
        t = solvers.random_greedy(square, stream(args.seed, "greedy"))
    elif args.method == "local":
        rng = stream(args.seed, "local")
        t = solvers.random_greedy(square, rng)
        iterations = 40 * n if args.iterations is None else args.iterations
        t = solvers.local_search(square, t, rng, iterations)
    else:  # block
        if not args.blocks:
            return _fail_usage("--blocks sidecar is required for the block method")
        blocks = constructions.read_blocks(args.blocks)
        s = halving.default_cap(n) if args.s is None else args.s
        t, _, _ = halving.block_transversal(square, blocks, s, stream(args.seed, "block"))

    squares.write_transversal(t, out)
    _say(f"{args.method}: size {t.size} of n={n}; cells in {out}")
    # No transversal has more than n cells, so one of n cells is optimal.
    optimal = optimal or t.size == n
    print(json.dumps({"size": t.size, "optimal": optimal, "cells_file": str(out)}))
    return 0


# ------------------------------------------------------------------ verify

def cmd_verify(args) -> int:
    report: dict = {"square": None, "transversal": None, "certificate": None}
    try:
        square = squares.read_square(args.square)
        report["square"] = {"n": square.n, "valid": True}
    except (squares.SquareError, OSError) as exc:
        _say(f"square: {type(exc).__name__}: {exc}")
        print(json.dumps({"square": {"valid": False, "error": str(exc)}}))
        return 1

    transversal = None
    if args.transversal:
        try:
            cells = squares.read_transversal(args.transversal)
            transversal = squares.validate_transversal(square, cells)
            report["transversal"] = {"size": transversal.size, "valid": True}
        except (squares.SquareError, OSError) as exc:
            _say(f"transversal: {type(exc).__name__}: {exc}")
            report["transversal"] = {"valid": False, "error": f"{type(exc).__name__}: {exc}"}
            print(json.dumps(report))
            return 1

    if args.pairing:
        target = transversal if transversal is not None else squares.Transversal(())
        try:
            pairing = constructions.read_pairing(args.pairing, square.n)
            cert = constructions.missing_colour_certificate(square, pairing, target)
            report["certificate"] = {
                "passed": cert.passed,
                "bound": cert.bound,
                "min_missing": min((len(s) for s in cert.missing), default=0),
            }
            if not cert.passed:
                _say("certificate: bound exceeded")
                print(json.dumps(report))
                return 1
        except (constructions.CertificateViolation, constructions.PairingMismatch, OSError) as exc:
            _say(f"certificate: {type(exc).__name__}: {exc}")
            report["certificate"] = {"passed": False, "error": str(exc)}
            print(json.dumps(report))
            return 1

    _say("all checks passed")
    print(json.dumps(report))
    return 0


# -------------------------------------------------------------- experiment

@lru_cache(maxsize=8)
def _survival_ctx(n: int, m: int, square_seed: int):
    square, blocks = constructions.block_structured_square(n, m, seed=square_seed)
    graph = halving.build_block_multigraph(square, blocks)
    matchings = tuple(bipartite.decompose_regular(graph, n // m))
    return graph, matchings


def _trial_row(job: tuple) -> dict:
    """Trial t's CSV row: t, its seed = trial_seed(--seed, t) and n, then the columns
    that trial_fn(args, t, seed, rng) returns, rng being the experiment's stream on seed."""
    trial_fn, args, trial = job
    seed = trial_seed(args.seed, trial)
    return {"trial": trial, "seed": seed, "n": args.n,
            **trial_fn(args, trial, seed, stream(seed, args.name))}


def _trials(trial_fn):
    """The jobs of an experiment of --trials seeded trials of trial_fn."""
    return lambda args: (_trial_row, [(trial_fn, args, t) for t in range(args.trials)])


def _trial_missing_colour(args, trial, seed, rng) -> dict:
    square, pairing = constructions.counterexample_square(args.n)
    t = solvers.random_greedy(square, rng)
    if trial % 2 == 1:
        t = solvers.local_search(square, t, rng, 40 * args.n)
    try:
        cert = constructions.missing_colour_certificate(square, pairing, t)
        violations = 0 if cert.passed else 1
        min_missing = min(len(s) for s in cert.missing)
    except constructions.CertificateViolation:
        violations, min_missing = 1, 0
    return {"method": "greedy+local" if trial % 2 == 1 else "greedy", "size": t.size,
            "violations": violations, "min_missing": min_missing}


def _trial_survival(args, trial, seed, rng) -> dict:
    # The square is drawn from --seed itself, so every trial halves the same graph.
    graph, matchings = _survival_ctx(args.n, args.m, args.seed)
    final, _ = halving.iterated_halving(graph, matchings, args.s, rng)
    return {"edge_label": 0, "survived": int(0 in final)}


def _trial_concentration(args, trial, seed, rng) -> dict:
    n, m, s = args.n, args.m, args.s
    square, blocks = constructions.block_structured_square(n, m, seed=seed)
    _, trace, loads = halving.block_transversal(square, blocks, s, rng)
    # Centre m: a perfect matching of n blocks of m cells over n rows has mean row load m.
    dev = np.abs(loads.astype(np.float64) - m)
    within = int((dev <= m / 2).sum())
    sumsq = halving.realized_effect_squares(trace, blocks, n)
    with np.errstate(divide="ignore"):
        bounds = np.minimum(1.0, 2.0 * np.exp(-((m / 2) ** 2) / sumsq))
    return {"m": m, "s": s, "rows_within": within, "frac_within": within / n,
            "p99_abs_dev": float(np.percentile(dev, 99)), "mcdiarmid_worst_row": float(bounds.max())}


def _trial_greedy_baseline(args, trial, seed, rng) -> dict:
    square = constructions.random_equi_square(args.n, seed=seed)
    return {"size": solvers.random_greedy(square, rng).size}


def _trial_peel(args, trial, seed, rng) -> dict:
    square = constructions.random_equi_square(args.n, seed=seed)
    sizes = [t.size for t in solvers.peel_decomposition(square, rng, args.min_size)]
    return {"min_size": args.min_size, "layers": len(sizes), "total_cells": sum(sizes),
            "smallest": min(sizes, default=0)}


def _order_bound_tightness(n: int) -> dict | None:
    """The exact search on counterexample_square(n) against the certificate
    bound; None for an order with no paired-box construction."""
    try:
        square, pairing = constructions.counterexample_square(n)
    except constructions.TooSmall:
        return None
    t, proved = solvers.exact_max(square, node_budget=BOUND_TIGHTNESS_BUDGET)
    return {"n": n, "bound": pairing.transversal_bound(), "best": t.size,
            "proved": "true" if proved else "false"}


def _mean(rows: list[dict], column: str) -> float:
    return sum(r[column] for r in rows) / len(rows)


# name -> (jobs, summary), in the parser's order.  jobs(args) gives a row function and
# its inputs, one per CSV row; summary(rows) the JSON fields after "experiment" and "trials".
EXPERIMENTS = {
    "missing-colour": (_trials(_trial_missing_colour), lambda rows: {
        "violations": sum(r["violations"] for r in rows), "mean_size": _mean(rows, "size")}),
    "concentration": (_trials(_trial_concentration), lambda rows: {
        "frac_within_min": min(r["frac_within"] for r in rows),
        "frac_within_mean": _mean(rows, "frac_within"),
        "p99_abs_dev_max": max(r["p99_abs_dev"] for r in rows)}),
    "greedy-baseline": (_trials(_trial_greedy_baseline), lambda rows: {"mean_size": _mean(rows, "size")}),
    "peel": (_trials(_trial_peel), lambda rows: {"mean_layers": _mean(rows, "layers")}),
    "survival": (_trials(_trial_survival), lambda rows: {"survival_frequency": _mean(rows, "survived")}),
    # One row per order; best = bound is optimal by the missing-colour certificate, proved or not.
    "bound-tightness": (lambda args: (_order_bound_tightness, range(8, args.n + 1)), lambda rows: {
        "tight": [r["n"] for r in rows if r["best"] == r["bound"]],
        "unproved": [r["n"] for r in rows if r["proved"] == "false" and r["best"] < r["bound"]]}),
}


def _run_trials(fn, param_list, workers: int) -> list[dict]:
    """fn on each parameter, rows in parameter order; None results are dropped."""
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(fn, param_list))
    else:
        rows = [fn(p) for p in param_list]
    return [r for r in rows if r is not None]


def cmd_experiment(args) -> int:
    name, n = args.name, args.n
    # Usage errors, then the defaults that the trial functions read from args.
    if args.m is None and name in ("survival", "concentration"):
        return _fail_usage(f"--m is required for the {name} experiment")
    if n < 8 and name == "bound-tightness":
        return _fail_usage(f"--n {n}: bound-tightness runs the orders from 8 up")
    if args.min_size is not None and args.min_size > n and name == "peel":
        return _fail_usage(f"--min-size {args.min_size} exceeds --n {n}")
    if args.s is None:  # survival: no deletions, so every edge survives capping
        args.s = 2 * n if name == "survival" else int(np.ceil(np.sqrt(n)))
    if args.min_size is None:
        args.min_size = int(np.ceil(0.9 * n))
    jobs, summary = EXPERIMENTS[name]
    try:
        rows = _run_trials(*jobs(args), args.parallel)
    except (constructions.NotDivisible, constructions.TooSmall, halving.NotPowerOfTwo) as exc:
        sizes = f"--n {n}" if args.m is None else f"--n {n} --m {args.m}"
        return _fail_usage(f"{sizes}: {exc}")
    with open(args.csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    _say(f"{name}: {len(rows)} rows -> {args.csv}")
    print(json.dumps({"experiment": name, "trials": len(rows), **summary(rows)}))
    return 0


# -------------------------------------------------------------------- main

@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="equisquares",
        description="Equi-n-squares: generators, transversal solvers, verification, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a square (plus sidecars) to disk")
    g.add_argument("--kind", required=True,
                   choices=["counterexample", "random", "block", "cyclic"])
    g.add_argument("--n", type=_int_at_least(1), required=True, help="order")
    g.add_argument("--m", type=_int_at_least(1), default=None, help="block size (block kind)")
    g.add_argument("--seed", type=_int_at_least(0), default=0)
    g.add_argument("--out", required=True)

    s = sub.add_parser("solve", help="find a transversal of a square file")
    s.add_argument("--method", required=True,
                   choices=["exact", "brute", "greedy", "local", "block"])
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", default=None)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--budget", type=_int_at_least(1), default=None, help="node budget for exact")
    s.add_argument("--iterations", type=_int_at_least(0), default=None, help="local search steps")
    s.add_argument("--blocks", default=None, help="blocks sidecar (block method)")
    s.add_argument("--s", type=_int_at_least(1), default=None, help="component cap (block method)")

    v = sub.add_parser("verify", help="validate a square / transversal / certificate")
    v.add_argument("--square", required=True)
    v.add_argument("--transversal", default=None)
    v.add_argument("--pairing", default=None)

    e = sub.add_parser("experiment", help="run a trial suite, writing one CSV row per trial")
    e.add_argument("name", choices=EXPERIMENTS)
    e.add_argument("--n", type=_int_at_least(1), required=True)
    e.add_argument("--m", type=_int_at_least(1), default=None)
    e.add_argument("--s", type=_int_at_least(1), default=None)
    e.add_argument("--min-size", type=_int_at_least(1), default=None)
    e.add_argument("--trials", type=_int_at_least(1), default=100)
    e.add_argument("--seed", type=_int_at_least(0), default=0)
    e.add_argument("--parallel", type=_int_at_least(1), default=1,
                   help="worker processes: at least 1, and capped at the CPU count")
    e.add_argument("--csv", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up per call, not stored in the cached parser, so a command
    # function rebound after the first call (by a tracer, say) is the one run.
    command = {"generate": cmd_generate, "solve": cmd_solve, "verify": cmd_verify,
               "experiment": cmd_experiment}[args.command]
    try:
        return command(args)
    except (squares.SquareError, constructions.PairingMismatch,
            constructions.BlockMismatch, halving.NotPowerOfTwo) as exc:
        _say(f"error: {type(exc).__name__}: {exc}")
        return 1
    except OSError as exc:  # a path that cannot be read or written
        _say(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
