"""Command-line driver: generate instances, run solvers, verify artifacts,
and run the experiment suites with CSV output.

JSON goes to stdout for machine consumption; human-readable notes go to
stderr.  Exit codes: 0 success, 1 verification failure, 2 usage error.
All randomness flows from one seed through named per-site streams, and
trial i of an experiment draws its own seed from (seed, i), so runs are
reproducible even under --parallel and adjacent seeds share no trials.
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

EXPERIMENTS = ("missing-colour", "concentration", "greedy-baseline", "peel", "survival",
               "bound-tightness")
# Search nodes per order in bound-tightness: orders 8 to 24 are proved well
# within it, and an order left unproved costs a few seconds.
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


def _trial_missing_colour(params: tuple) -> dict:
    n, base_seed, trial = params
    square, pairing = constructions.counterexample_square(n)
    rng = stream(trial_seed(base_seed, trial), "missing-colour")
    t = solvers.random_greedy(square, rng)
    method = "greedy"
    if trial % 2 == 1:
        t = solvers.local_search(square, t, rng, 40 * n)
        method = "greedy+local"
    try:
        cert = constructions.missing_colour_certificate(square, pairing, t)
        violations = 0 if cert.passed else 1
        min_missing = min(len(s) for s in cert.missing)
    except constructions.CertificateViolation:
        violations, min_missing = 1, 0
    return {"trial": trial, "seed": trial_seed(base_seed, trial), "n": n,
            "method": method, "size": t.size, "violations": violations,
            "min_missing": min_missing}


def _trial_survival(params: tuple) -> dict:
    n, m, s, square_seed, base_seed, trial = params
    graph, matchings = _survival_ctx(n, m, square_seed)
    rng = stream(trial_seed(base_seed, trial), "survival")
    final, _ = halving.iterated_halving(graph, matchings, s, rng)
    return {"trial": trial, "seed": trial_seed(base_seed, trial), "n": n,
            "edge_label": 0, "survived": int(0 in final)}


def _trial_concentration(params: tuple) -> dict:
    n, m, s, base_seed, trial = params
    seed = trial_seed(base_seed, trial)
    square, blocks = constructions.block_structured_square(n, m, seed=seed)
    rng = stream(seed, "concentration")
    _, trace, loads = halving.block_transversal(square, blocks, s, rng)
    # Centre m: a perfect matching of n blocks of m cells over n rows has mean row load m.
    dev = np.abs(loads.astype(np.float64) - m)
    within = int((dev <= m / 2).sum())
    sumsq = halving.realized_effect_squares(trace, blocks, n)
    with np.errstate(divide="ignore"):
        bounds = np.minimum(1.0, 2.0 * np.exp(-((m / 2) ** 2) / sumsq))
    return {"trial": trial, "seed": seed, "n": n, "m": m, "s": s,
            "rows_within": within, "frac_within": within / n,
            "p99_abs_dev": float(np.percentile(dev, 99)),
            "mcdiarmid_worst_row": float(bounds.max())}


def _trial_greedy_baseline(params: tuple) -> dict:
    n, base_seed, trial = params
    seed = trial_seed(base_seed, trial)
    square = constructions.random_equi_square(n, seed=seed)
    t = solvers.random_greedy(square, stream(seed, "greedy-baseline"))
    return {"trial": trial, "seed": seed, "n": n, "size": t.size}


def _trial_peel(params: tuple) -> dict:
    n, min_size, base_seed, trial = params
    seed = trial_seed(base_seed, trial)
    square = constructions.random_equi_square(n, seed=seed)
    layers = solvers.peel_decomposition(square, stream(seed, "peel"), min_size)
    return {"trial": trial, "seed": seed, "n": n, "min_size": min_size,
            "layers": len(layers),
            "total_cells": sum(t.size for t in layers),
            "smallest": min((t.size for t in layers), default=0)}


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
    name = args.name
    trials = range(args.trials)
    if name == "missing-colour":
        fn, params = _trial_missing_colour, [(args.n, args.seed, t) for t in trials]
    elif name == "survival":
        if args.m is None:
            return _fail_usage("--m is required for the survival experiment")
        s = 2 * args.n if args.s is None else args.s  # no deletions: every edge survives capping
        fn, params = _trial_survival, [(args.n, args.m, s, args.seed, args.seed, t) for t in trials]
    elif name == "concentration":
        if args.m is None:
            return _fail_usage("--m is required for the concentration experiment")
        s = int(np.ceil(np.sqrt(args.n))) if args.s is None else args.s
        fn, params = _trial_concentration, [(args.n, args.m, s, args.seed, t) for t in trials]
    elif name == "greedy-baseline":
        fn, params = _trial_greedy_baseline, [(args.n, args.seed, t) for t in trials]
    elif name == "bound-tightness":
        if args.n < 8:
            return _fail_usage(f"--n {args.n}: bound-tightness runs the orders from 8 up")
        fn, params = _order_bound_tightness, list(range(8, args.n + 1))
    else:  # peel
        min_size = int(np.ceil(0.9 * args.n)) if args.min_size is None else args.min_size
        if min_size > args.n:
            return _fail_usage(f"--min-size {min_size} exceeds --n {args.n}")
        fn, params = _trial_peel, [(args.n, min_size, args.seed, t) for t in trials]
    try:
        rows = _run_trials(fn, params, args.parallel)
    except (constructions.NotDivisible, constructions.TooSmall, halving.NotPowerOfTwo) as exc:
        sizes = f"--n {args.n}" if args.m is None else f"--n {args.n} --m {args.m}"
        return _fail_usage(f"{sizes}: {exc}")

    with open(args.csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    summary = _summarize(name, rows)
    _say(f"{name}: {len(rows)} rows -> {args.csv}")
    print(json.dumps(summary))
    return 0


def _summarize(name: str, rows: list[dict]) -> dict:
    out: dict = {"experiment": name, "trials": len(rows)}
    if name == "survival":
        out["survival_frequency"] = sum(r["survived"] for r in rows) / len(rows)
    elif name == "missing-colour":
        out["violations"] = sum(r["violations"] for r in rows)
        out["mean_size"] = sum(r["size"] for r in rows) / len(rows)
    elif name == "concentration":
        out["frac_within_min"] = min(r["frac_within"] for r in rows)
        out["frac_within_mean"] = sum(r["frac_within"] for r in rows) / len(rows)
        out["p99_abs_dev_max"] = max(r["p99_abs_dev"] for r in rows)
    elif name == "greedy-baseline":
        out["mean_size"] = sum(r["size"] for r in rows) / len(rows)
    elif name == "peel":
        out["mean_layers"] = sum(r["layers"] for r in rows) / len(rows)
    elif name == "bound-tightness":
        # best = bound is optimal by the missing-colour certificate, proved or not.
        out["tight"] = [r["n"] for r in rows if r["best"] == r["bound"]]
        out["unproved"] = [r["n"] for r in rows if r["proved"] == "false" and r["best"] < r["bound"]]
    return out


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
