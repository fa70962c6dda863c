"""The four benchmark workloads: inputs from a seed, one timed op, and checks.

An op is one unit of timed work.  `op(i)` makes op i's inputs from the
workload seed and i alone, so a seed fixes every input.  `check(i, result)`
runs untimed, re-checks the op's output from outside the program and
returns an `Outcome`.  Ops come in cycles of `cycle` ops that hold every op
kind in the workload's fixed mix; runs measure whole cycles.

Sizes come from a `SIZES[name]` dict; the smoke tests pass smaller ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import equisquares as eq
from equisquares import bipartite, cli, halving, hypergraph, solvers, squares
from tracer import halving_counts


@dataclass
class Outcome:
    ok: bool
    frac: float | None = None  # transversal size / n, for ops that return one
    digest: bytes = b""  # what the output fingerprint hashes for this op
    counts: dict = field(default_factory=dict)
    reason: str = ""


def op_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def transversal_problem(grid: np.ndarray, cells) -> str:
    """'' if cells are a transversal of grid, else what is wrong (independent check)."""
    n = grid.shape[0]
    arr = np.asarray([tuple(c) for c in cells], dtype=np.int64).reshape(-1, 2)
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        return "cell out of range"
    syms = grid[arr[:, 0], arr[:, 1]]
    for what, col in (("row", arr[:, 0]), ("column", arr[:, 1]), ("symbol", syms)):
        if len(np.unique(col)) != len(col):
            return f"repeated {what}"
    return ""


def cells_digest(cells) -> bytes:
    return json.dumps(sorted([int(r), int(c)] for r, c in cells)).encode()


def _validated(square, cells) -> str:
    problem = transversal_problem(square.grid, cells)
    if problem:
        return problem
    try:
        squares.validate_transversal(square, cells)
    except squares.SquareError as exc:
        return f"validate_transversal: {exc}"
    return ""


class Workload:
    """name, cycle (ops per cycle), largest_n, and fixed inputs made in prepare()."""

    cycle = 1

    def prepare(self, workdir: Path) -> None:
        pass

    def close(self) -> None:
        pass


class BlockPipeline(Workload):
    """Generate a block-structured square, then run the whole block pipeline."""

    name = "block-pipeline"

    def __init__(self, seed: int, sizes: dict):
        self.seed = seed
        self.n, self.m = sizes["n"], sizes["m"]
        self.s = math.isqrt(self.n)
        self.largest_n = self.n

    def op(self, i: int):
        seed = op_seed(self.seed, i)
        square, blocks = eq.block_structured_square(self.n, self.m, seed)
        t, trace, _ = eq.block_transversal(square, blocks, self.s, np.random.default_rng(seed))
        return square, blocks, t, trace

    def check(self, i: int, result) -> Outcome:
        square, blocks, t, trace = result
        problem = _validated(square, t.cells)
        graph = halving.build_block_multigraph(square, blocks)
        if not problem and not bipartite.is_matching(graph, trace.final):
            problem = "final halving output is not a matching"
        comps, deleted = halving_counts(trace)
        digest = cells_digest(t.cells) + json.dumps([comps, deleted]).encode()
        return Outcome(not problem, t.size / self.n, digest, reason=problem)


def _instances(sizes: dict):
    """(label, kind, build, known optimum, order) for each exact-proof instance."""
    cx, cyc = eq.counterexample_square, eq.cyclic_latin
    out = []
    for n, opt in sizes["counterexample"]:
        out.append((f"exact_max counterexample_square({n})", "square", lambda n=n: cx(n)[0], opt, n))
    for n in sizes["cyclic"]:  # even order: no full transversal, n - 1 is attained
        out.append((f"exact_max cyclic_latin({n})", "square", lambda n=n: cyc(n), n - 1, n))
    for t in sizes["alon_kim"]:
        out.append((f"max_matching_exact alon_kim({t})", "alon-kim", lambda t=t: eq.alon_kim(t), 2 * t, None))
    for n, opt in sizes["hyper_counterexample"]:
        out.append((f"max_matching_exact from_square(counterexample_square({n}))", "hyper",
                    lambda n=n: cx(n)[0], opt, n))
    for n in sizes["hyper_cyclic"]:
        out.append((f"max_matching_exact from_square(cyclic_latin({n}))", "hyper",
                    lambda n=n: cyc(n), n - 1, n))
    return out


class ExactProof(Workload):
    """Prove fixed instances optimal with no node budget; the seed orders each cycle."""

    name = "exact-proof"

    def __init__(self, seed: int, sizes: dict):
        self.seed = seed
        self.instances = _instances(sizes)
        self.cycle = len(self.instances)
        self.largest_n = max(inst[4] or 0 for inst in self.instances)

    def instance(self, i: int):
        order = np.random.default_rng([self.seed, i // self.cycle]).permutation(self.cycle)
        return self.instances[int(order[i % self.cycle])]

    def op(self, i: int):
        label, kind, build, _, _ = inst = self.instance(i)
        if kind == "square":
            square = build()
            t, optimal = solvers.exact_max(square)
            return inst, square, [tuple(c) for c in t.cells], optimal
        if kind == "hyper":
            square = build()
            edges, optimal = hypergraph.max_matching_exact(hypergraph.from_square(square))
            n = square.n
            # from_square numbers edge i*n + j for cell (i, j)
            return inst, square, [divmod(e, n) for e in edges], optimal
        h = build()
        edges, optimal = hypergraph.max_matching_exact(h)
        return inst, h, [h.edges[e] for e in edges], optimal

    def check(self, i: int, result) -> Outcome:
        (label, kind, _, known, n), obj, items, optimal = result
        if kind == "alon-kim":
            used = [set() for _ in range(3)]
            problem = ""
            for edge in items:
                for cls, v in enumerate(edge):
                    if v in used[cls]:
                        problem = "edges share a vertex"
                    used[cls].add(v)
        else:
            problem = _validated(obj, items)
        if not problem and not optimal:
            problem = "optimality not proved"
        if not problem and len(items) != known:
            problem = f"size {len(items)} != known optimum {known}"
        frac = None if n is None else len(items) / n
        digest = label.encode() + json.dumps([bool(optimal), sorted(map(list, items))]).encode()
        return Outcome(not problem, frac, digest, reason=f"{label}: {problem}" if problem else "")


# Survival trials are the fastest, missing-colour trials with local search the
# slowest; greedy-baseline and block-validity trials hold the median.
TRIAL_MIX = ("survival", "greedy", "validity", "survival", "missing-colour",
             "greedy", "survival", "validity", "greedy", "missing-colour")


class TrialsSmall(Workload):
    """One Monte Carlo trial per op, kinds in the fixed mix TRIAL_MIX."""

    name = "trials-small"
    cycle = len(TRIAL_MIX)

    def __init__(self, seed: int, sizes: dict):
        self.seed = seed
        self.sizes = sizes
        # j-th trial of its kind: j = cycle * per-cycle count + earlier ones in the cycle
        self.per_cycle = {k: TRIAL_MIX.count(k) for k in TRIAL_MIX}
        self.rank = [TRIAL_MIX[:p].count(k) for p, k in enumerate(TRIAL_MIX)]
        self.largest_n = max(sizes["validity"][0], sizes["missing_colour"], sizes["greedy"])

    def prepare(self, workdir: Path) -> None:
        n, m = self.sizes["survival"]
        square, blocks = eq.block_structured_square(n, m, self.seed)
        self.graph = halving.build_block_multigraph(square, blocks)
        self.matchings = bipartite.decompose_regular(self.graph, n // m)
        self.cx, self.pairing = eq.counterexample_square(self.sizes["missing_colour"])

    def op(self, i: int):
        kind = TRIAL_MIX[i % self.cycle]
        j = (i // self.cycle) * self.per_cycle[kind] + self.rank[i % self.cycle]
        rng = np.random.default_rng(op_seed(self.seed, i))
        if kind == "survival":
            return kind, j, eq.iterated_halving(self.graph, self.matchings, self.sizes["survival_cap"], rng)
        if kind == "validity":
            n, m = self.sizes["validity"]
            caps = (4, math.isqrt(n) + 1, 2 * n)
            square, blocks = eq.block_structured_square(n, m, op_seed(self.seed, i))
            t, trace, _ = eq.block_transversal(square, blocks, caps[j % 3], rng)
            return kind, j, (square, t, trace)
        if kind == "missing-colour":
            t = solvers.random_greedy(self.cx, rng)
            if j % 2 == 1:
                t = solvers.local_search(self.cx, t, rng, 40 * self.cx.n)
            return kind, j, (t, eq.missing_colour_certificate(self.cx, self.pairing, t))
        square = eq.random_equi_square(self.sizes["greedy"], op_seed(self.seed, i))
        return kind, j, (square, solvers.random_greedy(square, rng))

    def check(self, i: int, result) -> Outcome:
        kind, j, out = result
        if kind == "survival":
            final, trace = out
            ok = bipartite.is_matching(self.graph, final)
            digest = json.dumps([sorted(final), halving_counts(trace)]).encode()
            return Outcome(ok, None, digest, reason="" if ok else "survival: not a matching")
        if kind == "validity":
            square, t, trace = out
            problem = _validated(square, t.cells)
            digest = cells_digest(t.cells) + json.dumps(halving_counts(trace)).encode()
        elif kind == "missing-colour":
            t, cert = out
            square = self.cx
            problem = _validated(square, t.cells) or ("" if cert.passed else "certificate failed")
            digest = cells_digest(t.cells)
        else:
            square, t = out
            problem = _validated(square, t.cells)
            digest = cells_digest(t.cells)
        return Outcome(not problem, t.size / square.n, digest,
                       reason=f"{kind}: {problem}" if problem else "")


class CliRoundtrip(Workload):
    """generate -> solve -> verify through equisquares.cli.main, files on disk."""

    name = "cli-roundtrip"
    # Two counterexample chains per block chain: the counterexample chain is the
    # slower one, so the median and the tail both fall inside its times.
    cycle = 3

    def __init__(self, seed: int, sizes: dict):
        self.seed = seed
        self.sizes = sizes
        self.largest_n = max(sizes["block"][0], sizes["counterexample"])

    def prepare(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def chain(self, i: int):
        """(kind, n, square path, sidecar path, transversal path, argv of each step)."""
        seed = str(op_seed(self.seed, i))
        if i % 3 == 1:
            n, m = self.sizes["block"]
            sq = self.dir / "block.txt"
            side, tv = sq.with_suffix(".blocks.json"), self.dir / "block.t.txt"
            steps = (["generate", "--kind", "block", "--n", str(n), "--m", str(m), "--seed", seed, "--out", str(sq)],
                     ["solve", "--method", "block", "--in", str(sq), "--blocks", str(side), "--seed", seed,
                      "--out", str(tv)],
                     ["verify", "--square", str(sq), "--transversal", str(tv)])
            return "block", n, sq, side, tv, steps
        n = self.sizes["counterexample"]
        sq = self.dir / "cx.txt"
        side, tv = sq.with_suffix(".pairing.json"), self.dir / "cx.t.txt"
        steps = (["generate", "--kind", "counterexample", "--n", str(n), "--out", str(sq)],
                 ["solve", "--method", "local", "--in", str(sq), "--seed", seed, "--out", str(tv)],
                 ["verify", "--square", str(sq), "--transversal", str(tv), "--pairing", str(side)])
        return "counterexample", n, sq, side, tv, steps

    def op(self, i: int):
        outputs = []
        for argv in self.chain(i)[5]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            outputs.append((rc, out.getvalue()))
            if rc != 0:
                break
        return outputs

    def check(self, i: int, result) -> Outcome:
        kind, n, sq, side, tv, steps = self.chain(i)
        label = f"{kind} chain"
        for (rc, _), argv in zip(result, steps):
            if rc != 0:
                return Outcome(False, reason=f"{label}: {argv[0]} exited {rc}")
        if len(result) != len(steps):
            return Outcome(False, reason=f"{label}: chain stopped early")
        solved = json.loads(result[1][1].strip().splitlines()[-1])
        report = json.loads(result[2][1].strip().splitlines()[-1])
        problem = ""
        if not (report["square"] or {}).get("valid") or not (report["transversal"] or {}).get("valid"):
            problem = "verify did not report valid"
        elif kind == "counterexample" and not (report["certificate"] or {}).get("passed"):
            problem = "certificate did not pass"
        text = sq.read_text(encoding="utf-8").split("\n")
        grid = np.array([row.split() for row in text[1:int(text[0]) + 1]], dtype=np.int64)
        cells = [tuple(map(int, line.split())) for line in tv.read_text(encoding="utf-8").splitlines()
                 if line.strip()]
        problem = problem or transversal_problem(grid, cells)
        if not problem and len(cells) != solved["size"]:
            problem = f"solve reported size {solved['size']}, file has {len(cells)} cells"
        counts = {"squares.file_bytes": sq.stat().st_size, "cli.sidecar_bytes": side.stat().st_size}
        return Outcome(not problem, len(cells) / n, cells_digest(cells), counts,
                       reason=f"{label}: {problem}" if problem else "")


WORKLOADS = {w.name: w for w in (BlockPipeline, ExactProof, TrialsSmall, CliRoundtrip)}

# Sizes used by the benchmark; see README.md for why each was chosen.
SIZES = {
    "block-pipeline": {"n": 512, "m": 16},
    "exact-proof": {
        "counterexample": [(8, 7), (16, 15)],
        "cyclic": [8, 10],
        "alon_kim": [3],
        "hyper_counterexample": [(10, 9)],
        "hyper_cyclic": [8],
    },
    "trials-small": {"survival": (8, 2), "survival_cap": 16, "validity": (64, 16),
                     "missing_colour": 50, "greedy": 100},
    "cli-roundtrip": {"block": (256, 64), "counterexample": 256},
}

# Tiny inputs for the smoke tests.
SMOKE_SIZES = {
    "block-pipeline": {"n": 64, "m": 16},
    "exact-proof": {
        "counterexample": [(8, 7)],
        "cyclic": [6],
        "alon_kim": [1],
        "hyper_counterexample": [(8, 7)],
        "hyper_cyclic": [4],
    },
    "trials-small": {"survival": (8, 2), "survival_cap": 16, "validity": (16, 4),
                     "missing_colour": 8, "greedy": 10},
    "cli-roundtrip": {"block": (16, 4), "counterexample": 8},
}
