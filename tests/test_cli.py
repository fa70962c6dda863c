import hashlib
import json
import subprocess
import sys

import pytest

from equisquares import cli, solvers
from equisquares.rng import stream
from equisquares.squares import (
    read_square,
    read_transversal,
    validate_square,
    validate_transversal,
    write_square,
)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_cyclic_matches_formula(tmp_path, capsys):
    out = tmp_path / "c.txt"
    code, stdout, _ = run_cli(
        ["generate", "--kind", "cyclic", "--n", "3", "--out", str(out)], capsys
    )
    assert code == 0
    sq = read_square(out)
    assert sq.grid.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert json.loads(stdout)["square"] == str(out)


def test_generate_counterexample_writes_sidecar(tmp_path, capsys):
    out = tmp_path / "s.txt"
    code, stdout, _ = run_cli(
        ["generate", "--kind", "counterexample", "--n", "18", "--out", str(out)], capsys
    )
    assert code == 0
    sidecar = tmp_path / "s.pairing.json"
    assert sidecar.exists()
    data = json.loads(sidecar.read_text())
    assert data["format"] == 1 and data["n"] == 18
    assert json.loads(stdout)["bound"] == 16


def test_generate_block_writes_sidecar(tmp_path, capsys):
    out = tmp_path / "b.txt"
    code, stdout, _ = run_cli(
        ["generate", "--kind", "block", "--n", "8", "--m", "2",
         "--seed", "1", "--out", str(out)], capsys
    )
    assert code == 0
    blocks = json.loads((tmp_path / "b.blocks.json").read_text())
    assert blocks["format"] == 1 and len(blocks["blocks"]) == 32


def test_generate_alon_kim(tmp_path, capsys):
    out = tmp_path / "h.txt"
    code, stdout, _ = run_cli(
        ["generate", "--kind", "alon-kim", "--n", "2", "--out", str(out)], capsys
    )
    assert code == 0
    assert json.loads(stdout)["edges"] == 24
    assert out.read_text().splitlines()[0] == "6 6 6"


def test_generate_bad_params_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        ["generate", "--kind", "counterexample", "--n", "9",
         "--out", str(tmp_path / "x.txt")], capsys
    )
    assert code == 2
    code, _, _ = run_cli(
        ["generate", "--kind", "block", "--n", "8",
         "--out", str(tmp_path / "x.txt")], capsys
    )
    assert code == 2  # missing --m


def test_solve_brute_and_exact(tmp_path, capsys):
    square_file = tmp_path / "c.txt"
    run_cli(["generate", "--kind", "cyclic", "--n", "3", "--out", str(square_file)], capsys)
    code, stdout, _ = run_cli(
        ["solve", "--method", "brute", "--in", str(square_file)], capsys
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["size"] == 3 and report["optimal"] is True
    cells = read_transversal(report["cells_file"])
    validate_transversal(read_square(square_file), cells)

    ce = tmp_path / "ce.txt"
    run_cli(["generate", "--kind", "counterexample", "--n", "8", "--out", str(ce)], capsys)
    code, stdout, _ = run_cli(["solve", "--method", "exact", "--in", str(ce)], capsys)
    report = json.loads(stdout)
    assert code == 0 and report["optimal"] is True and report["size"] <= 7


def test_solve_block_requires_sidecar(tmp_path, capsys):
    square_file = tmp_path / "b.txt"
    run_cli(["generate", "--kind", "block", "--n", "8", "--m", "2",
             "--seed", "1", "--out", str(square_file)], capsys)
    code, _, _ = run_cli(["solve", "--method", "block", "--in", str(square_file)], capsys)
    assert code == 2
    code, stdout, _ = run_cli(
        ["solve", "--method", "block", "--in", str(square_file),
         "--blocks", str(tmp_path / "b.blocks.json"), "--s", "16"], capsys
    )
    assert code == 0
    report = json.loads(stdout)
    cells = read_transversal(report["cells_file"])
    validate_transversal(read_square(square_file), cells)


def test_solve_reports_full_transversals_optimal(tmp_path, capsys):
    # No transversal has more than n cells, so any method that finds n of
    # them has found an optimum, proved or not.
    one = tmp_path / "one.txt"
    run_cli(["generate", "--kind", "cyclic", "--n", "1", "--out", str(one)], capsys)
    block = tmp_path / "b.txt"
    run_cli(["generate", "--kind", "block", "--n", "16", "--m", "4",
             "--seed", "1", "--out", str(block)], capsys)
    ce = tmp_path / "ce.txt"
    run_cli(["generate", "--kind", "counterexample", "--n", "8", "--out", str(ce)], capsys)
    for argv, size, optimal in [
        (["--method", "local", "--in", str(one)], 1, True),
        (["--method", "greedy", "--in", str(one)], 1, True),
        (["--method", "exact", "--budget", "1", "--in", str(one)], 1, True),
        (["--method", "block", "--in", str(block), "--blocks", str(tmp_path / "b.blocks.json")], 16, True),
        (["--method", "exact", "--budget", "1", "--in", str(ce)], 6, False),
    ]:
        code, stdout, _ = run_cli(["solve", *argv], capsys)
        report = json.loads(stdout)
        assert code == 0 and (report["size"], report["optimal"]) == (size, optimal), argv


@pytest.mark.parametrize("corrupt", [
    lambda d: json.dumps({"format": 1}),
    lambda d: json.dumps({**d, "blocks": [{**d["blocks"][0], "rows": d["blocks"][0]["rows"][:1]}]
                          + d["blocks"][1:]}),
    lambda d: json.dumps(d)[:-5],
    lambda d: "[" * 100_000 + "]" * 100_000,  # too deep for the JSON parser
    lambda d: json.dumps(d)[:-1] + ', "x": ' + "1" * 5000 + "}",  # too long for int()
    lambda d: json.dumps({**d, "blocks": [{**d["blocks"][0], "col": False}] + d["blocks"][1:]}),
])
def test_solve_block_malformed_sidecar_exits_1(tmp_path, capsys, corrupt):
    square_file = tmp_path / "b.txt"
    run_cli(["generate", "--kind", "block", "--n", "8", "--m", "2",
             "--seed", "1", "--out", str(square_file)], capsys)
    sidecar = tmp_path / "b.blocks.json"
    sidecar.write_text(corrupt(json.loads(sidecar.read_text())))
    code, _, err = run_cli(
        ["solve", "--method", "block", "--in", str(square_file), "--blocks", str(sidecar)], capsys
    )
    assert code == 1
    assert "BlockMismatch" in err


def test_solve_local_iterations_zero_runs_no_steps(tmp_path, capsys):
    square_file = tmp_path / "r.txt"
    run_cli(["generate", "--kind", "random", "--n", "30", "--seed", "0",
             "--out", str(square_file)], capsys)
    square = read_square(square_file)
    greedy = solvers.random_greedy(square, stream(0, "local"))
    sizes = {}
    for flags in ([], ["--iterations", "0"]):
        code, stdout, _ = run_cli(["solve", "--method", "local", "--in", str(square_file),
                                   "--seed", "0", *flags], capsys)
        assert code == 0
        report = json.loads(stdout)
        sizes[tuple(flags)] = report["size"]
        if flags:
            assert read_transversal(report["cells_file"]) == list(greedy.cells)
    assert sizes[()] > sizes[("--iterations", "0")] == greedy.size


def _exit_code(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the flag
        return exc.code


@pytest.mark.parametrize("argv", [
    ["solve", "--method", "local", "--iterations", "-5"],
    ["solve", "--method", "block", "--s", "0"],
    ["solve", "--method", "block", "--s", "-2"],
    ["experiment", "survival", "--n", "8", "--m", "2", "--s", "0"],
    ["experiment", "concentration", "--n", "8", "--m", "2", "--s", "-1"],
    ["experiment", "peel", "--n", "6", "--min-size", "-1"],
    ["experiment", "peel", "--n", "6", "--min-size", "0"],
    ["experiment", "peel", "--n", "6", "--min-size", "7"],
    ["solve", "--method", "exact", "--budget", "-5"],
    ["solve", "--method", "exact", "--budget", "0"],
    ["experiment", "greedy-baseline", "--n", "8", "--trials", "0"],
    ["experiment", "greedy-baseline", "--n", "8", "--trials", "-3"],
    ["generate", "--kind", "random", "--n", "8", "--seed", "-1"],
    ["generate", "--kind", "block", "--n", "8", "--m", "2", "--seed", "-1"],
    ["experiment", "greedy-baseline", "--n", "8", "--seed", "-3"],
    ["experiment", "survival", "--n", "8", "--m", "2", "--seed", "-3"],
    ["generate", "--kind", "random", "--n", "-2"],
    ["generate", "--kind", "block", "--n", "8", "--m", "0"],
    ["experiment", "survival", "--n", "8", "--m", "0"],
    ["experiment", "survival", "--n", "8", "--m", "3"],
    ["experiment", "survival", "--parallel", "2", "--n", "8", "--m", "3"],
    ["experiment", "concentration", "--n", "8", "--m", "3"],
    ["experiment", "survival", "--n", "12", "--m", "4"],  # n/m = 3, not a power of two
    ["experiment", "survival", "--parallel", "2", "--n", "12", "--m", "4"],
    ["experiment", "concentration", "--n", "12", "--m", "4"],
    ["experiment", "missing-colour", "--parallel", "2", "--n", "9"],  # TooSmall from a worker
    ["experiment", "missing-colour", "--n", "3"],
    ["experiment", "greedy-baseline", "--n", "0"],
    ["experiment", "bound-tightness", "--n", "7"],
], ids=" ".join)
def test_numeric_flags_out_of_range_exit_2(tmp_path, capsys, argv):
    square_file = tmp_path / "b.txt"
    run_cli(["generate", "--kind", "block", "--n", "8", "--m", "2", "--out", str(square_file)], capsys)
    if argv[0] == "solve":
        files = ["--in", str(square_file), "--blocks", str(tmp_path / "b.blocks.json")]
    elif argv[0] == "generate":
        files = ["--out", str(tmp_path / "x.txt")]
    else:
        files = ([] if "--trials" in argv else ["--trials", "2"]) + ["--csv", str(tmp_path / "x.csv")]
    code = _exit_code(argv + files)
    err = capsys.readouterr().err
    assert code == 2
    assert argv[-2] in err
    assert not (tmp_path / "x.csv").exists()
    assert not (tmp_path / "x.txt").exists()


def test_solve_deterministic_outputs(tmp_path, capsys):
    square_file = tmp_path / "r.txt"
    run_cli(["generate", "--kind", "random", "--n", "12", "--seed", "4",
             "--out", str(square_file)], capsys)
    outs = []
    for rep in range(2):
        out = tmp_path / f"t{rep}.txt"
        code, stdout, _ = run_cli(
            ["solve", "--method", "greedy", "--in", str(square_file),
             "--seed", "7", "--out", str(out)], capsys
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_parser_reuse_keeps_no_flag_from_an_earlier_call(tmp_path, capsys):
    square_file = tmp_path / "r.txt"
    run_cli(["generate", "--kind", "random", "--n", "12", "--seed", "4", "--out", str(square_file)],
            capsys)
    outs = {}
    for name, flags in (("seed5", ["--seed", "5"]), ("default", []), ("seed0", ["--seed", "0"])):
        out = tmp_path / f"{name}.txt"
        code, _, _ = run_cli(["solve", "--method", "greedy", "--in", str(square_file),
                              "--out", str(out), *flags], capsys)
        assert code == 0
        outs[name] = out.read_bytes()
    assert outs["default"] == outs["seed0"] != outs["seed5"]


def test_main_runs_the_command_bound_at_call_time(monkeypatch, tmp_path, capsys):
    # The parser is built once, so it must not hold the command functions:
    # one rebound later, as a tracer rebinds them, is the one that runs.
    run_cli(["verify", "--square", str(tmp_path / "absent.txt")], capsys)
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.square) or 0)
    assert cli.main(["verify", "--square", "s.txt"]) == 0
    assert seen == ["s.txt"]


def test_verify_paths(tmp_path, capsys):
    square_file = tmp_path / "s.txt"
    run_cli(["generate", "--kind", "counterexample", "--n", "8", "--out", str(square_file)], capsys)
    code, _, _ = run_cli(["verify", "--square", str(square_file)], capsys)
    assert code == 0

    # clashing transversal -> exit 1 naming the violation
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n0 1\n")
    code, _, err = run_cli(
        ["verify", "--square", str(square_file), "--transversal", str(bad)], capsys
    )
    assert code == 1
    assert "RowClash" in err

    # the clash's name is printed once, before its cells
    two = tmp_path / "s2.txt"
    two.write_text("2\n0 1\n1 0\n")
    dup = tmp_path / "dup.t"
    dup.write_text("0 0\n0 0\n")
    code, stdout, err = run_cli(
        ["verify", "--square", str(two), "--transversal", str(dup)], capsys
    )
    assert code == 1
    assert err.count("RowClash") == 1 and "RowClash: cells (0, 0) and (0, 0)" in err
    assert json.loads(stdout)["transversal"]["error"] == "RowClash: cells (0, 0) and (0, 0)"

    # solver transversal + pairing -> certificate passes
    code, stdout, _ = run_cli(
        ["solve", "--method", "greedy", "--in", str(square_file), "--seed", "3"], capsys
    )
    cells_file = json.loads(stdout)["cells_file"]
    code, stdout, _ = run_cli(
        ["verify", "--square", str(square_file), "--transversal", cells_file,
         "--pairing", str(tmp_path / "s.pairing.json")], capsys
    )
    assert code == 0
    assert json.loads(stdout)["certificate"]["passed"] is True


def test_experiment_survival_small(tmp_path, capsys):
    csv_path = tmp_path / "surv.csv"
    code, stdout, _ = run_cli(
        ["experiment", "survival", "--n", "8", "--m", "2", "--trials", "400",
         "--seed", "0", "--csv", str(csv_path)], capsys
    )
    assert code == 0
    freq = json.loads(stdout)["survival_frequency"]
    assert abs(freq - 0.25) < 0.07
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "trial,seed,n,edge_label,survived"
    assert len(lines) == 401


def test_experiment_missing_colour(tmp_path, capsys):
    csv_path = tmp_path / "mc.csv"
    code, stdout, _ = run_cli(
        ["experiment", "missing-colour", "--n", "18", "--trials", "20",
         "--seed", "1", "--csv", str(csv_path)], capsys
    )
    assert code == 0
    assert json.loads(stdout)["violations"] == 0


def test_experiment_peel_rows_summary_and_parallel(tmp_path, capsys):
    outputs = []
    for workers in ("1", "2"):
        csv_path = tmp_path / f"p{workers}.csv"
        code, stdout, _ = run_cli(
            ["experiment", "peel", "--n", "8", "--trials", "3", "--parallel", workers,
             "--csv", str(csv_path)], capsys
        )
        assert code == 0
        outputs.append((csv_path.read_bytes(), json.loads(stdout)))
    assert outputs[0][0] == outputs[1][0]
    lines = outputs[0][0].decode().splitlines()
    assert lines[0] == "trial,seed,n,min_size,layers,total_cells,smallest"
    rows = [dict(zip(lines[0].split(","), map(int, line.split(",")))) for line in lines[1:]]
    assert [r["trial"] for r in rows] == [0, 1, 2]
    for r in rows:
        assert r["n"] == 8 and r["min_size"] == 8  # ceil(0.9 * 8)
        assert r["total_cells"] >= r["layers"] * r["min_size"]
        # every layer has at least min_size cells; 0 stands for no layer
        assert r["smallest"] >= r["min_size"] if r["layers"] else r["smallest"] == 0
        assert r["smallest"] * r["layers"] <= r["total_cells"]
    summary = outputs[0][1]
    assert summary["experiment"] == "peel" and summary["trials"] == 3
    assert summary["mean_layers"] == sum(r["layers"] for r in rows) / 3


def test_experiment_greedy_baseline_parallel_determinism(tmp_path, capsys):
    rows = []
    for workers in ("1", "2"):
        csv_path = tmp_path / f"g{workers}.csv"
        code, _, _ = run_cli(
            ["experiment", "greedy-baseline", "--n", "20", "--trials", "8",
             "--seed", "5", "--parallel", workers, "--csv", str(csv_path)], capsys
        )
        assert code == 0
        rows.append(csv_path.read_bytes())
    assert rows[0] == rows[1]


def test_experiment_bound_tightness_rows_and_parallel(tmp_path, capsys):
    outputs = []
    for workers in ("1", "2"):
        csv_path = tmp_path / f"b{workers}.csv"
        code, stdout, _ = run_cli(
            ["experiment", "bound-tightness", "--n", "18", "--parallel", workers,
             "--csv", str(csv_path)], capsys
        )
        assert code == 0
        outputs.append((csv_path.read_bytes(), stdout))
    assert outputs[0] == outputs[1]
    lines = outputs[0][0].decode().splitlines()
    assert lines[0] == "n,bound,best,proved"
    # Order 9 has no paired-box construction and so no row.
    assert [int(line.split(",")[0]) for line in lines[1:]] == [8, *range(10, 19)]
    assert lines[1] == "8,7,7,true"
    assert lines[-1] == "18,16,16,true"
    summary = json.loads(outputs[0][1])
    assert summary["tight"] == [8, 10, 16, 18]
    assert summary["unproved"] == []


def test_bound_tightness_summary_counts_certificate_optimal_orders():
    # best = bound is optimal by the certificate whether or not the search
    # proved it; an order stays open only when the budget ran out below it.
    rows = [
        {"n": 8, "bound": 7, "best": 7, "proved": "true"},
        {"n": 11, "bound": 13, "best": 11, "proved": "true"},     # bound above n
        {"n": 25, "bound": 26, "best": 24, "proved": "false"},    # open
        {"n": 26, "bound": 26, "best": 25, "proved": "true"},     # optimum below the bound
        {"n": 30, "bound": 28, "best": 28, "proved": "false"},    # tight by the certificate
        {"n": 31, "bound": 31, "best": 29, "proved": "false"},
    ]
    summary = cli._summarize("bound-tightness", rows)
    assert summary == {"experiment": "bound-tightness", "trials": 6,
                       "tight": [8, 30], "unproved": [25, 31]}


def test_experiment_adjacent_seeds_share_no_trials(tmp_path, capsys):
    seeds = []
    for seed in ("0", "1"):
        csv_path = tmp_path / f"g{seed}.csv"
        code, _, _ = run_cli(
            ["experiment", "greedy-baseline", "--n", "12", "--trials", "2",
             "--seed", seed, "--csv", str(csv_path)], capsys
        )
        assert code == 0
        seeds.append({line.split(",")[1] for line in csv_path.read_text().splitlines()[1:]})
    assert len(seeds[0]) == len(seeds[1]) == 2
    assert not seeds[0] & seeds[1]


def test_experiment_unknown_name_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiment", "nonsense", "--n", "8",
                  "--csv", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    capsys.readouterr()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "equisquares.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "generate" in proc.stdout


@pytest.mark.parametrize("corrupt", [
    lambda d: json.dumps({"format": 1}),
    lambda d: json.dumps([d]),
    lambda d: json.dumps({k: v for k, v in d.items() if k != "b"}),
    lambda d: json.dumps({**d, "n": True}),
    lambda d: json.dumps({**d, "n": "18"}),
    lambda d: json.dumps({**d, "pairs": {}}),
    lambda d: json.dumps({**d, "leftover_fill": 3}),
    lambda d: json.dumps({**d, "pairs": [{"colour": 0}]}),
    lambda d: json.dumps({**d, "pairs": [{"boxes": [[0, 0]], "colour": 0}]}),
    lambda d: json.dumps({**d, "pairs": [{"boxes": [[0, 0], [1]], "colour": 0}]}),
    lambda d: json.dumps({**d, "pairs": [{"boxes": [[0, 0], [1, 1.5]], "colour": 0}]}),
    lambda d: json.dumps({**d, "pairs": [{"boxes": [[0, 0], [1, 1]], "colour": False}]}),
    lambda d: json.dumps({**d, "pairs": [7]}),
    lambda d: json.dumps({**d, "leftover_fill": [[0, 1]]}),
    lambda d: json.dumps({**d, "leftover_fill": [[0, 1, None]]}),
    lambda d: json.dumps(d)[:-5],
    lambda d: b"\xff\xfe not text",
    # Well-formed but forged: b = 1 would give the bound 41 instead of 16.
    lambda d: json.dumps({**d, "b": 1}),
    # The first two pairs swap colours, so their boxed cells disagree with the grid.
    lambda d: json.dumps({**d, "pairs": [{**d["pairs"][0], "colour": d["pairs"][1]["colour"]},
                                         {**d["pairs"][1], "colour": d["pairs"][0]["colour"]},
                                         *d["pairs"][2:]]}),
    lambda d: "[" * 100_000 + "]" * 100_000,  # too deep for the JSON parser
    lambda d: json.dumps(d)[:-1] + ', "x": ' + "1" * 5000 + "}",  # too long for int()
])
def test_verify_malformed_pairing_exits_1(tmp_path, capsys, corrupt):
    square_file = tmp_path / "s.txt"
    run_cli(["generate", "--kind", "counterexample", "--n", "18", "--out", str(square_file)], capsys)
    sidecar = tmp_path / "s.pairing.json"
    bad = corrupt(json.loads(sidecar.read_text()))
    if isinstance(bad, bytes):
        sidecar.write_bytes(bad)
    else:
        sidecar.write_text(bad)
    code, stdout, err = run_cli(
        ["verify", "--square", str(square_file), "--pairing", str(sidecar)], capsys
    )
    assert code == 1
    assert "PairingMismatch" in err
    assert json.loads(stdout)["certificate"]["passed"] is False


def test_verify_unreadable_pairing_fails_its_check(tmp_path, capsys):
    square_file = tmp_path / "s.txt"
    run_cli(["generate", "--kind", "counterexample", "--n", "8", "--out", str(square_file)], capsys)
    code, stdout, err = run_cli(
        ["verify", "--square", str(square_file), "--pairing", str(tmp_path)], capsys
    )
    assert code == 1
    assert "IsADirectoryError" in err
    assert json.loads(stdout)["certificate"]["passed"] is False


def test_verify_rejects_recoloured_construction(tmp_path, capsys):
    # Swapping two pair colours in both the grid and the sidecar keeps them
    # consistent, but verify accepts only what generate writes.
    square_file = tmp_path / "s.txt"
    run_cli(["generate", "--kind", "counterexample", "--n", "18", "--out", str(square_file)], capsys)
    sidecar = tmp_path / "s.pairing.json"
    data = json.loads(sidecar.read_text())
    pairs = data["pairs"]
    pairs[0]["colour"], pairs[1]["colour"] = pairs[1]["colour"], pairs[0]["colour"]
    sidecar.write_text(json.dumps(data))
    grid = read_square(square_file).grid
    swapped = grid.copy()
    swapped[grid == 0], swapped[grid == 1] = 1, 0
    write_square(validate_square(18, swapped), square_file)
    code, stdout, err = run_cli(
        ["verify", "--square", str(square_file), "--pairing", str(sidecar)], capsys
    )
    assert code == 1
    assert "PairingMismatch" in err
    assert json.loads(stdout)["certificate"]["passed"] is False


def test_experiment_concentration_centres_on_block_size(tmp_path, capsys):
    # k = n/m = 16: the mean row load is m = 16, not n/4 = 64.
    csv_path = tmp_path / "conc.csv"
    code, stdout, _ = run_cli(
        ["experiment", "concentration", "--n", "256", "--m", "16", "--trials", "3",
         "--seed", "0", "--csv", str(csv_path)], capsys
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["frac_within_min"] > 0.9


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    created: list = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, params):
        return map(fn, params)


@pytest.mark.parametrize("requested,cpus,workers", [
    ("1", 4, []), ("3", 4, [3]), ("4", 4, [4]), ("1000000", 4, [4]), ("8", 1, []),
])
def test_experiment_parallel_clamped_to_cpu_count(tmp_path, capsys, monkeypatch,
                                                  requested, cpus, workers):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    code, _, _ = run_cli(
        ["experiment", "greedy-baseline", "--n", "6", "--trials", "3", "--seed", "2",
         "--parallel", requested, "--csv", str(tmp_path / "g.csv")], capsys
    )
    assert code == 0
    assert _RecordingPool.created == workers


@pytest.mark.parametrize("requested", ["0", "-3"])
def test_experiment_parallel_below_one_exits_2(tmp_path, capsys, monkeypatch, requested):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "created", [])
    code = _exit_code(["experiment", "greedy-baseline", "--n", "6", "--trials", "3",
                       "--parallel", requested, "--csv", str(tmp_path / "g.csv")])
    assert code == 2
    assert "--parallel" in capsys.readouterr().err
    assert _RecordingPool.created == []
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("command", ["solve-in", "solve-in-missing", "solve-blocks", "generate-out",
                                     "experiment-csv"])
def test_unusable_path_exits_2_without_traceback(tmp_path, capsys, command):
    # A directory where a file is expected raises IsADirectoryError, a missing
    # file FileNotFoundError; both are OSErrors.
    square_file = tmp_path / "b.txt"
    run_cli(["generate", "--kind", "block", "--n", "8", "--m", "2", "--out", str(square_file)], capsys)
    argv = {
        "solve-in": ["solve", "--method", "greedy", "--in", str(tmp_path)],
        "solve-in-missing": ["solve", "--method", "greedy", "--in", str(tmp_path / "absent.txt")],
        "solve-blocks": ["solve", "--method", "block", "--in", str(square_file),
                         "--blocks", str(tmp_path)],
        "generate-out": ["generate", "--kind", "random", "--n", "4", "--out", str(tmp_path)],
        "experiment-csv": ["experiment", "greedy-baseline", "--n", "6", "--trials", "2",
                           "--csv", str(tmp_path)],
    }[command]
    code, stdout, err = run_cli(argv, capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and str(tmp_path) in err


BLOCK_PATH_GOLDEN = {  # SHA-256 prefixes: solve's (transversal file, stdout), each experiment's CSV
    "solve": ("8e70c642ba55128e", "f698b56ebb9c5bca"),
    "concentration": "6a5729c740258678",
    "survival": "6032bb0572092da5",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_block_path_outputs_are_pinned(tmp_path, capsys, monkeypatch):
    # Relative paths keep stdout free of tmp_path, so its bytes are fixed too.
    monkeypatch.chdir(tmp_path)
    run_cli(["generate", "--kind", "block", "--n", "64", "--m", "4", "--seed", "3",
             "--out", "b.txt"], capsys)
    code, stdout, _ = run_cli(["solve", "--method", "block", "--in", "b.txt",
                               "--blocks", "b.blocks.json", "--seed", "5", "--out", "t.txt"], capsys)
    assert code == 0
    assert (_sha((tmp_path / "t.txt").read_bytes()), _sha(stdout.encode())) == BLOCK_PATH_GOLDEN["solve"]
    for name, argv in [
        ("concentration", ["--n", "64", "--m", "16", "--trials", "3", "--seed", "1"]),
        ("survival", ["--n", "8", "--m", "2", "--trials", "20"]),
    ]:
        code, _, _ = run_cli(["experiment", name, *argv, "--csv", f"{name}.csv"], capsys)
        assert code == 0
        assert _sha((tmp_path / f"{name}.csv").read_bytes()) == BLOCK_PATH_GOLDEN[name]
