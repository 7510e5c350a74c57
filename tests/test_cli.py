import dataclasses
import json

import pytest

from ptsynth import cli, engine
from ptsynth.formats import emit_ladder, parse_network
from ptsynth.network import NetworkConstraints, cleanup, evaluate_full
from ptsynth.truthtable import majority_truth_table

from conftest import FIXTURE_SPECS


def run_cli(args):
    return cli.main(args)


def test_verify_fixture_exact(fixtures_dir, capsys):
    code = run_cli(["verify", str(fixtures_dir / "maj13_noinv.mig"),
                    "--target", "maj:13"])
    out = capsys.readouterr().out
    assert code == 0
    assert "energy 0" in out
    assert "q=28" in out
    assert "inverter-free yes" in out


def test_verify_leafy_fixture(fixtures_dir, capsys):
    code = run_cli(["verify", str(fixtures_dir / "maj9_leafy_inv.mig"),
                    "--target", "maj:9"])
    out = capsys.readouterr().out
    assert code == 0
    assert "q=13" in out
    assert "leafy yes" in out


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
def test_verify_reports_leafiness_and_inverters(fixtures_dir, capsys, name):
    n = FIXTURE_SPECS[name][0]
    code = run_cli(["verify", str(fixtures_dir / name), "--target", f"maj:{n}"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    leafy = "yes" if name.startswith("maj9_leafy_") else "no"
    inverter_free = "yes" if name.endswith("_noinv.mig") else "no"
    assert lines[2:] == [f"leafy {leafy}", f"inverter-free {inverter_free}"]


def test_verify_inverted_output_is_not_inverter_free(tmp_path, capsys):
    src = tmp_path / "inverted.mig"
    src.write_text("inputs 3\ng0 = MAJ(x0, x1, x2)\noutput ~g0\n")
    assert run_cli(["verify", str(src), "--target", "maj:3"]) == 3
    assert "inverter-free no" in capsys.readouterr().out.splitlines()


def test_verify_corrupted_fixture(fixtures_dir, tmp_path, capsys):
    text = (fixtures_dir / "maj9_noinv.mig").read_text()
    broken = text.replace("g12 = MAJ(g9, g10, g11)", "g12 = MAJ(g9, g10, x5)")
    assert broken != text
    target = tmp_path / "broken.mig"
    target.write_text(broken)
    code = run_cli(["verify", str(target), "--target", "maj:9"])
    out = capsys.readouterr().out
    assert code == 3
    assert "energy 0" not in out.splitlines()[0]


def test_verify_parse_failure_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.mig"
    bad.write_text("inputs 3\ng0 = MAJ(x0, x0, x1)\noutput g0\n")
    assert run_cli(["verify", str(bad), "--target", "maj:3"]) == 2
    capsys.readouterr()


def test_missing_file_exit_4(tmp_path, capsys):
    assert run_cli(["verify", str(tmp_path / "nope.mig"),
                    "--target", "maj:3"]) == 4
    capsys.readouterr()


def test_bad_usage_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["synth", "--target", "maj:5", "--gates", "nor"])
    assert err.value.code == 2
    capsys.readouterr()


def test_synth_requires_max_nodes_for_small_targets(capsys):
    # maj:1 is the one builtin size with no default budget
    assert run_cli(["synth", "--target", "maj:1"]) == 2
    capsys.readouterr()


def test_synth_requires_max_nodes_for_a_target_file(tmp_path, capsys):
    table = tmp_path / "maj3.tt"
    table.write_text("E8\n")
    assert run_cli(["synth", "--target", str(table), "--gates", "maj"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "--max-nodes is required for this target"]


def test_synth_runs_maj5_at_the_budget_bench_uses(capsys):
    assert run_cli(["synth", "--target", "maj:5", "--gates", "maj",
                    "--seed", "1"]) == 0
    assert ", p=8, " in capsys.readouterr().out.splitlines()[0]


def test_simplify_removes_dead_gate(tmp_path, capsys):
    src = tmp_path / "dead.mig"
    src.write_text("inputs 3\n"
                   "g0 = MAJ(x0, x1, x2)\n"
                   "g1 = MAJ(x0, x1, 0)\n"
                   "g2 = MAJ(g0, x0, x1)\n"
                   "output g2\n")
    assert run_cli(["simplify", str(src)]) == 0
    out = capsys.readouterr().out
    net = parse_network(out)
    assert net.num_gates == 2


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
def test_simplify_fixture_unchanged(fixtures_dir, capsys, name):
    source = (fixtures_dir / name).read_text()
    assert run_cli(["simplify", str(fixtures_dir / name)]) == 0
    assert capsys.readouterr().out == source


def test_simplify_chain_to_wire(tmp_path, capsys):
    src = tmp_path / "wire.mig"
    src.write_text("inputs 3\ng0 = MAJ(x0, 0, 1)\ng1 = MAJ(g0, 0, 1)\noutput g1\n")
    assert run_cli(["simplify", str(src)]) == 0
    out = capsys.readouterr().out
    net = parse_network(out)
    assert net.num_gates == 0
    assert out == "inputs 3\noutput x0\n"


def test_synth_maj3_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "net.mig"
    trace = tmp_path / "trace.csv"
    code = run_cli(["synth", "--target", "maj:3", "--gates", "maj",
                    "--max-nodes", "1", "--seed", "1",
                    "--out", str(out), "--trace", str(trace)])
    capsys.readouterr()
    assert code == 0
    net = parse_network(out.read_text())
    assert evaluate_full(net, majority_truth_table(3)).error == 0
    _, q = cleanup(net)
    assert q == 1
    assert trace.exists()


def test_synth_goal_not_reached_exit_3(tmp_path, capsys):
    # p=1 cannot implement MAJ-5
    code = run_cli(["synth", "--target", "maj:5", "--gates", "maj",
                    "--max-nodes", "1", "--seed", "1", "--replicas", "4",
                    "--max-reps", "20"])
    capsys.readouterr()
    assert code == 3


def test_synth_below_the_best_known_q_looks_for_any_exact_network(capsys):
    # p=2 is below MAJ-5's best-known q=4: the default goal is 0, not
    # 4 - 2, so a network 2 rows wrong does not end the run
    code = run_cli(["synth", "--target", "maj:5", "--gates", "maj",
                    "--max-nodes", "2", "--seed", "1", "--replicas", "8",
                    "--max-reps", "20"])
    out = capsys.readouterr().out
    assert code == 3
    assert ", score goal 0, " in out
    assert "no exact network: best score " in out
    assert " after 20 repetitions " in out


def test_synth_stopped_before_a_repetition_says_so_exit_3(tmp_path,
                                                          capsys):
    # the time limit passes while the replicas are built
    trace = tmp_path / "trace.csv"
    code = run_cli(["synth", "--target", "maj:5", "--max-nodes", "8",
                    "--seed", "1", "--time-limit", "0.0001",
                    "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 3
    assert "no exact network: no repetition completed in" in out
    assert "None" not in out
    assert trace.read_text() == "repetition,best_q,best_score,elapsed_seconds\n"


def test_seed_comes_only_from_the_seed_option(monkeypatch, fixtures_dir,
                                              capsys):
    monkeypatch.setenv("PTSYNTH_SEED", "abc")
    fixture = fixtures_dir / "maj9_inv.mig"
    assert run_cli(["simplify", str(fixture)]) == 0
    assert capsys.readouterr().out == fixture.read_text()
    args = cli.build_parser().parse_args(["synth", "--target", "maj:3",
                                          "--max-nodes", "1"])
    assert args.seed == 0


# the three-value strings in these two tests are mixes of the former
# three-move format, which is rejected like any other wrong count
@pytest.mark.parametrize("weights", ["nan,1", "1,inf", "0,inf",
                                     "1e308,1e308", "nan,1,1", "1,inf,1",
                                     "0,0,inf", "1e308,1e308,1"])
def test_non_finite_move_weights_exit_2(weights, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["synth", "--target", "maj:3", "--max-nodes", "1",
                 "--move-weights", weights])
    assert err.value.code == 2
    assert "2 finite non-negative values" in capsys.readouterr().err


@pytest.mark.parametrize("weights", ["0,0", "-1,0", "1", "0,0,0", "-1,0,0"])
def test_negative_zero_or_short_move_weights_exit_2(weights, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["synth", "--target", "maj:3", "--max-nodes", "1",
                 f"--move-weights={weights}"])
    assert err.value.code == 2
    assert "2 finite non-negative values" in capsys.readouterr().err


def test_three_move_weights_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["synth", "--target", "maj:3", "--max-nodes", "1",
                 "--move-weights=1,1,1"])
    assert err.value.code == 2
    assert "2 finite non-negative values" in capsys.readouterr().err


def test_synth_with_swap_weighted_runs(tmp_path, capsys):
    out = tmp_path / "net.mig"
    code = run_cli(["synth", "--target", "maj:5", "--gates", "maj",
                    "-p", "8", "--seed", "1", "--move-weights", "1,1",
                    "--max-reps", "500", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    net = parse_network(out.read_text())
    assert evaluate_full(net, majority_truth_table(5)).error == 0


SYNTH = ["synth", "--target", "maj:3", "--max-nodes", "1"]
CALIBRATE = ["calibrate", "--target", "maj:3", "--max-nodes", "1"]


@pytest.mark.parametrize("args, option", [
    (SYNTH + ["--time-limit", "nan"], "--time-limit"),
    (SYNTH + ["--time-limit", "-1"], "--time-limit"),
    (SYNTH + ["--time-limit", "0"], "--time-limit"),
    (SYNTH + ["--time-limit", "inf"], "--time-limit"),
    (SYNTH + ["--max-reps", "-5"], "--max-reps"),
    (SYNTH + ["--max-reps", "0"], "--max-reps"),
    (["bench", "--threads", "0"], "--threads"),
    (SYNTH + ["--time-limit", "1e309"], "--time-limit"),
    (CALIBRATE + ["--probe", "-3"], "--probe"),
    (["bench", "--max-reps", "-1"], "--max-reps"),
    (["bench", "--time-limit=-inf"], "--time-limit"),
    (SYNTH + ["--threads", "0"], "--threads"),
    (SYNTH + ["--threads", "-1"], "--threads"),
    # one repetition tries only the even pairs
    (CALIBRATE + ["--probe", "1"], "--probe"),
])
def test_out_of_range_numeric_options_exit_2(args, option, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(args)
    assert err.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    low = 1 if option == "--probe" else 0
    assert f"error: argument {option}: must be finite and above {low}" in last


def test_non_integer_threads_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(SYNTH + ["--threads", "abc"])
    assert err.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert "error: argument --threads: invalid int value: 'abc'" in last


def test_synth_passes_threads_to_the_engine(monkeypatch, capsys):
    seen = []
    real_run = engine.run

    def recording_run(*args, **kwargs):
        seen.append(kwargs["threads"])
        return real_run(*args, **kwargs)

    monkeypatch.setattr(engine, "run", recording_run)
    for extra in ([], ["--threads", "3"]):
        assert run_cli(SYNTH + ["--gates", "maj", "--seed", "1"] + extra) == 0
    capsys.readouterr()
    assert seen == [1, 3]


def test_calibrate_replica_override(capsys):
    code = run_cli(["calibrate", "--target", "maj:3", "--gates", "maj",
                    "--max-nodes", "2", "--replicas", "8", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == ["replicas", "betas"]
    assert "replicas 8" in out
    betas = [float(v) for v in
             next(line for line in out.splitlines()
                  if line.startswith("betas")).split()[1:]]
    assert betas == sorted(betas) and len(betas) == 8


def test_calibrate_runs_the_warmup_once(monkeypatch, tmp_path, capsys):
    calls = []
    real_collect = engine.collect_uphill_deltas

    def counting_collect(*args, **kwargs):
        calls.append(args)
        return real_collect(*args, **kwargs)

    monkeypatch.setattr(engine, "collect_uphill_deltas", counting_collect)
    out = tmp_path / "ladder.txt"
    code = run_cli(["calibrate", "--target", "maj:3", "--gates", "maj",
                    "--max-nodes", "2", "--replicas", "8", "--seed", "1",
                    "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert len(calls) == 1
    # the written ladder is the one the library call builds
    ladder = engine.calibrate_ladder(
        majority_truth_table(3), NetworkConstraints(2, inverters_allowed=False),
        seed=1, replicas=8)
    assert out.read_text() == emit_ladder(ladder)


def test_calibrate_probe_prints_the_swap_rates(capsys):
    args = ["calibrate", "--target", "maj:3", "--gates", "maj",
            "--max-nodes", "2", "--replicas", "4", "--seed", "1"]
    assert run_cli(args + ["--probe", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rates = [float(v) for v in
             next(line for line in lines
                  if line.startswith("swap rates ")).split()[2:]]
    assert len(rates) == 3
    assert f"min swap rate {min(rates):.3f}" in lines
    assert run_cli(args) == 0
    assert "swap rate" not in capsys.readouterr().out


@pytest.mark.parametrize("args", [SYNTH, CALIBRATE])
def test_warmup_sweeps_option_is_gone(args, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(args + ["--warmup-sweeps", "50"])
    assert err.value.code == 2
    assert "unrecognized arguments: --warmup-sweeps" in capsys.readouterr().err


def test_probe_reps_option_is_gone(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(CALIBRATE + ["--probe", "--probe-reps", "50"])
    assert err.value.code == 2
    assert "unrecognized arguments: --probe-reps" in capsys.readouterr().err


def test_calibrate_degenerate_exit_3(capsys):
    code = run_cli(["calibrate", "--target", "maj:1", "--gates", "maj",
                    "--max-nodes", "1", "--seed", "1"])
    assert code == 3
    capsys.readouterr()


def assert_usage_error(args, capsys, expected):
    """Exit 2 with one line on stderr that contains ``expected``."""
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and expected in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["synth", "calibrate", "bench"])
def test_too_few_replicas_exit_2(command, capsys):
    args = [command, "--replicas", "3"]
    if command == "bench":
        args += ["--seeds", "1"]
    else:
        args += ["--seed", "1", "--target", "maj:3", "--gates", "maj",
                 "--max-nodes", "2"]
    assert_usage_error(args, capsys, "at least 4 replicas, got 3")


@pytest.mark.parametrize("command", ["synth", "calibrate"])
@pytest.mark.parametrize("budget", ["0", "-1"])
def test_non_positive_max_nodes_exit_2(command, budget, capsys):
    assert_usage_error([command, "--target", "maj:3", "--max-nodes", budget],
                       capsys, f"--max-nodes {budget}: max_nodes must be positive")


@pytest.mark.parametrize("text, expected", [
    ("0.1\nwarm\n", "line 2: bad inverse temperature 'warm'"),
    ("0.5\n0.2\n", "inverse temperatures must strictly increase"),
    ("0.1\nnan\n2.0\n", "inverse temperatures must be finite"),
    ("0.1\n1e400\n", "inverse temperatures must be finite"),
])
def test_malformed_ladder_file_exit_2(text, expected, tmp_path, capsys):
    ladder = tmp_path / "ladder.txt"
    ladder.write_text(text)
    assert_usage_error(["synth", "--target", "maj:3", "--max-nodes", "2",
                        "--ladder", str(ladder)], capsys, expected)


# --replicas is the one calibration option
@pytest.mark.parametrize("option", [["--replicas", "9"]])
def test_calibration_option_with_a_ladder_file_exit_2(option, tmp_path,
                                                      capsys):
    ladder = tmp_path / "ladder.txt"
    ladder.write_text("0.5\n1.0\n")
    assert_usage_error(SYNTH + ["--ladder", str(ladder)] + option, capsys,
                       f"{option[0]} cannot be used with a ladder file")


def test_synth_reads_a_ladder_file_named_auto(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "auto").write_text("0.5\n1.0\n2.0\n4.0\n")
    code = run_cli(["synth", "--target", "maj:3", "--gates", "maj",
                    "--max-nodes", "2", "--seed", "1", "--ladder", "auto",
                    "--max-reps", "5"])
    out = capsys.readouterr().out
    assert code in (0, 3)
    assert "replicas 4," in out.splitlines()[0]


def test_wall_clock_trace_without_trace_exit_2(capsys):
    assert_usage_error(SYNTH + ["--wall-clock-trace"], capsys,
                       "--wall-clock-trace needs --trace")


def test_synth_threads_option_is_accepted_and_changes_nothing(tmp_path, capsys):
    artifacts = []
    for threads in ("1", "3"):
        out = tmp_path / f"net-{threads}.mig"
        trace = tmp_path / f"trace-{threads}.csv"
        code = run_cli(["synth", "--target", "maj:5", "--gates", "maj",
                        "-p", "8", "--seed", "1", "--threads", threads,
                        "--out", str(out), "--trace", str(trace)])
        capsys.readouterr()
        assert code == 0
        artifacts.append((out.read_bytes(), trace.read_bytes()))
    assert artifacts[0] == artifacts[1]


def test_target_file_loading(tmp_path, capsys):
    table = tmp_path / "maj3.tt"
    table.write_text("E8\n")
    code = run_cli(["synth", "--target", str(table), "--gates", "maj",
                    "--max-nodes", "1", "--seed", "1", "--replicas", "6"])
    capsys.readouterr()
    assert code == 0


def target_file_args(command, tmp_path, table):
    """Arguments that run ``command`` on the target file ``table``."""
    args = [command, "--target", str(table)]
    if command == "verify":
        network = tmp_path / "maj3.mig"
        network.write_text("inputs 3\ng0 = MAJ(x0, x1, x2)\noutput g0\n")
        args.insert(1, str(network))
    else:
        args += ["--gates", "maj", "--max-nodes", "1"]
    return args


@pytest.mark.parametrize("command", ["synth", "calibrate", "verify"])
def test_target_file_with_a_zero_weight_exit_2(command, tmp_path, capsys):
    table = tmp_path / "maj3.tt"
    table.write_text("E8\nweights: 1 1 1 0 1 1 1 1\n")
    assert run_cli(target_file_args(command, tmp_path, table)) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"{table}: weights other than 1 are not "
                                "supported"]


@pytest.mark.parametrize("command", ["synth", "verify"])
def test_target_file_with_an_empty_binary_table_exit_2(command, tmp_path,
                                                      capsys):
    table = tmp_path / "empty.tt"
    table.write_text("0b\n")
    assert run_cli(target_file_args(command, tmp_path, table)) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"{table}: no binary digits after 0b"]


def test_target_file_with_unit_weights_runs(tmp_path, capsys):
    table = tmp_path / "maj3.tt"
    table.write_text("E8\nweights: 1 1 1 1 1 1 1 1\n")
    code = run_cli(["synth", "--target", str(table), "--gates", "maj",
                    "--max-nodes", "1", "--seed", "1", "--replicas", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "found exact network: q=1" in out


def test_bench_reports_a_calibration_failure_and_goes_on(tmp_path, capsys,
                                                        monkeypatch):
    def failing(target, constraints, seed=0, replicas=engine.DEFAULT_REPLICAS):
        raise engine.CalibrationError(f"no ladder for n={target.n}")

    monkeypatch.setattr(engine, "calibrate_ladder", failing)
    summary = tmp_path / "bench.json"
    code = run_cli(["bench", "--seeds", "1", "--json", str(summary)])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert err.splitlines() == [f"calibration failed: no ladder for n={n}"
                                for n in (3, 3, 5, 5, 7, 7)]
    instances = json.loads(summary.read_text())["instances"]
    rows = [(inst["setup"]["n"], inst["setup"]["gates"], run["best_q"],
             run["repetitions"], inst["solved"][str(inst["setup"]["goal_q"])])
            for inst in instances for run in inst["runs"]]
    assert rows == [(n, gates, None, 0, 0.0)
                    for n in (3, 5, 7) for gates in ("maj", "maj-inv")]


# MAJ-5 without inverters at p=8 on an 8-replica ladder, as bench runs it
SHORT_BENCH = ["bench", "--sizes", "5", "--gates", "maj", "--replicas", "8"]


def test_bench_pins_the_repetitions_of_a_short_run(tmp_path, capsys):
    summary = tmp_path / "ttq.json"
    code = run_cli(SHORT_BENCH + ["--seeds", "1,2", "--max-reps", "300",
                                  "--json", str(summary)])
    out = capsys.readouterr().out
    assert code == 0
    assert "q<=4: median 2.5 reps" in out
    [result] = json.loads(summary.read_text())["instances"]
    assert result["setup"]["seeds"] == [1, 2]
    assert result["setup"]["max_reps"] == 300
    # repetition counts are deterministic for a seed: they pin the stream
    reps = [{q: hit["repetitions"] for q, hit in run["to_q"].items()}
            for run in result["runs"]]
    assert reps == [{"7": 1, "6": 1, "5": 1, "4": 2},
                    {"7": 3, "6": 3, "5": 3, "4": 3}]
    assert [run["repetitions"] for run in result["runs"]] == [2, 3]
    assert result["solved"] == {"5": 1.0, "4": 1.0}
    median = result["median"]["4"]
    assert (median["repetitions"], median["repetitions_censored"],
            median["seconds_censored"]) == (2.5, False, False)


def test_bench_censors_unsolved_seeds_at_their_stop(tmp_path, capsys):
    summary = tmp_path / "ttq.json"
    code = run_cli(SHORT_BENCH + ["--seeds", "1,2,3", "--max-reps", "1",
                                  "--json", str(summary)])
    capsys.readouterr()
    assert code == 3
    [result] = json.loads(summary.read_text())["instances"]
    # one repetition takes seed 1 to q=5 and seeds 2 and 3 nowhere
    assert result["solved"]["4"] == 0.0
    assert all(run["to_q"]["4"] is None for run in result["runs"])
    median = result["median"]["4"]
    assert median["repetitions"] == 1
    assert median["repetitions_censored"] and median["seconds_censored"]
    # the best score says how close a run came, positive while inexact
    for run in result["runs"]:
        assert type(run["best_score"]) is int
        assert run["best_q"] is not None or run["best_score"] > 0


def test_bench_json_in_a_missing_directory_exit_4_before_calibrating(
        tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(engine, "calibrate_ladder",
                        lambda *args, **kwargs: calls.append(args))
    summary = tmp_path / "missing" / "x.json"
    assert run_cli(SHORT_BENCH + ["--seeds", "1,2", "--json", str(summary)]) == 4
    assert calls == []
    assert capsys.readouterr().err.startswith(f"cannot write {summary}: ")


@pytest.mark.parametrize("where", ["run", "calibration"])
def test_bench_stops_at_the_first_interrupt(where, tmp_path, monkeypatch,
                                            capsys):
    calls = []
    real_run, real_calibrate = engine.run, engine.calibrate_ladder

    def cut_run(*args, **kwargs):
        calls.append("run")
        report = real_run(*args, **kwargs)
        return dataclasses.replace(report, interrupted=len(calls) == 1)

    def cut_calibration(*args, **kwargs):
        calls.append("calibrate")
        if len(calls) == 1:
            raise KeyboardInterrupt
        return real_calibrate(*args, **kwargs)

    if where == "run":
        monkeypatch.setattr(engine, "run", cut_run)
    else:
        monkeypatch.setattr(engine, "calibrate_ladder", cut_calibration)
    summary = tmp_path / "ttq.json"
    code = run_cli(SHORT_BENCH + ["--seeds", "1,2,3", "--max-reps", "300",
                                  "--json", str(summary)])
    out, err = capsys.readouterr()
    assert code == 3
    assert len(calls) == 1
    assert err.splitlines() == ["interrupted; no further runs started"]
    rows = out.splitlines()[1:-1]
    assert len(rows) == 1 and rows[0].split()[2] == "1"
    assert rows[0].endswith(" interrupted")
    [result] = json.loads(summary.read_text())["instances"]
    assert [(run["seed"], run["interrupted"]) for run in result["runs"]] == [(1, True)]


@pytest.mark.parametrize("args, expected", [
    pytest.param(["--sizes", "4"], "no budget or best-known q for maj:4",
                 id="sizes-4"),
    pytest.param(["--sizes", "15"], "no budget or best-known q for maj:15",
                 id="sizes-15"),
    pytest.param(["--gates", "nand"], "--gates: bad gate set 'nand'",
                 id="gates-nand"),
    pytest.param(["--seeds", "x"], "must be comma-separated integers",
                 id="seeds-x"),
    # 0 is a count, not "unset": it must not fall back to the default
    pytest.param(["--replicas", "0"], "at least 4 replicas, got 0",
                 id="replicas-0"),
])
def test_bench_bad_input_exit_2(args, expected, capsys):
    assert_usage_error(["bench", *args], capsys, expected)


@pytest.mark.slow
def test_bench_quick_suite(tmp_path, capsys):
    summary = tmp_path / "bench.json"
    code = run_cli(["bench", "--seeds", "1", "--time-limit", "300",
                    "--json", str(summary)])
    capsys.readouterr()
    assert code == 0
    instances = json.loads(summary.read_text())["instances"]
    assert len(instances) == 6
    assert all(len(inst["runs"]) == 1 for inst in instances)
    found = {(inst["setup"]["n"], inst["setup"]["gates"]):
             inst["runs"][0]["best_q"] for inst in instances}
    for n, expected in ((3, 1), (5, 4), (7, 7)):
        assert found[(n, "maj")] == expected
        assert found[(n, "maj-inv")] == expected
