import pytest

from ptsynth import cli, engine
from ptsynth.formats import emit_ladder, parse_network
from ptsynth.network import NetworkConstraints, cleanup, evaluate_full
from ptsynth.truthtable import majority_truth_table


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
    assert run_cli(["synth", "--target", "maj:5"]) == 2
    capsys.readouterr()


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


def test_simplify_fixture_unchanged(fixtures_dir, capsys):
    source = (fixtures_dir / "maj9_noinv.mig").read_text()
    assert run_cli(["simplify", str(fixtures_dir / "maj9_noinv.mig")]) == 0
    assert capsys.readouterr().out == source


def test_simplify_chain_to_wire(tmp_path, capsys):
    src = tmp_path / "wire.mig"
    src.write_text("inputs 3\ng0 = MAJ(x0, 0, 1)\ng1 = MAJ(g0, 0, 1)\noutput g1\n")
    assert run_cli(["simplify", str(src)]) == 0
    out = capsys.readouterr().out
    net = parse_network(out)
    assert net.num_gates == 0
    assert str(net.output) == "x0"


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


def test_synth_env_seed(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("PTSYNTH_SEED", "7")
    parser = cli.build_parser()
    args = parser.parse_args(["synth", "--target", "maj:3", "--gates", "maj",
                              "--max-nodes", "1"])
    assert args.seed == 7


def test_non_integer_env_seed_exit_2(monkeypatch, fixtures_dir, capsys):
    monkeypatch.setenv("PTSYNTH_SEED", "abc")
    assert_usage_error(["verify", str(fixtures_dir / "maj9_inv.mig"),
                        "--target", "maj:9"],
                       capsys, "PTSYNTH_SEED must be an integer, got 'abc'")


@pytest.mark.parametrize("weights", ["nan,1,1", "1,inf,1", "0,0,inf",
                                     "1e308,1e308,1"])
def test_non_finite_move_weights_exit_2(weights, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["synth", "--target", "maj:3", "--max-nodes", "1",
                 "--move-weights", weights])
    assert err.value.code == 2
    assert "3 finite non-negative values" in capsys.readouterr().err


@pytest.mark.parametrize("weights", ["0,0,0", "-1,0,0", "1,1"])
def test_negative_zero_or_short_move_weights_exit_2(weights, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["synth", "--target", "maj:3", "--max-nodes", "1",
                 f"--move-weights={weights}"])
    assert err.value.code == 2
    assert "3 finite non-negative values" in capsys.readouterr().err


SYNTH = ["synth", "--target", "maj:3", "--max-nodes", "1"]
CALIBRATE = ["calibrate", "--target", "maj:3", "--max-nodes", "1"]


@pytest.mark.parametrize("args, option", [
    (SYNTH + ["--time-limit", "nan"], "--time-limit"),
    (SYNTH + ["--time-limit", "-1"], "--time-limit"),
    (SYNTH + ["--time-limit", "0"], "--time-limit"),
    (SYNTH + ["--time-limit", "inf"], "--time-limit"),
    (SYNTH + ["--max-reps", "-5"], "--max-reps"),
    (SYNTH + ["--max-reps", "0"], "--max-reps"),
    (SYNTH + ["--warmup-sweeps", "-1"], "--warmup-sweeps"),
    (CALIBRATE + ["--warmup-sweeps", "0"], "--warmup-sweeps"),
    (CALIBRATE + ["--probe", "--probe-reps", "-3"], "--probe-reps"),
    (["bench", "--max-reps", "-1"], "--max-reps"),
    (["bench", "--time-limit=-inf"], "--time-limit"),
    (SYNTH + ["--threads", "0"], "--threads"),
    (SYNTH + ["--threads", "-1"], "--threads"),
])
def test_out_of_range_numeric_options_exit_2(args, option, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(args)
    assert err.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert f"error: argument {option}: must be finite and above 0" in last


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
        engine.CalibrationConfig(replicas=8), seed=1)
    assert out.read_text() == emit_ladder(ladder)


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
    args = [command, "--replicas", "3", "--seed", "1"]
    if command != "bench":
        args += ["--target", "maj:3", "--gates", "maj", "--max-nodes", "2"]
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


@pytest.mark.parametrize("option", [["--replicas", "9"],
                                    ["--warmup-sweeps", "50"]])
def test_calibration_option_with_a_ladder_file_exit_2(option, tmp_path,
                                                      capsys):
    ladder = tmp_path / "ladder.txt"
    ladder.write_text("0.5\n1.0\n")
    assert_usage_error(SYNTH + ["--ladder", str(ladder)] + option, capsys,
                       f"{option[0]} cannot be used with a ladder file")


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
    def failing(target, constraints, config=None, seed=0):
        raise engine.CalibrationError(f"no ladder for n={target.n}")

    monkeypatch.setattr(engine, "calibrate_ladder", failing)
    summary = tmp_path / "bench.csv"
    code = run_cli(["bench", "--suite", "quick", "--seed", "1",
                    "--csv", str(summary)])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert err.splitlines() == [f"calibration failed: no ladder for n={n}"
                                for n in (3, 3, 5, 5, 7, 7)]
    rows = [line.split(",") for line in summary.read_text().splitlines()[1:]]
    assert [(row[0], row[1], row[4], row[5], row[7]) for row in rows] == [
        (str(n), gates, "-", "0", "partial")
        for n in (3, 5, 7) for gates in ("maj", "maj-inv")]


@pytest.mark.slow
def test_bench_quick_suite(tmp_path, capsys):
    summary = tmp_path / "bench.csv"
    code = run_cli(["bench", "--suite", "quick", "--seed", "1",
                    "--time-limit", "300", "--csv", str(summary)])
    capsys.readouterr()
    assert code == 0
    lines = summary.read_text().splitlines()
    assert lines[0] == "n,gates,p,goal_q,q,repetitions,wall_seconds,status"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6
    assert all(len(row) == 8 for row in rows)
    found = {(int(row[0]), row[1]): int(row[4]) for row in rows}
    for n, expected in ((3, 1), (5, 4), (7, 7)):
        assert found[(n, "maj")] == expected
        assert found[(n, "maj-inv")] == expected
