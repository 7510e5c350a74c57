import importlib.util
import json

import pytest

from conftest import REPO_ROOT


def load_script():
    path = REPO_ROOT / "scripts" / "time_to_q.py"
    spec = importlib.util.spec_from_file_location("time_to_q", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_time_to_q_pins_the_repetitions_of_a_short_run():
    result = load_script().time_to_q(n=5, p=8, goal_q=4, seeds=(1, 2),
                                     max_reps=300, replicas=8)
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


def test_time_to_q_censors_unsolved_seeds_at_the_cap(tmp_path, monkeypatch):
    script = load_script()
    result = script.time_to_q(n=5, p=8, goal_q=2, seeds=(1, 2, 3),
                              max_reps=4, replicas=8)
    # q=2 is below MAJ-5's optimum, so no seed reaches it
    assert result["solved"]["2"] == 0.0
    assert all(run["to_q"]["2"] is None for run in result["runs"])
    assert result["median"]["2"]["repetitions"] == 4
    assert result["median"]["2"]["repetitions_censored"]
    assert result["median"]["2"]["seconds_censored"]
    # main writes the summary under its label
    real = script.time_to_q
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(script, "time_to_q",
                        lambda **kwargs: real(n=5, p=8, goal_q=4, **kwargs))
    assert script.main(["--seeds", "1,2", "--max-reps", "300",
                        "--replicas", "8", "--label", "t"]) == 0
    written = json.loads((tmp_path / "BENCH_ttq_t.json").read_text())
    assert [run["seed"] for run in written["runs"]] == [1, 2]
    assert written["setup"]["max_reps"] == 300


def test_time_to_q_rejects_zero_replicas(capsys, monkeypatch):
    # 0 is a count, not "unset": it must not fall back to the default
    script = load_script()

    def search(**kwargs):
        raise AssertionError(f"searched with {kwargs['replicas']} replicas")

    monkeypatch.setattr(script, "time_to_q", search)
    with pytest.raises(SystemExit) as exc:
        script.main(["--replicas", "0", "--label", "t"])
    assert exc.value.code == 2
    assert "at least 4" in capsys.readouterr().err
