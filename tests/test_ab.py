import shutil
import subprocess
import sys

from conftest import REPO_ROOT


def run_ab(*args):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "ab.py"),
         "--shape", "maj5-exact", "--rounds", "2", *args],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300)


def test_ab_of_a_tree_against_itself_agrees_every_round():
    # the change side is always the src next to the script
    proc = run_ab("--parent", str(REPO_ROOT / "src"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[1:3]] == \
        ["round 0 seed 1 first parent", "round 1 seed 2 first change"]
    assert lines[-1].startswith("median change/parent ")
    assert lines[-1].endswith(" of 2")


def test_ab_stops_where_the_trees_disagree(tmp_path):
    # a parent whose calibration anchors differ gives other betas
    shutil.copytree(REPO_ROOT / "src" / "ptsynth", tmp_path / "ptsynth",
                    ignore=shutil.ignore_patterns("__pycache__"))
    engine = tmp_path / "ptsynth" / "engine.py"
    text = engine.read_text()
    assert "ANCHOR_RATES = (0.99," in text
    engine.write_text(text.replace("ANCHOR_RATES = (0.99,",
                                   "ANCHOR_RATES = (0.98,"))
    proc = run_ab("--parent", str(tmp_path))
    assert proc.returncode == 1
    assert "round 0 seed 1: the sides differ in betas" in proc.stderr
