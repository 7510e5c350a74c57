import ast
import pathlib
import re
import shlex

import ptsynth
from ptsynth import cli

from conftest import REPO_ROOT


def test_public_names_resolve_and_star_import_works():
    for name in ptsynth.__all__:
        assert getattr(ptsynth, name) is not None, name
    namespace: dict = {}
    exec("from ptsynth import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ptsynth.__all__)


def test_package_has_no_assert_statements():
    # python -O strips asserts, so an invariant must be a real check
    root = pathlib.Path(ptsynth.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_readme_library_example_runs(capsys):
    # the README's Library block names the whole documented API; run it as
    # written (MAJ-7 without inverters reaches q=7 on seed 1)
    block, = re.findall(r"```python\n(.*?)```",
                        (REPO_ROOT / "README.md").read_text(), re.S)
    exec(block, {})
    best_q, _, _ = capsys.readouterr().out.split()
    assert best_q == "7"


def test_readme_cli_block_parses():
    # every command of the README's CLI block parses with today's options;
    # nothing is run
    readme = (REPO_ROOT / "README.md").read_text()
    block, = re.findall(r"## CLI\n\n```sh\n(.*?)```", readme, re.S)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("ptsynth ")]
    assert len(lines) == 5
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line)[1:])


def test_every_public_name_is_used_outside_the_tests():
    # an exported name needs a caller: code in another package module or
    # in a script (its own def or class statement is no use), or the README
    used = set()
    package = REPO_ROOT / "src" / "ptsynth"
    paths = [path for path in sorted(package.glob("*.py"))
             if path.name != "__init__.py"]
    for path in paths + sorted((REPO_ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    used.update(re.findall(r"\w+", (REPO_ROOT / "README.md").read_text()))
    assert [name for name in ptsynth.__all__ if name not in used] == []
