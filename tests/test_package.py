"""The package namespace: every public name resolves on first access to the
object its home module defines, and importing the package loads none of
its modules."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import choquet

REPO_SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_name_has_two_home_modules():
    # _HOMES would keep only the last module that lists a name
    listed = [name for names in choquet._EXPORTS.values() for name in names]
    assert sorted({name for name in listed if listed.count(name) > 1}) == []


@pytest.mark.parametrize("name", choquet.__all__)
def test_every_public_name_is_its_home_module_object(name):
    home = importlib.import_module(f"choquet.{choquet._HOMES[name]}")
    value = getattr(choquet, name)
    assert value is getattr(home, name)
    if callable(value):
        assert value.__module__ == home.__name__  # the defining module, not a re-export


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from choquet import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(choquet.__all__)
    assert all(namespace[name] is getattr(choquet, name) for name in choquet.__all__)


def test_dir_lists_the_public_names_and_the_submodules():
    listed = set(dir(choquet))
    assert set(choquet.__all__) <= listed
    assert {"axioms", "cli", "io", "names", "oracle", "__version__"} <= listed


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'choquet' has no attribute 'nope'"):
        choquet.nope
    assert not hasattr(choquet, "nope")


def test_a_bare_import_loads_nothing_and_reaches_every_submodule():
    script = (
        "import sys, choquet\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('choquet'))))\n"
        "print(' '.join(getattr(choquet, m).__name__ for m in sys.argv[1:]))\n"
    )
    submodules = ["axioms", "cli", "errors", "generate", "integral", "io", "names", "oracle",
                  "setfunction"]
    proc = subprocess.run(
        [sys.executable, "-c", script, *submodules],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(REPO_SRC)),
        timeout=60, check=True,
    )
    loaded, reached = proc.stdout.splitlines()
    assert loaded == "choquet"
    assert reached.split() == [f"choquet.{m}" for m in submodules]


def _unused_imports(path: Path) -> list[str]:
    """The names bound by the module's top-level imports that it never reads,
    apart from __future__ features, imports marked `# noqa: F401` and axioms'
    `from .names import`, which re-exports every name of names.py."""
    text = path.read_text()
    tree, lines = ast.parse(text), text.splitlines()
    bound = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        exempt = "# noqa: F401" in lines[node.lineno - 1] or isinstance(node, ast.ImportFrom) and (
            node.module == "__future__" or (path.name, node.module) == ("axioms.py", "names"))
        if not exempt:
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted((REPO_SRC / "choquet").glob("*.py")), ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    assert _unused_imports(path) == []


def _called_names(node: ast.AST) -> list[str]:
    """The name or attribute called by every call under node, in walk order."""
    return [call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))]


def test_the_checkers_read_each_trial_stream_once():
    # Every checker takes its words from _run_checker, which turns each
    # block into doubles once; no trial builds a generator to draw again.
    tree = ast.parse((REPO_SRC / "choquet" / "axioms.py").read_text())
    runner = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_run_checker")
    assert "default_rng" not in _called_names(tree)
    assert _called_names(tree).count("_doubles") == _called_names(runner).count("_doubles") == 1


def test_each_checker_gives_its_trial_width_as_a_word_count():
    # The runner reads agg.n + words raw words a trial and passes agg.n to
    # every draw itself: no call of _run_checker passes a lambda or a
    # partial (a width, a draw bound to n or anything else), the checkers
    # and the suite call it directly, with no _subset_reports between, and
    # the runner calls no parameter of its own but the checker's draw and sides.
    tree = ast.parse((REPO_SRC / "choquet" / "axioms.py").read_text())
    assert "_subset_reports" not in {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    runner = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_run_checker")
    calls = [call for call in ast.walk(tree) if isinstance(call, ast.Call)
             and isinstance(call.func, ast.Name) and call.func.id == "_run_checker"]
    passed = [arg for call in calls for arg in [*call.args, *(k.value for k in call.keywords)]]
    assert len(calls) == 8 and not any(isinstance(arg, ast.Lambda) for arg in passed)
    assert "partial" not in [name for arg in passed for name in _called_names(arg)]
    params = {arg.arg for arg in runner.args.args} | {runner.args.kwarg.arg}
    called = {call.func.id for call in ast.walk(runner)
              if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}
    assert called & params == {"draw", "sides"}


def test_the_suite_word_table_has_one_home():
    # independence_suite alone sets and resets _SUITE_WORDS and _trial_words
    # alone reads it, so no other call can see a suite's table, and no
    # second store of suite words (_suite_shared) sits beside it.
    tree = ast.parse((REPO_SRC / "choquet" / "axioms.py").read_text())
    uses = {(function.name, node.attr) for function in tree.body if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "_SUITE_WORDS"}
    assert uses == {("independence_suite", "set"), ("independence_suite", "reset"), ("_trial_words", "get")}
    named = [node for node in ast.walk(tree) if getattr(node, "id", None) == "_SUITE_WORDS"]
    bound = [node for node in tree.body if isinstance(node, ast.AnnAssign) and node.target.id == "_SUITE_WORDS"]
    assert len(bound) == 1 and len(named) == len(uses) + 1
    for path in (REPO_SRC / "choquet").glob("*.py"):
        names = {getattr(node, "id", None) or getattr(node, "name", None) or getattr(node, "attr", None)
                 for node in ast.walk(ast.parse(path.read_text()))}
        assert "_suite_shared" not in names, path.name
