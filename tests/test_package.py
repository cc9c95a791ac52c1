"""The package namespace: every public name resolves on first access to the
object its home module defines, and importing the package loads none of
its modules."""

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
