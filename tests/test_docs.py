"""The examples in the docstrings of every edgewise module and in README.md
run and print what they show."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import edgewise

MODULES = sorted(info.name for info in pkgutil.iter_modules(edgewise.__path__, "edgewise."))
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", ["edgewise", *MODULES])
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_readme_quick_start():
    result = doctest.testfile(str(README), module_relative=False)
    assert (result.failed, result.attempted > 0) == (0, True)
