"""The examples in the package's docstrings run and hold.

They are collected here, module by module, rather than by pytest's
``--doctest-modules``, which would also import the scripts under
``benchmark/`` as modules."""

import doctest
import importlib
import pkgutil

import pytest

import chd

MODULES = sorted(m.name for m in pkgutil.iter_modules(chd.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(f"chd.{name}"))
    assert result.failed == 0


def test_cyclotomic_has_examples():
    assert doctest.testmod(importlib.import_module("chd.cyclotomic")).attempted >= 18
