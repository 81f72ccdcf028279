"""The docstring examples of every pkernels module run and pass."""

import doctest
import importlib
import inspect
import pkgutil

import pytest

import pkernels

MODULES = sorted(['pkernels'] + [m.name for m in pkgutil.walk_packages(
    pkernels.__path__, 'pkernels.')])


@pytest.mark.parametrize('name', MODULES)
def test_doctests(name):
    mod = importlib.import_module(name)
    failed, attempted = doctest.testmod(mod)
    # a module that shows an example runs at least one
    assert failed == 0 and (attempted > 0) == ('>>>' in inspect.getsource(mod))
