"""The package namespace: every public name, imported from its home module
on first access."""

import importlib
import os
import subprocess
import sys

import pytest

import isonorm


def test_every_public_name_is_its_home_modules_object():
    assert isonorm.__all__[-1] == "__version__"
    for name in isonorm.__all__[:-1]:
        home = importlib.import_module(f"isonorm.{isonorm._HOME[name]}")
        obj = getattr(isonorm, name)
        assert obj is vars(home)[name], name
        # a class or function is defined there, not imported from elsewhere
        assert getattr(obj, "__module__", home.__name__) == home.__name__, name
    assert set(isonorm.__all__) <= set(dir(isonorm))
    namespace = {}
    exec("from isonorm import *", namespace)
    assert {k for k in namespace if k != "__builtins__"} == set(isonorm.__all__)


def test_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        isonorm.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from isonorm import no_such_name", {})


def test_import_isonorm_alone_imports_no_submodule():
    src = os.path.dirname(os.path.dirname(isonorm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, isonorm; "
            "print(sorted(m for m in sys.modules if m.startswith('isonorm.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
