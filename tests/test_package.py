"""The package namespace: every public name, imported from its home module
on first access; and no source file imports a name it does not use."""

import ast
import importlib
import inspect
import os
import pathlib
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


def _unused_imports(path):
    """(line, name) of each name an import binds that no Name node reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {(a.asname or a.name.split(".")[0]): node.lineno
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_unused_imports():
    root = pathlib.Path(__file__).resolve().parents[1]
    found = [f"{path.relative_to(root)}:{line}: {name}"
             for d in ("src/isonorm", "scripts", "tests")
             for path in sorted((root / d).rglob("*.py"))
             for line, name in _unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def _calls(tree, name):
    """The enclosing function (None at module level) of each call of `name`,
    a bare name or an attribute, in a parsed module."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.append(where)
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    visit(tree, None)
    return found


def test_the_normal_w_is_formed_only_in_the_frame():
    # every frame takes w from foliation._frame, whose focal guard comes first
    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "isonorm"
    calls = [(path.name, where) for path in sorted(root.glob("*.py"))
             for where in _calls(ast.parse(path.read_text()), "_unit_w")]
    assert calls == [("foliation.py", "_frame")]


def _resolve(module: str, name: str):
    """module.name: an attribute of the module, else its submodule; None
    when neither exists."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


def _isonorm_names(path):
    """(line, module, name) of each isonorm name a file reaches: the names
    of its `from isonorm... import`s, and each attribute it reads off a
    name such an import (or `import isonorm`) binds to a module."""
    tree = ast.parse(path.read_text(), str(path))
    reached, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "isonorm"):
            for a in node.names:
                reached.append((node.lineno, node.module, a.name))
                obj = _resolve(node.module, a.name)
                if inspect.ismodule(obj):
                    modules[a.asname or a.name] = obj.__name__
        elif isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names
                           if a.name == "isonorm")
    reached += [(n.lineno, modules[n.value.id], n.attr) for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                and isinstance(n.value, ast.Name) and n.value.id in modules]
    return reached


def test_every_isonorm_name_perfbench_and_scripts_reach_exists():
    # Tier-1 does not collect perfbench: a removed or renamed name would
    # first show up as a failed benchmark run
    root = pathlib.Path(__file__).resolve().parents[1]
    reached = {(f"{path.relative_to(root)}:{line}", module, name)
               for d in ("perfbench", "scripts")
               for path in sorted((root / d).glob("*.py"))
               for line, module, name in _isonorm_names(path)}
    missing = [f"{where}: {module}.{name}" for where, module, name in sorted(reached)
               if _resolve(module, name) is None]
    assert not missing, "missing isonorm names:\n" + "\n".join(missing)
    assert len(reached) > 100  # the scan saw the imports and the attributes
