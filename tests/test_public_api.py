"""The public surface of the package: every public function and method has
a caller, every private helper of a class a reader, and every error class
says which exit code it earns."""

import ast
import collections
import importlib
import inspect
import io
import tokenize
from pathlib import Path

import weylbvp.errors
from weylbvp import ConfigError, MathDomainError

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "weylbvp").glob("*.py") if p.name != "__init__.py")
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


def definitions(path):
    """(class, name) of the top-level functions (class None) and of the
    methods and properties of the top-level classes of one module, with
    repetition."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = node.name if isinstance(node, ast.ClassDef) else None
        for member in node.body if owner else [node]:
            if isinstance(member, ast.FunctionDef):
                yield owner, member.name


def names(path):
    """Every NAME token of one file."""
    source = io.StringIO(path.read_text(encoding="utf-8"))
    return [tok.string for tok in tokenize.generate_tokens(source.readline)
            if tok.type == tokenize.NAME]


def attributes(path):
    """Every name that one file reaches as an attribute, ``x.name``."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)}


def overrides(path, owner, name):
    """Whether the method overrides one of a base class, whose own callers
    reach it."""
    cls = getattr(importlib.import_module(f"weylbvp.{path.stem}"), owner)
    return any(name in vars(base) for base in cls.__mro__[1:])


def test_every_public_definition_has_a_caller():
    """A public name must occur as a NAME token in the package's modules (not
    ``__init__.py``, whose re-exports are no callers) or in the benchmark's
    scripts more often than it is defined there.  A public method or
    property of a class must moreover be reached as ``.name`` there, unless
    it overrides a base-class method (``cli._ArgumentParser.error``).  The
    scans match names, not bindings, so a method named like another
    attribute passes vacuously: a ``gram`` or ``gamma`` method is matched by
    the fields ``KreinSpace.gram`` and ``RepresentationForm.gamma``."""
    found = [(path, owner, name) for path in MODULES for owner, name in definitions(path)
             if not name.startswith("_")]
    defined = collections.Counter(name for _, _, name in found)
    used = collections.Counter(name for path in MODULES + BENCHMARK for name in names(path))
    uncalled = sorted(name for name, count in defined.items() if used[name] <= count)
    assert not uncalled, f"public names without a caller: {uncalled}"
    reached = set().union(*(attributes(path) for path in MODULES + BENCHMARK))
    unreached = sorted(f"{path.stem}.{owner}.{name}" for path, owner, name in found
                       if owner and name not in reached and not overrides(path, owner, name))
    assert not unreached, f"methods never reached as an attribute: {unreached}"


def test_every_private_helper_has_a_reader():
    """A private method or cached property of a class, ``_name`` but not
    ``__name__``, must be reached as ``.name`` in the package's modules: a
    helper that a refactor leaves without a reader is dead code."""
    reached = set().union(*(attributes(path) for path in MODULES))
    orphans = sorted(f"{path.stem}.{owner}.{name}" for path in MODULES
                     for owner, name in definitions(path)
                     if owner and name.startswith("_") and not name.endswith("__")
                     and name not in reached)
    assert not orphans, f"private helpers never reached as an attribute: {orphans}"


def test_every_error_class_has_an_exit_code():
    """The command maps ConfigError to exit 1 and MathDomainError to exit 2;
    any other error would end as an internal error (exit 3)."""
    bases = (ConfigError, MathDomainError)
    concrete = [cls for _, cls in inspect.getmembers(weylbvp.errors, inspect.isclass)
                if issubclass(cls, Exception) and cls.__module__ == weylbvp.errors.__name__
                and cls not in bases and cls is not weylbvp.errors.WeylbvpError]
    assert concrete
    unmapped = sorted(cls.__name__ for cls in concrete if not issubclass(cls, bases))
    assert not unmapped, f"error classes outside ConfigError/MathDomainError: {unmapped}"


def raised_names(path):
    """Names that a ``raise`` statement of one module raises: ``raise X`` and
    ``raise X(...)``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def test_every_error_class_is_raised_by_name():
    """A class that is only passed along as a value (an error-class
    parameter) is a second name for a failure that another class already
    raises; every concrete class must appear in some ``raise`` of the
    package."""
    concrete = {name for name, cls in inspect.getmembers(weylbvp.errors, inspect.isclass)
                if cls.__module__ == weylbvp.errors.__name__
                and cls not in (weylbvp.errors.WeylbvpError, ConfigError, MathDomainError)}
    raised = {name for path in MODULES for name in raised_names(path)}
    assert not concrete - raised, f"error classes never raised: {sorted(concrete - raised)}"
