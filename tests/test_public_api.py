"""The public surface of the package: every public function and method has
a caller, and every error class says which exit code it earns."""

import ast
import collections
import inspect
import io
import tokenize
from pathlib import Path

import weylbvp.errors
from weylbvp import ConfigError, MathDomainError

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "weylbvp").glob("*.py") if p.name != "__init__.py")
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


def public_definitions(path):
    """Names of the public top-level functions and of the public methods of
    the top-level classes of one module, with repetition."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for member in members:
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                yield member.name


def names(path):
    """Every NAME token of one file."""
    source = io.StringIO(path.read_text(encoding="utf-8"))
    return [tok.string for tok in tokenize.generate_tokens(source.readline)
            if tok.type == tokenize.NAME]


def test_every_public_definition_has_a_caller():
    """A public name must occur as a NAME token in the package's modules (not
    ``__init__.py``, whose re-exports are no callers) or in the benchmark's
    scripts more often than it is defined there.  The scan counts tokens, not
    bindings, so a method named like another identifier passes vacuously: a
    ``gram`` or ``gamma`` method is matched by the fields ``KreinSpace.gram``
    and ``RepresentationForm.gamma``, and a ``weyl`` method by any call of
    ``EllipticTriple.weyl``."""
    defined = collections.Counter(
        name for path in MODULES for name in public_definitions(path))
    used = collections.Counter(name for path in MODULES + BENCHMARK for name in names(path))
    uncalled = sorted(name for name, count in defined.items() if used[name] <= count)
    assert not uncalled, f"public names without a caller: {uncalled}"


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
