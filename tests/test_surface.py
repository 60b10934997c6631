"""Every public name has a reader outside the tests, and every name the
docs cite exists.

A name in ``hankel_spectra.__all__`` must be used, not only defined, in a
package module other than ``__init__.py``, in the README or in a benchmark
script; that check reads files only.  A ``:func:``, ``:class:`` or
``:meth:`` reference in a package docstring, and a backticked
``module.attr`` in the README, must name a live object of the package.
"""

import ast
import importlib
import inspect
import pickle
import re
from operator import attrgetter
from pathlib import Path

import pytest

import hankel_spectra as hs

ROOT = Path(__file__).resolve().parent.parent
READERS = ([p for p in sorted((ROOT / "src" / "hankel_spectra").glob("*.py"))
            if p.name != "__init__.py"]
           + [ROOT / "README.md"] + sorted((ROOT / "perfbench").glob("*.py")))
DEFINITION = re.compile(r"^\s*(def|class)\s")


def _read_outside_definitions(name: str) -> bool:
    word = re.compile(rf"\b{re.escape(name)}\b")
    return any(word.search(line) and not DEFINITION.match(line)
               for path in READERS for line in path.read_text().splitlines())


@pytest.mark.parametrize("name", hs.__all__)
def test_public_name_has_a_reader(name):
    assert _read_outside_definitions(name), f"{name} is read only by the tests"


ERRORS = ROOT / "src" / "hankel_spectra" / "errors.py"
ERROR_CLASSES = [cls for cls in vars(hs.errors).values()
                 if isinstance(cls, type) and issubclass(cls, hs.errors.HankelSpectraError)
                 and cls is not hs.errors.HankelSpectraError]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_class_has_a_raiser(cls):
    raiser = re.compile(rf"\braise {cls.__name__}\b")
    sources = [p for p in (ROOT / "src" / "hankel_spectra").glob("*.py") if p != ERRORS]
    assert any(raiser.search(p.read_text()) for p in sources), f"nothing raises {cls.__name__}"


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_keeps_code_message_and_index_through_pickle(cls):
    # a roundtrip trial's error crosses from a forked worker by pickle
    indexed = "index" in inspect.signature(cls.__init__).parameters
    made = [cls(3, "gap 1e-20 at index 3"), cls(3)] if indexed else [cls("gap 1e-20")]
    for exc in made:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert (back.code, str(back), getattr(back, "index", None)) == (
            exc.code, str(exc), 3 if indexed else None)


# Outside the exit-code table, a CamelCase name in backticks in the README
# is an error code unless the package, Python's builtins or numpy define it.
README_CAMEL = re.compile(r"`([A-Z][a-z]+(?:[A-Z][a-z0-9]+)+)`")


def test_readme_names_only_live_error_codes():
    import builtins

    import numpy

    text = (ROOT / "README.md").read_text()
    codes = {cls.code for cls in ERROR_CLASSES}
    table = {code for line in text.splitlines() if re.match(r"\| [23]\b", line)
             for code in re.findall(r"`(\w+)`", line)}
    assert table == codes, "the exit-code table must list every live code and no other"
    named = {name for name in README_CAMEL.findall(text)
             if not any(hasattr(owner, name) for owner in (hs, builtins, numpy))}
    assert named <= codes, f"README names dead error codes {sorted(named - codes)}"


SOURCES = sorted((ROOT / "src" / "hankel_spectra").glob("*.py"))
# a Sphinx cross-reference; a leading "~." or "." is relative to the package
DOC_REFERENCE = re.compile(r":(?:func|class|meth):`~?\.?([\w.]+)`")


def _resolves(owner, dotted: str) -> bool:
    try:
        attrgetter(dotted)(owner)
    except AttributeError:
        return False
    return True


def _docstring_references():
    """(file, reference, owners) for each cross-reference in a docstring; a
    reference resolves in its enclosing classes, its module or the package."""
    for path in SOURCES:
        module = importlib.import_module(f"hankel_spectra.{path.stem}")
        stack = [(ast.parse(path.read_text()), [module])]
        while stack:
            node, owners = stack.pop()
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                for name in DOC_REFERENCE.findall(ast.get_docstring(node) or ""):
                    yield path.name, name, owners + [hs]
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef) and hasattr(owners[0], child.name):
                    stack.append((child, [getattr(owners[0], child.name)] + owners))
                else:
                    stack.append((child, owners))


def test_docstring_references_resolve():
    refs = list(_docstring_references())
    assert len({name for _, name, _ in refs}) >= 10
    stale = sorted({(f, name) for f, name, owners in refs
                    if not any(_resolves(o, name) for o in owners)})
    assert not stale, f"docstrings cite names that no longer exist: {stale}"


# `module.attr` in the README, where module is a package module; a file or
# schema name such as `errors.py` or `stability.v1` is not a reference
README_MODULE_ATTR = re.compile(r"`([a-z_]+)\.([\w.]+)`")
NOT_AN_ATTRIBUTE = re.compile(r"(py|json|csv|v\d+)$")


def test_readme_module_references_resolve():
    modules = {p.stem for p in SOURCES}
    refs = {(module, attr) for module, attr in README_MODULE_ATTR.findall(
                (ROOT / "README.md").read_text())
            if module in modules and not NOT_AN_ATTRIBUTE.fullmatch(attr)}
    assert len(refs) >= 10
    stale = sorted(f"{module}.{attr}" for module, attr in refs
                   if not _resolves(importlib.import_module(f"hankel_spectra.{module}"), attr))
    assert not stale, f"README cites names that no longer exist: {stale}"
