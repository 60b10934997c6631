"""Every public name has a reader outside the tests.

A name in ``hankel_spectra.__all__`` must be used, not only defined, in a
package module other than ``__init__.py``, in the README or in a benchmark
script.  The check reads files only.
"""

import re
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
