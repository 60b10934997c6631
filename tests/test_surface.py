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
