"""The README documents only names the package has."""

import importlib
import re
from pathlib import Path

import renosc

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_the_catalog():
    listed = re.search(r"built-in name\s*\(([^)]*)\)", README.read_text()).group(1)
    assert tuple(re.findall(r"`([^`]+)`", listed)) == renosc.CATALOG


def test_readme_names_resolve_on_the_package():
    names = set(re.findall(r"\brenosc\.([A-Za-z_]\w*)", README.read_text()))
    assert names  # the pattern still finds the library entry points
    missing = sorted(name for name in names if not hasattr(renosc, name))
    assert missing == []


def test_readme_module_names_resolve_on_the_package():
    # a sentence that names propagation.X, _kernels.X, invariance.X,
    # maslovbox.X or SpectralProblem.X names something the package has
    pattern = r"\b(propagation|_kernels|invariance|maslovbox|SpectralProblem)\.([A-Za-z_]\w*)"
    names = set(re.findall(pattern, README.read_text()))
    assert names

    def owner(name):
        if name == "SpectralProblem":
            return renosc.SpectralProblem
        return importlib.import_module(f"renosc.{name}")

    missing = sorted(f"{o}.{a}" for o, a in names if not hasattr(owner(o), a))
    assert missing == []
