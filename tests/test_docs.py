"""The README documents only names the package has."""

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
