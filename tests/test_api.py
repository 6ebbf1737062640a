import re
from pathlib import Path

import pytest

import qscsim

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_api_names():
    """The count and the backticked names of the README's sentence "... exports N names, and only these: ..."."""
    section = README.read_text().split("## Python API\n", 1)[1].split("\n## ", 1)[0]
    count = int(re.search(r"exports (\d+) names", section).group(1))
    return count, sorted(re.findall(r"`([A-Za-z_]+)`", section.split(": ", 1)[1].split(". ", 1)[0]))


def test_public_names_are_the_documented_list():
    count, names = readme_api_names()
    assert count == len(names) == len(qscsim.__all__)
    assert sorted(qscsim.__all__) == names


def test_every_public_name_resolves():
    for name in qscsim.__all__:
        assert getattr(qscsim, name) is not None


def test_amplitude_layer_is_gone():
    with pytest.raises(ImportError):
        import qscsim.states  # noqa: F401
