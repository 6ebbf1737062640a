import re
from pathlib import Path

import pytest

import qscsim
from qscsim.config import ExperimentConfig
from qscsim.protocol import leaf_fields

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


def readme_config_paths():
    """The ``section.field`` paths of README's configuration table, one per backticked field
    name; a row with an empty section cell continues the section above."""
    table = README.read_text().split("\n| section ", 1)[1].split("\n\n", 1)[0]
    paths, section = [], ""
    for row in table.splitlines()[2:]:
        section_cell, field_cell = row.split("|")[1:3]
        section = section_cell.strip().strip("`") or section
        paths += [f"{section}.{name}" for name in re.findall(r"`(\w+)`", field_cell)]
    return paths


def test_config_table_lists_every_section_field():
    sections = [path for path, _, _ in leaf_fields(ExperimentConfig) if "." in path]
    assert readme_config_paths() == sections
