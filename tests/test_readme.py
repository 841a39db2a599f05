"""The README's python examples and configuration block match the package."""

import re
import typing
from dataclasses import fields
from pathlib import Path

import yaml

from vortexlab.config import _RUN_FIELDS, _TOP_KEYS, MODEL_SECTIONS, RunConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_quick_start_runs(capsys):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    masses = capsys.readouterr().out.splitlines()[0]
    # The quick start prints the two curvature masses, near 1 and 2.
    values = [float(v) for v in masses.strip("[]").split(",")]
    assert [round(v) for v in values] == [1, 2]


def section_type(key: str) -> type:
    """The type a top-level config key is read as."""
    if key in MODEL_SECTIONS:
        return MODEL_SECTIONS[key]
    hint = typing.get_type_hints(RunConfig)[key]
    return next((a for a in typing.get_args(hint) if a is not type(None)), hint)


def test_readme_configuration_block_matches_the_schema():
    # Each section shows exactly its type's fields, so a removed or renamed
    # key cannot leave the README stale.
    section = README.read_text(encoding="utf-8").split("\n## Configuration\n", 1)[1]
    block = re.search(r"^```yaml\n(.*?)^```", section, flags=re.MULTILINE | re.DOTALL)
    tree = yaml.safe_load(block.group(1))
    assert set(tree) == set(_TOP_KEYS)
    for key, value in tree.items():
        if not isinstance(value, dict):
            continue
        names = {f.name for f in fields(section_type(key))}
        if key in MODEL_SECTIONS:
            names -= set(_RUN_FIELDS)
        assert set(value) == names, key
