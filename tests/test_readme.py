"""The README's python examples run against the current package."""

import re
from pathlib import Path

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
