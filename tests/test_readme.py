"""The README's library quick start runs as written against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under '## Library quick start'"
    return match.group(1)


def test_readme_quick_start_runs():
    exec(compile(_quick_start_block(), str(README), "exec"), {"__name__": "readme_quick_start"})
