"""The README's library quick start and CLI examples run as written against the current API."""

import re
from pathlib import Path

from ldscheme.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def _quick_start_blocks() -> list:
    blocks = re.findall(r"```python\n(.*?)```", _section("Library quick start"), re.DOTALL)
    assert blocks, "no python block under '## Library quick start'"
    return blocks


def test_readme_quick_start_runs():
    # the quick start and the custom-model example, each in a fresh namespace
    for block in _quick_start_blocks():
        exec(compile(block, str(README), "exec"), {"__name__": "readme_quick_start"})


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    section = _section("Command line")
    sim = re.search(r"with `sim\.json`:\n\n```json\n(.*?)```", section, re.DOTALL)
    rate = re.search(r"cat > rate\.json <<'JSON'\n(.*?\n)JSON\n", section, re.DOTALL)
    commands = re.findall(r"^python -m ldscheme (.+)$", section, re.MULTILINE)
    assert sim and rate, "the sim.json or rate.json example is missing under '## Command line'"
    assert [c.split()[0] for c in commands] == ["simulate", "verify-rate"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sim.json").write_text(sim.group(1))
    (tmp_path / "rate.json").write_text(rate.group(1))
    for command in commands:
        assert main(command.split()) == 0, command


def test_readme_verify_ode_example_runs(tmp_path, monkeypatch):
    section = _section("Scripts")
    ode = re.search(r"cat > ode\.json <<'JSON'\n(.*?\n)JSON\n", section, re.DOTALL)
    commands = re.findall(r"^python -m ldscheme (.+)$", section, re.MULTILINE)
    assert ode, "the ode.json example is missing under '## Scripts'"
    assert [c.split()[0] for c in commands] == ["verify-ode"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ode.json").write_text(ode.group(1))
    assert main(commands[0].split()) == 0
