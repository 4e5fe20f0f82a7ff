"""Every command in the README's "Command line" block runs and exits 0,
so a removed subcommand or option cannot stay documented."""

import re
import shlex
from pathlib import Path

from reconkit import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n\n```\n(.*?)^```", text, re.M | re.S)
    lines = [shlex.split(line, comments=True) for line in block.group(1).splitlines()]
    return [argv[1:] for argv in lines if argv and argv[0] == "reconkit"]


def test_readme_commands_exit_0(tmp_path, monkeypatch):
    # in order, in one directory, so `store scan` reads what the sweeps wrote
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("RECONKIT_STORE", str(tmp_path / "store.txt"))
    commands = readme_commands()
    assert len(commands) >= 12
    assert [argv for argv in commands if cli.main(argv) != 0] == []
    assert (tmp_path / "store.txt").exists()
