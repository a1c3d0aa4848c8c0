"""The README's command lines and library example run as written."""
import shlex
from pathlib import Path

import pytest

from clams import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, fence: str) -> str:
    """The first ``fence`` code block after the markdown heading ``heading``."""
    after = README[README.index(f"\n## {heading}\n"):]
    start = after.index(f"```{fence}\n") + len(fence) + 4
    return after[start : after.index("```", start)]


COMMANDS = [shlex.split(line) for line in _block("Command line", "sh").replace("\\\n", " ").splitlines()]


def test_command_block_shows_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == {"clams"}
    assert sorted(argv[1] for argv in COMMANDS) == sorted(cli._COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[1] for argv in COMMANDS])
def test_readme_command_runs(tmp_path, argv):
    args = [str(tmp_path) if arg == "out/" else arg for arg in argv[1:]]
    assert "--out" in args and str(tmp_path) in args
    assert cli.main(args) == 0
    assert any(tmp_path.iterdir())


def test_readme_library_example_runs(capsys):
    exec(compile(_block("Library example", "python"), "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
