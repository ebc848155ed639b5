"""README's CLI examples, run through ``aqgv.cli.run``.

Every ``$ aqgv ...`` line in a ```text block is one command (a trailing
backslash continues it on the next line, and a trailing ``# ...`` is a
comment); the non-blank lines after it, up to the next command, are its
shown output.  Each block runs in order in a fresh working directory, so
a later command can read a file an earlier one wrote.  Every command must
exit 0; a shown output must match stdout byte for byte, and an excerpt
with ``...`` must match up to the ``...``.
"""

import re
import shlex
from pathlib import Path

import pytest

from aqgv.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list[list[tuple[list[str], str]]]:
    """One list of (argv, shown stdout) per ```text block with commands."""
    blocks = re.findall(r"^```text\n(.*?)^```", README.read_text(), re.S | re.M)
    examples = []
    for block in blocks:
        commands: list[tuple[list[str], list[str]]] = []
        pending = ""
        for line in block.splitlines():
            if pending or line.startswith("$ aqgv "):
                pending += line.rstrip("\\").strip() + " "
                if line.endswith("\\"):
                    continue
                command = re.sub(r"\s#.*$", "", pending[len("$ aqgv "):])
                commands.append((shlex.split(command), []))
                pending = ""
            elif commands and line.strip():
                commands[-1][1].append(line)
        if commands:
            examples.append([(argv, "".join(f"{line}\n" for line in shown)) for argv, shown in commands])
    return examples


EXAMPLES = readme_examples()


def test_readme_has_cli_examples():
    assert sum(len(block) for block in EXAMPLES) >= 8


@pytest.mark.parametrize("block", EXAMPLES, ids=[" ".join(block[0][0][:2]) for block in EXAMPLES])
def test_readme_cli_example(block, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, shown in block:
        result = run(argv)
        out = capsys.readouterr().out
        assert result.exit_code == 0, argv
        if "..." in shown:
            assert out.startswith(shown.split("...")[0]), argv
        elif shown:
            assert out == shown, argv
