"""README's CLI examples, run through ``aqgv.cli.run``.

Every ``$ aqgv ...`` line in a ```text block is one command (a trailing
backslash continues it on the next line, and a trailing ``# ...`` is a
comment); the non-blank lines after it, up to the next command, are its
shown output.  Each block runs in order in a fresh working directory, so
a later command can read a file an earlier one wrote.  Every command must
exit 0; a shown output must match stdout byte for byte, and an excerpt
with ``...`` must match up to the ``...``.

Every ```python block runs as a script, and what it prints must match the
line pinned for it in PYTHON_OUTPUTS.
"""

import re
import shlex
from pathlib import Path

import pytest

from aqgv import best_css_params, gv_witness_search, max_k_stab
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


PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
PYTHON_OUTPUTS = ["1 DistancePair(dx=2, dz=2)\n"]   # "Library use"


def test_readme_python_blocks_print_their_pinned_lines(capsys):
    assert len(PYTHON_BLOCKS) == len(PYTHON_OUTPUTS)
    for block, shown in zip(PYTHON_BLOCKS, PYTHON_OUTPUTS):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
        assert capsys.readouterr().out == shown


# "Witnesses at the bound's best parameters": kind, n, d, parameters, seed, trial, checked (dx, dz)
WITNESS_ROWS = re.findall(r"^\| (css|stab) \| (\d+) \| (\d+) \| ([^|]+?) \| *(\d*) *\| *(\w*) *\| *([^|]*?) *\|$",
                          README.read_text(), re.M)


def test_readme_has_one_witness_row_per_target_cell():
    assert [(kind, int(n), int(d)) for kind, n, d, *_ in WITNESS_ROWS] == [
        (kind, n, d) for kind in ("css", "stab") for n in (40, 60, 80, 100) for d in (3, 4, 5, 6)]


@pytest.mark.parametrize("row", [row for row in WITNESS_ROWS if row[1] == "40"], ids=lambda row: "-".join(row[:3]))
def test_readme_witness_rows_at_n40_rerun(row):
    kind, n, d, params, seed, trial, checked = row
    n, d = int(n), int(d)
    best = best_css_params(n, 2, d, d) if kind == "css" else max_k_stab(n, 2, d, d)
    if best is None:
        assert (params, seed, trial, checked) == ("none feasible", "", "", "")
        return
    kwargs = dict(zip(("k1", "k2"), best)) if kind == "css" else {"k": best}
    assert params == ", ".join(f"{key} = {value}" for key, value in kwargs.items())
    hit = gv_witness_search(kind, q=2, n=n, dx=d, dz=d, trials=20, seed=int(seed), **kwargs)
    assert hit is not None and hit.trial_index == int(trial)
    assert checked == f"({hit.distances.dx}, {hit.distances.dz})"
