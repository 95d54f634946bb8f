"""The README's examples run as written.

The library quick start is executed, and every ``noisyqfi`` line of the
"Command line" block goes through ``cli.main`` in-process, with the README's
``ini`` block written out as the ``run.cfg`` that the config line reads.
Each command exits 0 and prints its CSV header (the ``--out`` line writes it
to its file instead).
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from noisyqfi.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

HEADERS = {
    "qfi": "lambda,r,n,exact,series,h0,h1,h2,h3,h4",
    "bounds": "n,lambda,lower,canonical,grid_max,upper,status",
    "measure": "n,lambda,r,cfi,qfi,ratio",
    "escher": "lambda,r,escher_bound,exact_qfi,slack",
    "fit-orders": "n,lambda,order,fitted,closed_form,rel_error",
    "validate-channel": "lambda,status,violations",
}


def _block(lang: str, after: str = "") -> str:
    """The first ``lang`` code block of the README after the text ``after``."""
    section = README[README.index(after):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


COMMAND_LINES = [line for line in _block("sh", "## Command line").splitlines()
                 if line.startswith("noisyqfi ")]


def test_library_quick_start_runs(capsys):
    snippet = _block("python", "## Library quick start")
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == snippet.count("print(")


def test_command_line_block_covers_every_command():
    assert sorted({shlex.split(line)[1] for line in COMMAND_LINES}) == sorted(HEADERS)


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_command_line_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(_block("ini"), encoding="utf-8")
    argv = shlex.split(line)[1:]
    assert main(argv) == EXIT_OK, capsys.readouterr().err
    out = capsys.readouterr().out
    if "--out" in argv:
        assert out == ""
        out = (tmp_path / argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
    assert out.splitlines()[0] == HEADERS[argv[0]]
