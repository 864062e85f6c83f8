"""The parser's text: ``--help`` and one unknown argument at each of the 19
parser levels (``quasikit``, its 5 groups and its 13 commands), against
``golden/cli-help.txt``.

Each section of the golden file is the command line, then its exit code
and the stream its text went to, then the text.  argparse wraps help at the
width that COLUMNS gives, so every case runs at COLUMNS=80.  Regenerate the
file only for a deliberate change of the parser's text:
``PYTHONPATH=src:tests python -c 'import test_cli_help; test_cli_help.write_golden()'``
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from quasikit.cli import dispatch

GOLDEN = Path(__file__).parent / "golden" / "cli-help.txt"

LEVELS = [
    [],
    ["seq"], ["seq", "make"], ["seq", "regularize"], ["seq", "analyze"],
    ["bang"], ["bang", "norm"], ["bang", "distance"],
    ["gont"], ["gont", "build"], ["gont", "eval"], ["gont", "check"],
    ["lab"], ["lab", "envelope"], ["lab", "monotonic"], ["lab", "spacing"],
    ["weight"], ["weight", "analyze"], ["weight", "check"],
]
CASES = [(*level, arg) for level in LEVELS for arg in ("--help", "--bogus")]


def section(argv) -> str:
    """The golden section of one command line: ``--help`` exits 0 with its
    text on stdout, a usage error exits 2 with its text on stderr, and the
    other stream stays empty."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(list(argv))
    stream, text, other = ("stdout", out, err) if code == 0 else ("stderr", err, out)
    assert other.getvalue() == ""
    return f"$ quasikit {' '.join(argv)}\n[exit {code}, {stream}]\n{text.getvalue()}"


def golden_sections() -> dict[str, str]:
    """The golden file's sections, by their command line."""
    parts = GOLDEN.read_text(encoding="utf-8").split("$ quasikit ")[1:]
    return {part.split("\n", 1)[0]: "$ quasikit " + part for part in parts}


def write_golden() -> None:
    os.environ["COLUMNS"] = "80"
    GOLDEN.write_text("".join(map(section, CASES)), encoding="utf-8")


def test_golden_holds_each_case_once():
    assert list(golden_sections()) == [" ".join(case) for case in CASES]


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_parser_text_matches_golden(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert section(argv) == golden_sections()[" ".join(argv)]
