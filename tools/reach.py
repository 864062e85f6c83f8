"""The lines of ``src/quasikit`` that tier-1 never runs.

Run from the root of a quasikit checkout (stdlib only; not part of CI):

    python3 tools/reach.py [pytest arguments]

It runs tier-1 (or pytest with the given arguments) with a line tracer in
every Python process that inherits ``PYTHONPATH``: a generated
``sitecustomize.py`` in a temporary directory, put first on that path,
starts ``sys.settrace`` at interpreter start-up and writes the lines that
its process ran at exit.  A subprocess that a test starts with a
``PYTHONPATH`` of its own does not load it and is not traced.  Then it
prints every executable line (a line of some code object compiled from
the file) that no process ran, and their count.  Exit code 0 whether or
not lines are left, 2 when pytest could not run.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quasikit"
TIER1 = ["-q", "--continue-on-collection-errors"]

SITECUSTOMIZE = """\
import atexit, os, sys, threading

_PACKAGE = {package!r} + os.sep
_OUT = {out!r}
_ran = set()


def _line(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(_PACKAGE) else None


@atexit.register
def _write():
    sys.settrace(None)
    with open(os.path.join(_OUT, f"{{os.getpid()}}.txt"), "a", encoding="utf-8") as handle:
        handle.writelines(f"{{name}}:{{line}}\\n" for name, line in _ran)


sys.settrace(_call)
threading.settrace(_call)
"""


def executable_lines(path: Path) -> set[int]:
    """The source line numbers of every code object compiled from ``path``."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "ran")
        out.mkdir()
        Path(tmp, "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(package=str(PACKAGE), out=str(out)), encoding="utf-8"
        )
        path = filter(None, [tmp, str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        res = subprocess.run([sys.executable, "-m", "pytest", *(argv or TIER1)], cwd=ROOT, env=env)
        if res.returncode not in (0, 1):
            print(f"reach: pytest exited {res.returncode}", file=sys.stderr)
            return 2
        ran: dict[str, set[int]] = {}
        for record in out.iterdir():
            for entry in record.read_text(encoding="utf-8").splitlines():
                name, line = entry.rsplit(":", 1)
                ran.setdefault(name, set()).add(int(line))
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        source = path.read_text(encoding="utf-8").splitlines()
        total += len(lines)
        for line in sorted(lines - ran.get(str(path), set())):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines of src/quasikit unreached "
          "(subprocesses that set their own PYTHONPATH are not traced)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
