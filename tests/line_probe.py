"""List the lines of okc's functions that no digest command runs.

    python tests/line_probe.py

It traces `print_digests()` of `tests/output_digests.py`, whose output it
discards, and prints `module:line: text` for each line in a function body
of `src/okc` that no digest command ran.  The trace is set before `okc`
is imported, and `src` is put first on the path.  Code that no `okc`
command runs belongs under `tests/`, so each line listed is reached only
by records built in code, or it waits for a digest input that reaches
it.  The name does not start with `test_`, so pytest does not collect it.
"""

from __future__ import annotations

import inspect
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import CodeType

TESTS = Path(__file__).resolve().parent
OKC = TESTS.parent / "src" / "okc"
sys.path.insert(0, str(OKC.parent))

ran: set[tuple[str, int]] = set()  # (file, line) of each line a traced frame ran


def _trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(str(OKC)):
        return None
    ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace


def _body_lines(code: CodeType) -> set[int]:
    """The lines of every function body compiled into `code`, without the
    lines that define a function."""
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if isinstance(c, CodeType)]
        if code.co_flags & inspect.CO_NEWLOCALS:
            lines.update(n for *_, n in code.co_lines() if n and n != code.co_firstlineno)
    return lines


def main() -> None:
    sys.settrace(_trace)
    import output_digests  # noqa: E402  (imports okc, traced)

    with open(os.devnull, "w") as devnull, redirect_stdout(devnull):
        output_digests.print_digests()
    sys.settrace(None)
    for path in sorted(OKC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        code = compile(text, str(path), "exec", dont_inherit=True)
        source = text.splitlines()
        for n in sorted(_body_lines(code) - {n for file, n in ran if file == str(path)}):
            print(f"okc.{path.stem}:{n}: {source[n - 1].strip()}")


if __name__ == "__main__":
    main()
