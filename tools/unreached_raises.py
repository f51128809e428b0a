"""A pytest plugin that lists every ``raise`` in ``src/sestrack`` no test runs.

    PYTHONPATH=src:tools python -m pytest -q -p unreached_raises

It needs no coverage tool: on import it sets ``sys.settrace`` and
``threading.settrace`` to a tracer that records the lines executed in the
package's own modules.  At the end of the session it parses each module
and prints every ``ast.Raise`` statement none of whose lines ran, and the
run exits 1 if it prints any.  ``ALLOWED`` exempts a statement by its source
text, not by its line number, so an edit elsewhere in the module cannot
shift an exemption onto another line.  Run it over the whole suite: a
subset of the tests leaves more unreached.

Lines that run only in a child process are not seen: a Monte Carlo block
run by a forked worker of ``experiments._fork_map`` records into the
child's copy of the table, which dies with it, and a ``python -m sestrack``
subprocess is not traced at all.  No ``raise`` lives only on the forked
path; one reached only through a subprocess test is listed.
"""

import ast
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sestrack"
# (module, source text) of each raise no test can reach
ALLOWED = {
    # numpy is installed wherever the tests run
    ("_numpy.py", "raise ModuleNotFoundError(\"No module named 'numpy'\", name=\"numpy\")"),
}

_executed: dict[str, set[int]] = {}  # module file name -> line numbers run
_inside: dict[str, bool] = {}  # co_filename -> whether it is a package module
_found: list[str] = []  # what the session end reports


def _lines(frame, event, arg):
    if event == "line":
        _executed[frame.f_code.co_filename].add(frame.f_lineno)
    return _lines


def _calls(frame, event, arg):
    filename = frame.f_code.co_filename
    if filename is None:  # frames torn down at interpreter shutdown
        return None
    inside = _inside.get(filename)
    if inside is None:
        inside = _inside[filename] = Path(filename).resolve().parent == PACKAGE
        if inside:
            _executed.setdefault(filename, set())
    return _lines if inside else None


sys.settrace(_calls)
threading.settrace(_calls)


def unreached() -> list[str]:
    """``path:line: source`` of each raise in the package no traced line reached."""
    run: dict[Path, set[int]] = {}
    for filename, lines in _executed.items():
        run.setdefault(Path(filename).resolve(), set()).update(lines)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = run.get(path, set())
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Raise):
                continue
            text = ast.get_source_segment(source, node)
            if (path.name, text) not in ALLOWED and lines.isdisjoint(
                range(node.lineno, node.end_lineno + 1)
            ):
                found.append((path.relative_to(PACKAGE.parents[1]), node.lineno, text))
    return [f"{path}:{line}: {text.splitlines()[0]}" for path, line, text in sorted(found)]


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    _found.extend(unreached())
    if _found:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    terminalreporter.write_sep("-", f"raise statements no test reached: {len(_found)}")
    for entry in _found:
        terminalreporter.write_line(entry)
