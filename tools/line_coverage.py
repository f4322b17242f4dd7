"""List every line of an nlwave function that the test suite never runs.

Usage: python tools/line_coverage.py [PYTEST_ARGS...]

Runs ``pytest tests`` (or pytest with the given arguments) in this process
under the standard library's ``trace`` module, counting lines outside the
interpreter's own directories.  Each ``src/nlwave/*.py`` is then compiled
afresh, and every line of each function in it (``co_lines()``) that the run
never counted is printed as ``path:line``.  Code reached only in a child
process, such as the CLI tests' ``python -m nlwave``, is not counted.  Prints
``<n> function lines never ran`` and exits 1 if n is not 0 or pytest failed.
"""

import glob
import inspect
import os
import sys
import trace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "nlwave")


def function_lines(path: str) -> set:
    """Line numbers of the functions compiled from ``path``: each ``def`` or
    lambda and the comprehensions in it, but not a module or class body or a
    comprehension in one, which run at import."""
    with open(path) as fh:
        todo = [(compile(fh.read(), path, "exec"), False)]
    lines = set()
    while todo:
        code, in_function = todo.pop()
        # a def or a lambda has its own locals; so has a comprehension, named "<listcomp>" etc.
        if code.co_flags & inspect.CO_NEWLOCALS and (
                code.co_name == "<lambda>" or not code.co_name.startswith("<")):
            in_function = True
        if in_function:
            lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend((c, in_function) for c in code.co_consts if inspect.iscode(c))
    return lines


def main(argv) -> int:
    os.chdir(ROOT)
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    status = tracer.runfunc(pytest.main, argv or ["tests"])
    counted = set(tracer.results().counts)
    missing = [(path, line) for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
               for line in sorted(function_lines(path)) if (path, line) not in counted]
    for path, line in missing:
        print(f"{os.path.relpath(path, ROOT)}:{line}")
    print(f"{len(missing)} function lines never ran")
    return 1 if missing or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
