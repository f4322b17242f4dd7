"""Time one right-hand side per call on two source trees, interleaved.

Usage: python tools/rhs_timing.py PARENT_ROOT [CHANGE_ROOT] [--repeats R] [--calls C]

Each root is a checkout of this repository; CHANGE_ROOT defaults to the one
holding this script.  Both trees' ``nlwave`` packages are imported into this
one process, and ``TruncatedSystem.rhs_values`` is timed at the shapes the
shipped configs run: bbm at N = 75, 120, 150, 300 and 600 and its 11-row
truncation stack (h = 0.1, N <= 400), and rosenau at N = 60, 120, 240 and 280
and its 9-row truncation stack (h = 0.05, N <= 280).  A stack's state is one
``(rows, 2N+1)`` array, as ``integrate`` passes it.  Each repeat times C
calls on one tree, then on the other, so drifts in the machine's speed hit
both alike; a tree's figure is its best repeat.  Prints a Markdown table of
microseconds per call.
"""

import argparse
import importlib
import os
import sys
import time

import numpy as np

# (label, kernel, h, N, rows): each bbm and rosenau shape the shipped configs run
CASES = ([(f"bbm N = {n}", "bbm", h, n, 1)
          for n, h in ((75, 0.4), (120, 0.25), (150, 0.2), (300, 0.1), (600, 0.05))]
         + [("bbm 11-row stack", "bbm", 0.1, 400, 11)]
         + [(f"rosenau N = {n}", "rosenau", h, n, 1)
            for n, h in ((60, 0.2), (120, 0.1), (240, 0.05), (280, 0.05))]
         + [("rosenau 9-row stack", "rosenau", 0.05, 280, 9)])


def load(root: str):
    """The ``nlwave`` package of ``root/src``, imported afresh."""
    for name in [m for m in sys.modules if m.split(".")[0] == "nlwave"]:
        del sys.modules[name]
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    try:
        return importlib.import_module("nlwave")
    finally:
        sys.path.pop(0)


def per_call(system, v, out, calls: int) -> float:
    """Seconds per ``rhs_values`` call, over ``calls`` calls."""
    rhs = system.rhs_values
    start = time.perf_counter()
    for _ in range(calls):
        rhs(v, out=out)
    return (time.perf_counter() - start) / calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?",
                        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--calls", type=int, default=2000)
    args = parser.parse_args(argv)
    trees = [load(args.parent), load(args.change)]
    rng = np.random.default_rng(0)
    print("| Case | Parent µs | Change µs | Change / parent |")
    print("|---|---|---|---|")
    for label, kind, h, n, rows in CASES:
        v = rng.uniform(-0.5, 0.5, (rows, 2 * n + 1))
        out = np.empty_like(v)
        systems = []
        for nl in trees:
            kernel, f = {"bbm": (nl.bbm_kernel, nl.Nonlinearity.bbm),
                         "rosenau": (nl.rosenau_kernel, nl.Nonlinearity.rosenau)}[kind]
            systems.append(nl.build_system(kernel(), nl.Grid(h, n), f()))
        best = [np.inf, np.inf]
        for _ in range(args.repeats):
            for i, system in enumerate(systems):
                best[i] = min(best[i], per_call(system, v, out, args.calls))
        print(f"| {label} | {best[0] * 1e6:.2f} | {best[1] * 1e6:.2f} | {best[1] / best[0]:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
