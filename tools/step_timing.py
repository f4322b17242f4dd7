"""Time ``integrate``'s own work per step, outside the right-hand sides, on two source trees.

Usage: python tools/step_timing.py PARENT_ROOT [CHANGE_ROOT] [--repeats R]

Each root is a checkout of this repository; CHANGE_ROOT defaults to the one
holding this script.  Both trees' ``nlwave`` packages are imported into this
one process.  Each case runs ``integrate`` on a shipped config's problem, with
one snapshot at t_end / 2, through a stand-in system whose ``rhs_values`` is
the real one between two ``perf_counter`` calls; the run's time less the time
inside those calls is the integrator's own (stage sums, norms, step control,
snapshots).  Cases: bbm N = 120 (``bbm_profile.ini``), rosenau N = 240
(``rosenau_profile.ini``), and the two truncation stacks (``bbm_truncation.ini``,
11 rows, and ``rosenau_truncation.ini``, 9 rows).  A run's steps are its
longest row's step attempts, which the lockstep loop makes for every row.
Each repeat runs one tree, then the other, so drifts in the machine's speed
hit both alike; a tree's figure is its best repeat.  Prints a Markdown table
of microseconds per step outside the right-hand sides.
"""

import argparse
import importlib
import os
import sys
import time

from rhs_timing import load

# (label, config, whether its n_list runs as one stack)
CASES = [("bbm N = 120", "bbm_profile.ini", False),
         ("rosenau N = 240", "rosenau_profile.ini", False),
         ("bbm 11-row stack", "bbm_truncation.ini", True),
         ("rosenau 9-row stack", "rosenau_truncation.ini", True)]


class TimedSystem:
    """A system whose right-hand sides add their time to ``rhs_s``."""

    def __init__(self, system):
        self.system, self.grid = system, system.grid
        self.blow_up_threshold = system.blow_up_threshold
        self.rhs_s = 0.0

    def rhs_values(self, v, out=None):
        start = time.perf_counter()
        out = self.system.rhs_values(v, out)
        self.rhs_s += time.perf_counter() - start
        return out


def load_with_config(root: str):
    """``load(root)``, with its ``config`` module imported while it is the loaded package."""
    nl = load(root)
    importlib.import_module("nlwave.config")
    return nl


def run(nl, path: str, stack: bool):
    """One timed run: (seconds outside the right-hand sides, step attempts)."""
    cfg = nl.config.load_run_config(path)
    grids = cfg.sweep_grids(n_values=cfg.n_list) if stack else [cfg.grid()]
    inits = [nl.initial_data(cfg.problem.wave, grid) for grid in grids]
    timed = TimedSystem(nl.build_system(cfg.problem.kernel, grids[-1], cfg.problem.nonlinearity))
    start = time.perf_counter()
    trajs = nl.integrate(timed, inits, cfg.t_end, (cfg.t_end / 2,), cfg.integrator)
    wall = time.perf_counter() - start
    return wall - timed.rhs_s, max(t.accepted_steps + t.rejected_steps for t in trajs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?",
                        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args(argv)
    roots = [args.parent, args.change]
    trees = [load_with_config(root) for root in roots]
    print("| Case | Steps | Parent µs | Change µs | Change / parent |")
    print("|---|---|---|---|---|")
    for label, name, stack in CASES:
        best, steps = [float("inf")] * 2, set()
        for _ in range(args.repeats):
            for i, (nl, root) in enumerate(zip(trees, roots)):
                outside, attempts = run(nl, os.path.join(root, "configs", name), stack)
                best[i] = min(best[i], outside / attempts)
                steps.add(attempts)
        steps = "/".join(map(str, sorted(steps)))  # one figure unless the trees step differently
        print(f"| {label} | {steps} | {best[0] * 1e6:.1f} | {best[1] * 1e6:.1f} "
              f"| {best[1] / best[0]:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
