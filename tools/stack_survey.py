"""Draw random tail-kernel stacks and compare each row with its own run.

Usage: python tools/stack_survey.py ROOT [--draws N] [--band LO HI] [--seed S]

Runs against ``ROOT/src``.  Each draw is drawn like the tier-1 stack property
(``TestStack::test_random_stack_rows_match_their_own_runs``): a tail kernel
``Re(a e^{lambda |x|})`` with ``|a|`` in [0.1, 2] and ``Re lambda`` in
[-10, -0.01], half of them real (float ``a`` and ``lambda``, as bbm's) and
half complex with ``Im lambda`` in [-10, 10], a mesh size h with ``h |Re
lambda|`` in the band, 1-3 polynomial terms ``c u^p`` (p in 1..5, |c| <= 3),
2-4 distinct N in 1..120, states uniform in [-0.5, 0.5], ``t_end`` in
[0.4, 0.6] and one snapshot in [0.1, 0.9] t_end.  A draw whose own runs blow
up or fail a step is skipped.  Each other draw is one stack on the widest
grid; a row is bit-identical when its times, states and step counts equal
its own run's exactly.  Prints ``<stacks>, <bit-identical>, <rows whose
counts differ>`` and exits 1 if any row differs from its own run.
"""

import argparse
import os
import sys

import numpy as np


def counts(traj):
    return traj.accepted_steps, traj.rejected_steps, traj.rhs_calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("root")
    parser.add_argument("--draws", type=int, default=100)
    parser.add_argument("--band", type=float, nargs=2, default=(6.0, 8.0), metavar=("LO", "HI"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    from nlwave import (BlowUpError, Grid, Kernel, Nonlinearity, SampledSequence,
                        StepFailureError, build_system, integrate)

    rng = np.random.default_rng(args.seed)
    stacks = identical = count_rows = 0
    for _ in range(args.draws):
        size, rate = rng.uniform(0.1, 2.0), rng.uniform(0.01, 10.0)
        if rng.random() < 0.5:
            a, lam = size * rng.choice((-1.0, 1.0)), -rate
        else:
            a = size * np.exp(1j * rng.uniform(-np.pi, np.pi))
            lam = complex(-rate, rng.uniform(-10.0, 10.0))
        kernel, h = Kernel(tail=(a, lam)), rng.uniform(*args.band) / rate
        f = Nonlinearity(tuple((int(rng.integers(1, 6)), int(rng.integers(-30, 31)) / 10)
                               for _ in range(rng.integers(1, 4))))
        ns = np.sort(rng.choice(np.arange(1, 121), rng.integers(2, 5), replace=False))
        inits = [SampledSequence(Grid(h, int(n)), rng.uniform(-0.5, 0.5, 2 * n + 1))
                 for n in ns]
        t_end = rng.uniform(0.4, 0.6)
        snapshots = [rng.uniform(0.1, 0.9) * t_end]
        try:
            owns = [integrate(build_system(kernel, init.grid, f), init, t_end, snapshots)
                    for init in inits]
        except (BlowUpError, StepFailureError):
            continue
        stack = integrate(build_system(kernel, inits[-1].grid, f), inits, t_end, snapshots)
        differ = sum(counts(traj) != counts(own) for traj, own in zip(stack, owns))
        stacks, count_rows = stacks + 1, count_rows + differ
        identical += not differ and all(
            traj.times == own.times and all(np.array_equal(s.values, o.values)
                                            for s, o in zip(traj.states, own.states))
            for traj, own in zip(stack, owns))
    print(f"{stacks}, {identical}, {count_rows}")
    return 0 if identical == stacks else 1


if __name__ == "__main__":
    sys.exit(main())
