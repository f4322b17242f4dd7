"""Known mutants of ``nlwave/system.py``, each of which a tier-1 check must catch.

Each mutant changes one snippet of the module's source.  The snippet must
occur exactly once, so that a refactor fails here loudly instead of testing
nothing.  The mutated module is compiled in memory, with no file written,
and the mutated method is patched into its class for the one test.
"""

import inspect

import pytest

import test_system
from nlwave import system
from nlwave.system import Nonlinearity, TruncatedSystem

# name: (method, snippet, mutated snippet, how the gap check fails)
MUTANTS = {
    # the window 2N..4N read one node early: every gap is of order the output
    "window": ("rhs_values", "conv[:, 2 * n : 4 * n + 1]", "conv[:, 2 * n - 1 : 4 * n]",
               AssertionError),
    # a cycle of 4N at a tight N holds no entry 4N, so the window comes up a
    # node short of the state it is written into
    "cycle": ("__post_init__", "nfft = _fft_length(n)\n", "nfft = _fft_length(n) - 1\n",
              ValueError),
}

# name: (class, method, snippet, mutated snippet, the check that must fail)
REUSE_MUTANTS = {
    # a multi-block grid's padding keeps the last call's scan: where -h c < 0 the
    # mirrored right half's leading padding is -0.0, so a state of zeros ending in
    # -0.0 comes out -0.0 at its last node where a fresh system gives +0.0
    "scan-padding": (TruncatedSystem, "rhs_values",
                     "sums[:, 2 * n + 1:, 0] = sums[:, :-2 * n - 1, 1] = 0.0", "pass",
                     lambda: test_system.check_scratch_reuse((-1.3, -2.7), 7.9 / 2.7, 200)),
    # the leading-1 start without its guard: u^2 at -0.0 reads -0.0 + 0.0 = +0.0,
    # so f(-0.0) comes out -0.0 where plain Horner gives +0.0
    "horner-guard": (Nonlinearity, "evaluate_values", "if top == 1.0 and low and low[-1]:",
                     "if top == 1.0 and low:", test_system.check_horner_leading_one),
}


def patch_mutant(monkeypatch, owner, method, snippet, mutated):
    source = inspect.getsource(system)
    assert source.count(snippet) == 1
    namespace = {"__name__": "nlwave._mutant", "__package__": "nlwave"}
    exec(compile(source.replace(snippet, mutated), system.__file__, "exec"), namespace)
    monkeypatch.setattr(owner, method, getattr(namespace[owner.__name__], method))


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_fft_mutant_fails_the_tight_cycle_check(name, monkeypatch):
    method, snippet, mutated, failure = MUTANTS[name]
    patch_mutant(monkeypatch, TruncatedSystem, method, snippet, mutated)
    with pytest.raises(failure):
        assert max(gap for _, gap in test_system.tight_cycle_gaps()) < 1e-12


@pytest.mark.parametrize("name", sorted(REUSE_MUTANTS))
def test_fixed_cost_mutant_fails_its_bit_identity_check(name, monkeypatch):
    owner, method, snippet, mutated, check = REUSE_MUTANTS[name]
    patch_mutant(monkeypatch, owner, method, snippet, mutated)
    with pytest.raises(AssertionError):
        check()
