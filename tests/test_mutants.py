"""Known mutants of the FFT path, each of which a tier-1 check must catch.

Each mutant changes one snippet of ``nlwave/system.py``'s source.  The
snippet must occur exactly once, so that a refactor fails here loudly
instead of testing nothing.  The mutated module is compiled in memory,
with no file written, and the mutated method is patched into
``TruncatedSystem`` for the one test.
"""

import inspect

import pytest

import test_system
from nlwave import system
from nlwave.system import TruncatedSystem

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


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_fft_mutant_fails_the_tight_cycle_check(name, monkeypatch):
    method, snippet, mutated, failure = MUTANTS[name]
    source = inspect.getsource(system)
    assert source.count(snippet) == 1
    namespace = {"__name__": "nlwave._mutant", "__package__": "nlwave"}
    exec(compile(source.replace(snippet, mutated), system.__file__, "exec"), namespace)
    monkeypatch.setattr(TruncatedSystem, method, getattr(namespace["TruncatedSystem"], method))
    with pytest.raises(failure):
        assert max(gap for _, gap in test_system.tight_cycle_gaps()) < 1e-12
