"""Truncated-system assembly, right-hand side and conserved-mass diagnostics."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nlwave import (
    Grid,
    Kernel,
    Nonlinearity,
    SampledSequence,
    TruncatedSystem,
    bbm_kernel,
    bbm_solitary,
    build_system,
    discrete_mass,
    initial_data,
    rosenau_kernel,
    tabulated_kernel,
)
from nlwave.system import (
    DEFAULT_BLOW_UP_THRESHOLD,
    _fft_length,
    convolve_rhs_direct,
)
from oracles import as_table, boundary_flux, direct_rhs, even_kernels, nonlinearities


def rhs_oracle(stencil, h, n, g):
    """Literal truncated double sum -sum_j h Dbeta(x_i - x_j) f(v_j)."""
    out = np.zeros(2 * n + 1)
    for i in range(-n, n + 1):
        acc = 0.0
        for j in range(-n, n + 1):
            acc += stencil[i - j + 2 * n] * g[j + n]
        out[i + n] = -h * acc
    return out


def two_scan_rhs(system, v):
    """A real tail's right-hand side as two real prefix scans, the second
    leftward, in the blocks, weights and order of operations of the one
    complex scan the system runs instead, so that the two agree bit for bit."""
    n, h = system.grid.n_half, system.grid.h
    a, lam = system.tail
    c = a * np.sinh(lam * h) / h
    powers = np.exp(lam * h) ** np.arange(2 * n + 1)
    span = np.count_nonzero(abs(powers) > 1e-200)
    powers = powers[np.arange(powers.size) % span]
    g = system.nonlinearity.evaluate_values(v).reshape(-1, 2 * n + 1)
    sums = np.concatenate((g * np.stack((1.0 / powers, powers))[:, None],
                           np.zeros((2, len(g), -g.shape[1] % span))), -1)  # whole blocks
    blocks = sums.reshape(2, -1, span)
    np.add.accumulate(blocks[0], axis=-1, out=blocks[0])
    np.add.accumulate(blocks[1, :, ::-1], axis=-1, out=blocks[1, :, ::-1])
    blocks *= -h * c * np.stack((powers, 1.0 / powers))[:, None, :span]
    blocks = sums.reshape(2, len(g), -1, span)
    step = powers[:span] * np.exp(lam * h)
    blocks[0, :, 1:] += blocks[0, :, :-1, -1:] * step
    blocks[1, :, :-1] += blocks[1, :, 1:, :1] * step[::-1]
    return (sums[0, :, :2 * n + 1] - sums[1, :, :2 * n + 1]).reshape(v.shape)


def is_5_smooth(m):
    """Whether m has no prime factor above 5."""
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def tight_cycle_gaps():
    """At each N below 1000 whose 4N+1 is 5-smooth, a tent table's system and
    the gap between its FFT path and direct_rhs on a random state.  The tent
    is wider than the window, so it keeps the stencil at lag 2N, which a
    cycle one shorter would fold onto lag 0."""
    rng = np.random.default_rng(17)
    for n in (n for n in range(1, 1000) if is_5_smooth(4 * n + 1)):
        g = Grid(h=0.3, n_half=n)
        half = g.n_half * g.h
        tent = tabulated_kernel([-3 * half, 0.0, 3 * half], [0.0, 1.0, 0.0])
        fast = build_system(tent, g, Nonlinearity.bbm(1))
        v = rng.uniform(-1.0, 1.0, g.node_count)
        yield fast, np.max(np.abs(fast.rhs_values(v) - direct_rhs(fast, v)))


@st.composite
def even_systems(draw):
    """An even kernel, a tail or a table mirrored about 0, its system and a
    state seed; N from 1 to 700, on the path the system picks."""
    n = draw(st.integers(1, 700))
    kernel, h = draw(even_kernels())
    f = draw(nonlinearities)
    return kernel, build_system(kernel, Grid(h=h, n_half=n), f), draw(st.integers(0, 2**32 - 1))


def path_terms(system):
    """Magnitudes of the terms the system's path sums, over lags -2N..2N:
    h |stencil|, or on the tail path |h c w^k|, whose lag 0 is the -h c g_i
    both prefix sums carry."""
    n, h = system.grid.n_half, system.grid.h
    if system.convolution != "tail":
        return h * np.abs(system.stencil)
    a, lam = system.tail
    lags = np.abs(np.arange(-2 * n, 2 * n + 1))
    return abs(a * np.sinh(lam * h)) * np.exp(lam.real * h * lags)


def sampled_terms(system):
    """path_terms, or for a tail kernel a bound that also covers sampling
    beta = Re(a e^{lambda |x|}): exp rounds by eps |lambda x|, so lag k's
    samples are good to eps |a| e^{Re lambda (|k|-1) h} (1 + |lambda| (|k|+1) h).
    The tail path, the sampled stencil and the closed-form flux then all sum
    terms within it."""
    if system.tail is None:
        return path_terms(system)
    n, h = system.grid.n_half, system.grid.h
    a, lam = system.tail
    lags = np.abs(np.arange(-2 * n, 2 * n + 1))
    return abs(a) * np.exp(lam.real * h * (lags - 1)) * (1 + abs(lam) * h * (lags + 1))


def random_state(system, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, system.grid.node_count)


# the even-kernel properties: deterministic, and nothing written to the checkout
even_kernel_property = settings(max_examples=200, derandomize=True, database=None,
                                deadline=None)


class TestNonlinearity:
    def test_quadratic_example(self):
        f = Nonlinearity.bbm(1)
        np.testing.assert_allclose(f.evaluate_values(np.array([2.0])), [6.0])

    def test_quintic_example(self):
        f = Nonlinearity.rosenau()
        np.testing.assert_allclose(f.evaluate_values(np.array([1.0])), [3.0])

    def test_quintic_on_eleven_point_grid(self):
        f = Nonlinearity.rosenau()
        v = np.linspace(-1.0, 1.0, 11)
        expected = v - 10 * v**3 + 12 * v**5
        assert np.max(np.abs(f.evaluate_values(v) - expected)) < 1e-14

    def test_zero_maps_to_zero(self):
        for f in (Nonlinearity.bbm(1), Nonlinearity.rosenau(),
                  Nonlinearity(((4, 2.5),))):
            assert f.evaluate_values(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]

    def test_rejects_constant_term(self):
        with pytest.raises(ValueError):
            Nonlinearity(((0, 1.0),))

    def test_rejects_fractional_power(self):
        with pytest.raises(ValueError):
            Nonlinearity(((1.5, 1.0),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Nonlinearity(())

    @pytest.mark.parametrize("f", [
        *(Nonlinearity.bbm(p) for p in (1, 2, 3, 4)),
        Nonlinearity.rosenau(),
        Nonlinearity(((1, 1.0), (4, 2.0), (4, -0.5))),  # gap, repeated power
    ])
    def test_horner_matches_power_sum(self, f):
        v = np.random.default_rng(5).uniform(-1.5, 1.5, 1001)
        expected = sum(c * v**p for p, c in f.terms)
        # relative to sum |c v^p|, the size of the terms that may cancel
        scale = sum(abs(c) * np.abs(v)**p for p, c in f.terms)
        assert np.all(np.abs(f.evaluate_values(v) - expected) <= 1e-12 * scale)
        assert f.evaluate_values(np.zeros(4)).tolist() == [0.0] * 4

    def test_max_abs_on_interval(self):
        f = Nonlinearity.rosenau()
        # |f| on [-1, 1] peaks at the endpoints with |f(1)| = 3
        assert f.max_abs_on_interval(1.0) == pytest.approx(3.0, rel=1e-3)
        assert f.max_abs_on_interval(0.0) == 0.0


class TestBuildSystem:
    def test_central_lag_vanishes_for_even_kernel(self):
        system = build_system(bbm_kernel(), Grid(h=1.0, n_half=4),
                              Nonlinearity.bbm(1))
        assert system.stencil[2 * 4] == 0.0

    def test_stencil_values(self):
        h, n = 0.5, 2
        system = build_system(bbm_kernel(), Grid(h=h, n_half=n),
                              Nonlinearity.bbm(1))
        beta = bbm_kernel().evaluate
        for k in range(-2 * n, 2 * n + 1):
            expected = (beta((k + 1) * h) - beta((k - 1) * h)) / (2 * h)
            assert system.stencil[k + 2 * n] == expected

    @pytest.mark.parametrize("kernel", [
        bbm_kernel(), rosenau_kernel(),
        tabulated_kernel([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]),
        tabulated_kernel([-2.0, -0.3, 0.7, 1.5], [0.4, 1.0, 0.2, -0.5]),
    ], ids=["bbm", "rosenau", "hat", "jumps"])
    @pytest.mark.parametrize("h", [1e-4, 0.01, 0.1, 0.37, 0.93])
    def test_one_evaluation_gives_the_two_evaluation_stencil(self, kernel, h):
        n = 40
        calls = []

        def counting(x):
            calls.append(np.shape(x))
            return kernel.evaluate(x)

        system = build_system(Kernel(evaluate=counting), Grid(h=h, n_half=n),
                              Nonlinearity.bbm(1))
        assert calls == [(4 * n + 3,)]
        lags = np.arange(-2 * n, 2 * n + 1)
        two = (kernel.evaluate((lags + 1) * h)
               - kernel.evaluate((lags - 1) * h)) / (2.0 * h)
        assert np.array_equal(system.stencil, two)

    def test_weighted_norm_within_tv_bound(self):
        system = build_system(bbm_kernel(), Grid(h=0.25, n_half=120),
                              Nonlinearity.bbm(1))
        assert system.grid.h * np.sum(np.abs(system.stencil)) <= 1.0 + 1e-10

    def test_rebuilds_are_bit_identical(self):
        g = Grid(h=0.25, n_half=60)
        a = build_system(rosenau_kernel(), g, Nonlinearity.rosenau())
        b = build_system(rosenau_kernel(), g, Nonlinearity.rosenau())
        assert np.array_equal(a.stencil, b.stencil)

    def test_stencil_antisymmetry_exact(self):
        for kernel in (bbm_kernel(), rosenau_kernel()):
            system = build_system(kernel, Grid(h=0.3, n_half=50),
                                  Nonlinearity.bbm(1))
            n4 = system.stencil.size - 1
            assert np.array_equal(system.stencil, -system.stencil[::-1])
            assert system.stencil.size == n4 + 1 == 4 * 50 + 1

    @pytest.mark.parametrize("tail", [(0.5, -1.1), (0.55, -1.0),
                                      (0.5, (-1 + 1j) / math.sqrt(2))])
    def test_tail_that_disagrees_with_the_samples_is_refused(self, tail):
        # a kernel's values come from its tail or from evaluate, never both,
        # so bbm's values cannot be given with another tail
        with pytest.raises(ValueError, match="exactly one"):
            build_system(Kernel(evaluate=bbm_kernel().evaluate, tail=tail),
                         Grid(h=0.25, n_half=40), Nonlinearity.bbm(1))

    def test_fine_grid_keeps_its_tail(self):
        # at h = 1e-4 the tail path and the direct sum of the sampled
        # stencil, which rounds by about eps |a| / h, still agree to 1e-12
        g = Grid(h=1e-4, n_half=250)
        v = np.random.default_rng(4).uniform(-1.0, 1.0, g.node_count)
        for kernel in (bbm_kernel(), rosenau_kernel()):
            tail = build_system(kernel, g, Nonlinearity.bbm(1))
            assert tail.convolution == "tail"
            assert np.max(np.abs(tail.rhs_values(v) - direct_rhs(tail, v))) < 1e-12

    def test_kernel_not_a_number_at_one_lag_refused(self):
        # beta is NaN at x = h alone of the 4N+3 nodes it is sampled on
        kernel = Kernel(evaluate=lambda x: np.where(np.arange(x.size) == 6, np.nan, x * x))
        with pytest.raises(ValueError, match="stencil entries must be finite"):
            build_system(kernel, Grid(h=0.5, n_half=2), Nonlinearity.bbm(1))

    def test_finite_kernel_whose_differences_overflow_refused(self):
        # a top hat of height 1e308: at its edges beta jumps by 1e308 over
        # 2h = 0.5, so the difference quotient overflows to inf
        kernel = tabulated_kernel([-1.0, 1.0], [1e308, 1e308])
        with pytest.raises(ValueError, match="stencil entries must be finite"):
            build_system(kernel, Grid(h=0.25, n_half=8), Nonlinearity.bbm(1))

    @pytest.mark.parametrize("n_half", [1, 250])
    def test_stencil_whose_transform_overflows_refused(self, n_half):
        # a top hat of height 1e308 at h = 0.5: its difference quotients
        # are +-1e308, finite, but their FFT adds them past the largest
        # float; the build refuses it, and numpy says nothing
        kernel = tabulated_kernel([-1.0, 1.0], [1e308, 1e308])
        with pytest.raises(ValueError, match="the stencil's transform overflows"):
            build_system(kernel, Grid(h=0.5, n_half=n_half), Nonlinearity.bbm(1))

    def test_kernel_infinite_on_an_interval_refused(self):
        # inside (-1, 1) beta is inf, so the central differences there are
        # inf - inf = NaN; numpy stays silent and the refusal names the stencil
        kernel = Kernel(evaluate=lambda x: np.where(np.abs(x) < 1.0, np.inf, 0.0))
        with pytest.raises(ValueError, match="stencil entries must be finite"):
            build_system(kernel, Grid(h=0.25, n_half=8), Nonlinearity.bbm(1))

    def test_no_path_can_be_forced(self):
        # the kernel's form picks the path; build_system refuses any other
        # fast_mode than "auto", naming it
        for mode in ("on", "off"):
            with pytest.raises(ValueError, match=f"fast_mode must be 'auto', not '{mode}'"):
                build_system(bbm_kernel(), Grid(h=0.5, n_half=4), Nonlinearity.bbm(1),
                             fast_mode=mode)
        assert "fast_mode" not in {f.name for f in dataclasses.fields(TruncatedSystem)}

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            build_system(bbm_kernel(), Grid(h=0.5, n_half=4),
                         Nonlinearity.bbm(1), blow_up_threshold=0.0)


class TestRhs:
    def test_zero_state_gives_zero(self):
        g = Grid(h=0.5, n_half=10)
        system = build_system(bbm_kernel(), g, Nonlinearity.bbm(1))
        out = system.rhs_values(np.zeros(g.node_count))
        assert np.all(out == 0.0)

    def test_single_unit_entry_linear_f(self):
        g = Grid(h=0.5, n_half=6)
        system = build_system(bbm_kernel(), g, Nonlinearity(((1, 1.0),)))
        v = np.zeros(g.node_count)
        v[g.n_half] = 1.0
        out = system.rhs_values(v)
        # rhs_i = -h * stencil_i for the unit impulse at the origin
        lags = system.stencil[g.n_half : 3 * g.n_half + 1]
        np.testing.assert_allclose(out, -g.h * lags, rtol=0, atol=1e-15)

    # bbm's sampled stencil as a table's, the FFT path, at N = 250 (on), or
    # the tail path bbm's system picks at N = 64 (off)
    @pytest.mark.parametrize("n_half, fast", [(250, True), (64, False)], ids=["on", "off"])
    def test_matches_double_loop_oracle(self, n_half, fast):
        g = Grid(h=0.25, n_half=n_half)
        system = build_system(bbm_kernel(), g, Nonlinearity.bbm(1))
        if fast:
            system = as_table(system)
        assert system.convolution == ("fft" if fast else "tail")
        rng = np.random.default_rng(99)
        v = rng.uniform(-1, 1, g.node_count)
        fv = Nonlinearity.bbm(1).evaluate_values(v)
        expected = rhs_oracle(system.stencil, g.h, g.n_half, fv)
        out = system.rhs_values(v)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_direct_convolution_on_random_stencil(self):
        rng = np.random.default_rng(314)
        n, h = 24, 0.25
        g = rng.standard_normal(2 * n + 1)
        stencil = rng.standard_normal(4 * n + 1)
        expected = rhs_oracle(stencil, h, n, g)
        out = convolve_rhs_direct(stencil, g, h)
        assert np.max(np.abs(out - expected)) < 1e-13

    def test_path_follows_the_kernel_form(self):
        # the kernel's form alone picks the path, at every N: a tabulated
        # kernel takes the FFT path, the kernels that declare a tail take the
        # tail path
        triangle = tabulated_kernel([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
        for kernel, path in ((triangle, "fft"), (bbm_kernel(), "tail"),
                             (rosenau_kernel(), "tail")):
            for n in (1, 2, 249, 250):
                g = Grid(h=0.5, n_half=n)
                auto = build_system(kernel, g, Nonlinearity.bbm(1))
                assert auto.convolution == path
                assert auto.use_fast == (path == "fft")
                assert auto.fft_length == (_fft_length(n) if path == "fft" else None)

    @pytest.mark.parametrize("kernel, f, h", [
        (bbm_kernel(), Nonlinearity.bbm(1), 0.1),
        (rosenau_kernel(), Nonlinearity.rosenau(), 0.05),
        (bbm_kernel(), Nonlinearity.bbm(1), 8.0),
        (rosenau_kernel(), Nonlinearity.rosenau(), 8.0 * math.sqrt(2.0))])
    def test_tail_path_matches_direct_on_small_grids(self, kernel, f, h):
        # the tail path agrees with the direct sum of the sampled stencil
        # down to N = 1, three nodes, and up to the coarsest mesh it takes,
        # h |Re lambda| = 8, where its rounding eps e^{h |Re lambda|} peaks
        # and N = 60 runs in 3 blocks
        rng = np.random.default_rng(60)
        for n in (1, 2, 3, 8, 10, 16, 60):
            g = Grid(h=h, n_half=n)
            tail = build_system(kernel, g, f)
            assert tail.convolution == "tail"
            for _ in range(20):
                v = rng.uniform(-1.0, 1.0, g.node_count)
                assert np.max(np.abs(tail.rhs_values(v) - direct_rhs(tail, v))) < 1e-12

    def test_grid_past_the_old_tail_cap_stays_on_the_tail(self):
        # the largest tail weight e^{2Nh} is e^{450} at h = 0.9, under 1e200,
        # and e^{500} at h = 1, past it, as is e^{480} at h = 1, N = 240:
        # those two grids run in two blocks
        rng = np.random.default_rng(8)
        for h, n in ((0.9, 250), (1.0, 250), (1.0, 240)):
            g = Grid(h=h, n_half=n)
            auto = build_system(bbm_kernel(), g, Nonlinearity.bbm(1))
            assert auto.convolution == "tail" and auto.fft_length is None
            v = rng.uniform(-1.0, 1.0, g.node_count)
            assert np.max(np.abs(auto.rhs_values(v) - direct_rhs(auto, v))) < 1e-12

    @pytest.mark.parametrize("kernel, decay", [(bbm_kernel(), 4.0), (rosenau_kernel(), 5.0)],
                             ids=["bbm", "rosenau"])
    def test_tail_blocks_match_direct_across_their_boundaries(self, kernel, decay):
        # a block holds at most span nodes, the most whose weights |w|^-j stay
        # within 1e200: 116 at h |Re lambda| = 4, 93 at 5.  2N+1 is odd, so
        # both neighbours of an even size are run: one to three blocks
        h = decay / abs(kernel.tail[1].real)
        span = np.count_nonzero(np.exp(-decay * np.arange(1000)) > 1e-200)
        assert span == {4.0: 116, 5.0: 93}[decay]
        rng = np.random.default_rng(21)
        sizes = (span, span + 1, 2 * span, 2 * span + 1)
        for n in sorted({m // 2 for m in sizes} | {(m - 1) // 2 for m in sizes}):
            g = Grid(h=h, n_half=n)
            tail = build_system(kernel, g, Nonlinearity.rosenau())
            assert tail.convolution == "tail"
            v = rng.uniform(-1.0, 1.0, (3, g.node_count))
            assert np.max(np.abs(tail.rhs_values(v) - direct_rhs(tail, v))) < 1e-12

    # bbm in one block; bbm at h = 2, span 231, in one, two and three blocks;
    # a negative a at h |lambda| = 7.9, span 59, in one, two and seven blocks
    @pytest.mark.parametrize("tail, h, ns", [
        ((0.5, -1.0), 0.25, (1, 60, 120, 400)),
        ((0.5, -1.0), 2.0, (50, 120, 300)),
        ((-1.3, -2.7), 7.9 / 2.7, (29, 30, 200)),
    ], ids=["bbm-one-block", "bbm-h2", "negative-a"])
    def test_real_tail_scan_matches_two_scans_bit_for_bit(self, tail, h, ns):
        # a real tail runs both prefix sums as one complex scan, whose every
        # add and multiply is one of the two real scans': one state, a stack,
        # and zero-padded rows, each summed in its own run's blocks.  For a
        # real lambda, Re(a e^{lambda |x|}) = Re(a) e^{lambda |x|}, so a
        # complex a, or lambda + 0j, gives the same sums
        rng = np.random.default_rng(5)
        f = Nonlinearity.rosenau()
        for n in ns:
            system = build_system(Kernel(tail=tail), Grid(h, n), f)
            twins = [build_system(Kernel(tail=twin), Grid(h, n), f)
                     for twin in ((tail[0] + 0.7j, tail[1]), (tail[0], complex(tail[1])))]
            own_ns = (n, max(n // 2, 1), max(n // 3, 1))
            v = rng.uniform(-1.0, 1.0, (3, 2 * n + 1))
            for row, m in zip(v, own_ns):
                row[2 * m + 1:] = 0.0
            for state in (v[0], v):
                assert system.rhs_values(state).tobytes() == two_scan_rhs(system, state).tobytes()
                for twin in twins:
                    assert twin.rhs_values(state).tobytes() == system.rhs_values(state).tobytes()
            for row, state, m in zip(system.rhs_values(v), v, own_ns):
                own = build_system(Kernel(tail=tail), Grid(h, m), f)
                assert row[:2 * m + 1].tobytes() == own.rhs_values(state[:2 * m + 1]).tobytes()

    @pytest.mark.parametrize("kernel", [bbm_kernel(), rosenau_kernel()],
                             ids=["bbm", "rosenau"])
    def test_mesh_coarser_than_the_tail_limit_refused(self, kernel):
        # past h |Re lambda| = 8 the mesh does not resolve the kernel, and the
        # tail path's sums would lose digits; the same values with no tail,
        # as a table's, still build on the FFT path
        g = Grid(h=8.01 / abs(kernel.tail[1].real), n_half=3)
        with pytest.raises(ValueError, match=r"h \|Re lambda\| = 8.01 > 8"):
            build_system(kernel, g, Nonlinearity.bbm(1))
        table = build_system(Kernel(evaluate=kernel.evaluate), g, Nonlinearity.bbm(1))
        assert table.convolution == "fft"
        v = np.random.default_rng(3).uniform(-1.0, 1.0, g.node_count)
        assert np.max(np.abs(table.rhs_values(v) - direct_rhs(table, v))) < 1e-12

    def test_tail_sums_keep_headroom_past_the_blow_up_threshold(self):
        # |v| up to the default threshold 1e6 makes |f(v)| about 1.2e31; the
        # block weights stay within 1e200, so no sum overflows
        g = Grid(h=4.0 * math.sqrt(2.0), n_half=200)  # 4 blocks of 101 nodes
        tail = build_system(rosenau_kernel(), g, Nonlinearity.rosenau())
        assert tail.convolution == "tail"
        v = np.random.default_rng(12).uniform(-1.0, 1.0, g.node_count)
        v *= DEFAULT_BLOW_UP_THRESHOLD
        out = tail.rhs_values(v)
        assert np.all(np.isfinite(out)) and np.max(np.abs(out)) > 1e30
        assert np.max(np.abs(out - direct_rhs(tail, v))) <= 1e-12 * np.max(np.abs(out))

    def test_fft_cycle_is_shortest_alias_free_5_smooth(self):
        # 4N+1 is itself 5-smooth at the tight cases N = 1, 2, 6, 11, 20, 31,
        # 56, 101, where a cycle one shorter would alias into the window
        tight = [n for n in range(1, 131) if is_5_smooth(4 * n + 1)]
        assert tight == [1, 2, 6, 11, 20, 31, 56, 101]
        for n in range(1, 131):
            length = _fft_length(n)
            assert is_5_smooth(length) and length >= 4 * n + 1
            assert not any(is_5_smooth(m) for m in range(4 * n + 1, length))

    def test_fft_path_matches_direct_at_tight_cycles(self):
        # a table takes the FFT path at every N, and at these its cycle is
        # 4N+1 with no slack (tests/test_mutants.py breaks the window and the
        # cycle and expects the gap check to fail)
        systems, gaps = zip(*tight_cycle_gaps())
        tight = [system.grid.n_half for system in systems]
        assert tight == [1, 2, 6, 11, 20, 31, 56, 101, 156, 182, 281, 506, 781, 911]
        assert [system.fft_length for system in systems] == [4 * n + 1 for n in tight]
        assert max(gaps) < 1e-12

    @pytest.mark.parametrize("kernel", [bbm_kernel(), rosenau_kernel()],
                             ids=["bbm", "rosenau"])
    # the system the kernel builds at N = 48 (the tail path), its sampled
    # stencil as a table's, the FFT path, at N = 250 (on), and the tests'
    # reference sum of that stencil at N = 48 (off)
    @pytest.mark.parametrize("n_half, path", [(48, "tail"), (250, "fft"),
                                              (48, "reference")], ids=["auto", "on", "off"])
    def test_stacked_rows_match_their_own_grids(self, kernel, n_half, path):
        # a stack of states of the grid's width: each row's output is its own
        # state's on both paths and in the reference sum (padding narrower
        # grids is integrate's job)
        system = build_system(kernel, Grid(h=0.25, n_half=n_half), Nonlinearity.bbm(1))
        if path == "fft":
            system = as_table(system)
        assert system.convolution == ("tail" if path == "reference" else path)
        rhs = (lambda v: direct_rhs(system, v)) if path == "reference" else system.rhs_values
        v = np.random.default_rng(11).uniform(-1.0, 1.0, (3, system.grid.node_count))
        out = rhs(v)
        assert out.shape == v.shape
        for row, state in zip(out, v):
            assert np.max(np.abs(row - rhs(state))) < 1e-12
        with pytest.raises(ValueError):
            system.rhs_values(v[:, :-1])

    @even_kernel_property
    @given(even_systems())
    def test_even_kernel_rhs_is_skew(self, case):
        # an even kernel's stencil is odd, so sum_i f(v_i) rhs_i = 0 on every
        # path, up to rounding of the terms the path sums.  An FFT rounds each
        # entry by the largest, hence the max; a product of norms would
        # underflow for a tiny kernel
        _, system, seed = case
        v = random_state(system, seed)
        g = system.nonlinearity.evaluate_values(v)
        scale = np.sum(np.abs(g)) * np.max(np.convolve(path_terms(system), np.abs(g)))
        assert abs(g @ system.rhs_values(v)) <= 1e-14 * scale

    @settings(even_kernel_property, max_examples=100)  # at 200 the two add 3.5 s
    @given(even_systems())
    def test_even_kernel_mass_flux_is_the_boundary_flux(self, case):
        # the odd stencil telescopes h sum_i rhs_i to the closed-form flux
        # through the two domain ends, up to rounding of each entry's terms
        kernel, system, seed = case
        state = SampledSequence(system.grid, random_state(system, seed))
        g = np.abs(system.nonlinearity.evaluate_values(state.values))
        h = system.grid.h
        scale = h * np.sum(np.convolve(sampled_terms(system), g, mode="valid"))
        gap = h * np.sum(system.rhs_values(state.values)) - boundary_flux(
            kernel, system.nonlinearity, state)
        assert abs(gap) <= 1e-13 * scale

    @settings(even_kernel_property, max_examples=100)
    @given(even_systems())
    def test_even_kernel_paths_agree(self, case):
        # the path the system picks (tail or FFT) and the direct sum
        # of its sampled stencil sum the same terms; a scale that underflows
        # to 0 demands equal outputs
        _, system, seed = case
        v = random_state(system, seed)
        g = np.abs(system.nonlinearity.evaluate_values(v))
        scale = np.max(np.convolve(sampled_terms(system), g))
        assert np.max(np.abs(system.rhs_values(v) - direct_rhs(system, v))) <= 1e-13 * scale

    # bbm's sampled stencil as a table's, the FFT path, at N = 250 (on), or
    # the tail path bbm's system picks at N = 64 (off)
    @pytest.mark.parametrize("n_half, fast", [(250, True), (64, False)], ids=["on", "off"])
    def test_wrong_state_length_rejected(self, n_half, fast):
        # both paths would otherwise return a wrong-length answer or fail
        # deep inside; a (1, 2N+1) array is a stack of one state, not a
        # wrong length
        g = Grid(h=0.5, n_half=n_half)
        system = build_system(bbm_kernel(), g, Nonlinearity.bbm(1))
        if fast:
            system = as_table(system)
        assert system.convolution == ("fft" if fast else "tail")
        for shape in (100, (1, 100), (1, 1, g.node_count)):
            with pytest.raises(ValueError):
                system.rhs_values(np.zeros(shape))
        v = np.linspace(-1.0, 1.0, g.node_count)
        np.testing.assert_array_equal(system.rhs_values(v[None])[0], system.rhs_values(v))

    def test_linear_scaling_in_f(self):
        g = Grid(h=0.25, n_half=32)
        rng = np.random.default_rng(123)
        v = rng.standard_normal(g.node_count)
        one = build_system(bbm_kernel(), g, Nonlinearity(((1, 1.0),)))
        scaled = build_system(bbm_kernel(), g, Nonlinearity(((1, -2.5),)))
        np.testing.assert_allclose(
            scaled.rhs_values(v), -2.5 * one.rhs_values(v), rtol=0, atol=1e-14
        )

    def test_telescoping_mass_drift(self):
        # states supported well inside the grid telescope to a boundary tail
        g = Grid(h=0.5, n_half=128)
        system = build_system(bbm_kernel(), g, Nonlinearity.bbm(1))
        v = np.exp(-(g.nodes**2))  # support within |x| <= ~6 at 1e-16
        assert np.max(np.abs(v[np.abs(g.nodes) > g.n_half * g.h / 2])) < 1e-14
        fv = Nonlinearity.bbm(1).evaluate_values(v)
        total = abs(g.h * float(np.sum(system.rhs_values(v))))
        assert total <= 1e-10 * float(np.max(np.abs(fv)))

    def test_direct_construction_with_stub_stencil(self):
        # a pure-decay stub: stencil 1/h at lag zero makes rhs = -f(v)
        g = Grid(h=0.5, n_half=1)
        stencil = np.zeros(5)
        stencil[2] = 1.0 / g.h
        system = TruncatedSystem(grid=g, stencil=stencil,
                                 nonlinearity=Nonlinearity(((1, 1.0),)))
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(system.rhs_values(v), -v)

    def test_stub_stencil_size_validation(self):
        g = Grid(h=0.5, n_half=2)
        with pytest.raises(ValueError):
            TruncatedSystem(grid=g, stencil=np.zeros(5),
                            nonlinearity=Nonlinearity(((1, 1.0),)))


def identity_stub(nonlinearity):
    """Stub system whose stencil -1/h at lag zero makes rhs = f(v)."""
    g = Grid(h=1.0, n_half=1)
    stencil = np.zeros(5)
    stencil[2] = -1.0 / g.h
    return TruncatedSystem(grid=g, stencil=stencil, nonlinearity=nonlinearity)


class TestApplyNonlinearity:
    """The right-hand side applies f entrywise."""

    def test_entrywise(self):
        # exact on the direct sum; the FFT path, which a stencil without a
        # tail takes, agrees with it to roundoff
        system = identity_stub(Nonlinearity.bbm(1))
        v = np.array([0.0, 2.0, -1.0])
        np.testing.assert_array_equal(direct_rhs(system, v), [0.0, 6.0, 0.0])
        assert np.max(np.abs(system.rhs_values(v) - direct_rhs(system, v))) < 1e-12


class TestDiscreteMass:
    def test_zero_state(self):
        g = Grid(h=0.5, n_half=2)
        assert discrete_mass(SampledSequence(g, np.zeros(5))) == 0.0

    def test_single_entry(self):
        g = Grid(h=0.5, n_half=2)
        v = np.zeros(5)
        v[3] = 4.0
        assert discrete_mass(SampledSequence(g, v)) == 2.0

    def test_centered_solitary_matches_analytic_integral(self):
        # integral of A sech^2(Bx) over the line is 2A/B; the centered wave
        # decays far below 1e-6 before the domain edge at 30
        wave = bbm_solitary(p=1, c=1.8, x0=0.0)
        grid = Grid(h=0.25, n_half=120)
        mass = discrete_mass(initial_data(wave, grid))
        a, b = 1.2, 0.5 * math.sqrt(1 - 1 / 1.8)
        assert mass == pytest.approx(2 * a / b, abs=1e-6)
        # independent quadrature oracle over the domain
        ref, _ = quad(lambda x: a / math.cosh(b * x) ** 2, -30, 30, limit=200)
        assert mass == pytest.approx(ref, abs=1e-6)
