"""Error metrics, rate fitting and the study drivers on small fast runs."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlwave import (
    ErrorRecord,
    Grid,
    IntegratorConfig,
    Kernel,
    Nonlinearity,
    StudyConfig,
    bbm_kernel,
    convergence_rate,
    custom_problem,
    discrete_mass,
    evaluate_solitary,
    initial_data,
    integrate,
    linf_error,
    plateau_onset,
    run_h_refinement,
    run_profile_study,
    run_truncation_study,
    tabulated_kernel,
)
from nlwave import experiments
from nlwave.config import load_run_config
from nlwave.experiments import TruncationRecord, run_single
from nlwave.problems import Problem, bbm_problem, rosenau_problem
from oracles import fit_observed_order

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def record(h, err, n=10):
    return ErrorRecord(h=h, n_half=n, linf_error=err, accepted_steps=1,
                       rejected_steps=0, rhs_calls=13, wall_time=0.0,
                       fft_length=None, convolution="tail")


def short_bbm_config(**overrides):
    base = dict(
        problem=bbm_problem(p=1, c=1.8, x0=-5.0),
        domain_half_width=15.0,
        h=0.25,
        t_end=2.0,
    )
    base.update(overrides)
    return StudyConfig(**base)


def aligned_tables(ends):
    """Even tables on the nodes 0.25 (-m..m), m in 2..5, with values in
    [0.1, 1] and, at the two ends, one drawn from ``ends``.

    Every breakpoint lies on the coarsest mesh, h = 0.25.  Off the mesh, point
    sampling's error constant depends on where a breakpoint falls between the
    nodes: README's survey of random tables read rates from -9.1 to 4.9 there.
    """
    inner = st.integers(2, 5).flatmap(
        lambda m: st.lists(st.floats(0.1, 1.0), min_size=m, max_size=m))
    return st.tuples(inner, ends).map(lambda drawn: tabulated_kernel(
        0.25 * np.arange(-len(drawn[0]), len(drawn[0]) + 1),
        [drawn[1], *drawn[0][:0:-1], *drawn[0], drawn[1]]))


class TestErrorMetric:
    def test_exact_restriction_has_zero_error(self):
        wave = bbm_problem().wave
        grid = Grid(h=0.25, n_half=40)
        state = initial_data(wave, grid)
        assert linf_error(state, wave, 0.0) == 0.0

    def test_constant_offset(self):
        wave = bbm_problem().wave
        grid = Grid(h=0.25, n_half=40)
        state = initial_data(wave, grid)
        from nlwave import SampledSequence

        shifted = SampledSequence(grid, state.values + 1e-3)
        assert linf_error(shifted, wave, 0.0) == pytest.approx(1e-3, rel=1e-9)


class TestConvergenceRate:
    def test_quadratic_identity(self):
        r = convergence_rate(record(0.2, 0.04), record(0.1, 0.01))
        assert r == pytest.approx(2.0, abs=1e-14)

    def test_linear_identity(self):
        r = convergence_rate(record(0.2, 0.2), record(0.1, 0.1))
        assert r == pytest.approx(1.0, abs=1e-14)

    def test_zero_error_is_degenerate(self):
        with pytest.raises(ValueError, match="zero error"):
            convergence_rate(record(0.2, 0.0), record(0.1, 1e-3))

    def test_equal_h_rejected(self):
        with pytest.raises(ValueError):
            convergence_rate(record(0.1, 0.1), record(0.1, 0.05))


class TestFitObservedOrder:
    def test_clean_power_law(self):
        hs = [0.4, 0.2, 0.1]
        errs = [0.16, 0.04, 0.01]
        assert fit_observed_order(hs, errs) == pytest.approx(2.0, abs=1e-12)

    def test_noise_floor_filtering(self):
        hs = [0.4, 0.2, 0.1, 0.05]
        errs = [0.16, 0.04, 1e-15, 2e-15]
        order = fit_observed_order(hs, errs, noise_floor=1e-13)
        assert order == pytest.approx(2.0, abs=1e-12)

    def test_all_below_floor_reports_inf(self):
        assert fit_observed_order([0.4, 0.2], [1e-16, 2e-16],
                                  noise_floor=1e-13) == math.inf


class TestStudyConfig:
    def test_grid_from_h(self):
        cfg = short_bbm_config()
        assert cfg.grid().n_half == 60
        assert cfg.grid(h=0.125).n_half == 120

    def test_grid_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            short_bbm_config().grid(h=0.4)
        with pytest.raises(ValueError):  # an infinite ratio, not an overflow
            short_bbm_config(domain_half_width=math.inf).grid()

    def test_a_study_cannot_force_the_direct_sum(self, monkeypatch):
        # StudyConfig forwards fast_mode to build_system, which refuses "off",
        # the direct sum no system runs, before any integration starts
        cfg = StudyConfig(problem=rosenau_problem(x0=0.0), domain_half_width=4.0,
                          h=0.2, t_end=0.5, fast_mode="off")
        monkeypatch.setattr(experiments, "integrate", None)  # a call would raise TypeError
        with pytest.raises(ValueError, match="fast_mode must be 'auto', not 'off'"):
            run_single(cfg, cfg.grid())


class TestProfileStudy:
    def test_short_run_fields(self):
        traj, rec = run_profile_study(short_bbm_config())
        assert rec.h == 0.25
        assert 0.0 < rec.linf_error < 0.1
        assert rec.accepted_steps > 0
        # the short asymmetric run leaks a little mass through the nearby
        # boundary; acceptance criterion 8 checks that the drift equals the
        # integrated boundary flux
        mass0 = discrete_mass(traj.states[0])
        assert abs(discrete_mass(traj.final) - mass0) / abs(mass0) < 2e-3
        # without snapshot times the trajectory carries t=0 and t_end
        assert traj.times == (0.0, 2.0)

    def test_zero_horizon_zero_error(self):
        traj, rec = run_profile_study(short_bbm_config(t_end=0.0))
        assert rec.linf_error == 0.0
        assert traj.times == (0.0,)

    def test_problem_without_initial_data_refused(self):
        problem = Problem(name="bare", kernel=bbm_kernel(),
                          nonlinearity=Nonlinearity.bbm(1), wave=None)
        cfg = StudyConfig(problem=problem, domain_half_width=4.0, h=0.5, t_end=1.0)
        with pytest.raises(ValueError, match="neither a wave nor an initial profile"):
            run_single(cfg, cfg.grid())


class TestHRefinement:
    def test_rates_near_two(self):
        entries = run_h_refinement(short_bbm_config(), [0.5, 0.25, 0.125])
        errors = [rec.linf_error for rec, _ in entries]
        assert errors[0] > errors[1] > errors[2]
        rates = [rate for _, rate in entries if rate is not None]
        assert len(rates) == 2
        for rho in rates:
            assert 1.7 <= rho <= 2.3
        # reported rates reproduce the formula applied to the records
        for (r1, _), (r2, rate) in zip(entries, entries[1:]):
            assert rate == convergence_rate(r1, r2)

    def test_single_h_has_no_rate(self):
        entries = run_h_refinement(short_bbm_config(), [0.25])
        assert len(entries) == 1
        assert entries[0][1] is None

    def test_non_decreasing_list_rejected(self):
        with pytest.raises(ValueError):
            run_h_refinement(short_bbm_config(), [0.25, 0.25])

    def test_self_refinement_for_custom_problem(self):
        # pyramid kernel, weak quadratic nonlinearity, gaussian bump
        nodes = np.linspace(-6.0, 6.0, 241)
        values = np.maximum(0.0, 1.0 - np.abs(nodes) / 6.0) / 6.0
        kernel = tabulated_kernel(nodes, values)
        problem = custom_problem(
            kernel,
            Nonlinearity(((1, 1.0), (2, 0.2))),
            initial_profile=lambda x: np.exp(-(x**2)),
        )
        cfg = StudyConfig(problem=problem, domain_half_width=16.0, h=0.25,
                          t_end=1.0)
        entries = run_h_refinement(cfg, [0.5, 0.25])
        errors = [rec.linf_error for rec, _ in entries]
        assert all(np.isfinite(errors))
        assert errors[1] < errors[0]

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_self_refined_rates_solve_the_reference_model(self, p):
        # gaps to a reference at h_ref = 0.05 go as C (h^p - h_ref^p); read
        # as C h^p, the finest pair of a halving list gives log2(2^p + 1)
        h_ref = 0.05
        recs = [record(h, 3.0 * (h**p - h_ref**p)) for h in (0.4, 0.2, 0.1)]
        assert convergence_rate(*recs[1:]) == pytest.approx(math.log2(2**p + 1))
        for e1, e2 in zip(recs, recs[1:]):
            assert abs(experiments._self_refined_rate(e1, e2, h_ref) - p) < 1e-9
        # the model's ratio exceeds 1 for every p: no rate when the error does not fall
        for err in (1e-3, 2e-3):
            assert experiments._self_refined_rate(record(0.2, 1e-3), record(0.1, err), h_ref) is None

    def test_self_refined_top_hat_reads_first_order(self):
        # a top hat's stencil has jumps: first order, which the gaps to the
        # reference read as 1.17 and 1.56 under the C h^p model
        problem = custom_problem(tabulated_kernel([-1.0, 1.0], [0.5, 0.5]),
                                 Nonlinearity(((1, 1.0), (2, 1.0))),
                                 initial_profile=lambda x: 0.5 / np.cosh(x / 2.0))
        cfg = StudyConfig(problem=problem, domain_half_width=20.0, h=0.25, t_end=2.0)
        rates = [rate for _, rate in run_h_refinement(cfg, [0.25, 0.125, 0.0625])][1:]
        assert all(0.7 <= rate <= 1.3 for rate in rates), rates

    # each class of kernel and the rate window its smoothness sets
    @pytest.mark.parametrize("kernels, window", [
        (st.builds(lambda a, lam: Kernel(tail=(a, lam)),
                   st.builds(complex, st.floats(0.2, 1.0), st.floats(-0.5, 0.5)),
                   st.builds(complex, st.floats(-2.0, -0.5), st.floats(-2.0, 2.0))), (1.8, 2.2)),
        (aligned_tables(st.just(0.0)), (1.8, 2.2)),
        (aligned_tables(st.floats(0.1, 1.0)), (0.7, 1.3))],
        ids=["tail", "continuous-table", "jump-table"])
    @settings(max_examples=10, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_order_follows_smoothness(self, kernels, window, data):
        # the paper's claim: second order for a smooth kernel, first at a jump
        kernel = data.draw(kernels)
        problem = custom_problem(kernel, Nonlinearity(((1, 1.0), (2, 1.0))),
                                 initial_profile=lambda x: 0.3 / np.cosh(x / 2.0))
        cfg = StudyConfig(problem=problem, domain_half_width=20.0, h=0.25, t_end=2.0)
        rates = [rate for _, rate in run_h_refinement(cfg, [0.25, 0.125, 0.0625])][1:]
        assert all(window[0] <= rate <= window[1] for rate in rates), rates

    def test_non_nested_grids_refused_before_any_run(self, monkeypatch):
        # half-width 1: h = 0.25 and 0.2 give N = 4 and 5, the reference at
        # h = 0.1 has N = 10, and 4 does not divide it
        def integrate_refused(*args, **kwargs):
            raise AssertionError("integrated a sweep that is refused")

        monkeypatch.setattr(experiments, "integrate", integrate_refused)
        kernel = tabulated_kernel(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))
        problem = custom_problem(kernel, Nonlinearity(((1, 1.0),)),
                                 initial_profile=lambda x: np.exp(-(x**2)))
        cfg = StudyConfig(problem=problem, domain_half_width=1.0, h=0.25, t_end=0.1)
        with pytest.raises(ValueError, match="self-refinement requires nested grids"):
            run_h_refinement(cfg, [0.25, 0.2])


class TestTruncationStudy:
    def test_error_decreases_with_domain(self):
        cfg = short_bbm_config(h=0.25, t_end=2.0)
        records = run_truncation_study(cfg, [32, 48, 64])
        errs = [r.record.linf_error for r in records]
        assert errs[0] > errs[-1]
        halves = [r.record.n_half * r.record.h for r in records]
        assert halves == [8.0, 12.0, 16.0]
        # boundary-band amplitude shrinks as the domain grows
        deltas = [r.delta for r in records]
        assert deltas[-1] < deltas[0]
        assert all(r.eps_delta >= 0 for r in records)

    def test_no_n_values_give_no_records(self):
        assert run_truncation_study(short_bbm_config(), []) == []

    def test_needs_increasing_n(self):
        with pytest.raises(ValueError):
            run_truncation_study(short_bbm_config(), [64, 48])

    def test_plateau_onset_changepoint(self):
        def trec(n, err):
            return TruncationRecord(record=record(0.1, err, n=n), delta=0.0, eps_delta=0.0)

        records = [trec(200, 1e-1), trec(220, 1e-2), trec(240, 8e-3),
                   trec(260, 7.9e-3)]
        # ratios 0.1, 0.8, 0.9875: the first one past 0.9 is the 240->260 pair
        assert plateau_onset(records) == 240
        falling = [trec(200, 1e-1), trec(220, 1e-2), trec(240, 1e-3)]
        assert plateau_onset(falling) is None


@pytest.mark.parametrize("name", ["bbm_truncation", "rosenau_truncation"])
def test_shipped_truncation_rows_match_their_own_runs(monkeypatch, name):
    # the sweep integrates its grids as rows of one stack; each row takes the
    # steps of its own run_single (bbm: 90 steps at N = 200, 93 elsewhere)
    cfg = load_run_config(os.path.join(CONFIG_DIR, name + ".ini"))
    runs = []

    def spy(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(experiments, "integrate", spy)
    records = run_truncation_study(cfg, cfg.n_list)
    (stack,) = runs
    assert len(stack) == len(records) == len(cfg.n_list)
    for traj, rec, n in zip(stack, records, cfg.n_list):
        own, own_rec = run_single(cfg, cfg.grid(n_half=n))
        for key in ("accepted_steps", "rejected_steps", "rhs_calls"):
            assert getattr(traj, key) == getattr(own, key) == getattr(rec.record, key)
        assert rec.record.linf_error == pytest.approx(own_rec.linf_error, rel=1e-10)
        assert traj.times == own.times
        assert [s.grid for s in traj.states] == [s.grid for s in own.states]
        scale = np.max(np.abs(own.final.values))
        assert np.max(np.abs(traj.final.values - own.final.values)) <= 1e-10 * scale
    if name == "bbm_truncation":
        assert [t.accepted_steps for t in stack] == [90] + [93] * 10


class TestRosenauShortRun:
    def test_profile_accuracy(self):
        cfg = StudyConfig(
            problem=rosenau_problem(x0=0.0),
            domain_half_width=10.0,
            h=0.1,
            t_end=1.0,
        )
        traj, rec = run_profile_study(cfg)
        assert rec.linf_error < 0.05
        peak = float(np.max(traj.final.values))
        assert abs(peak - 1.0) < 0.02
