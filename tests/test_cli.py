"""Command-line interface: config validation, CSV output, determinism."""

import errno
import json
import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import nlwave.cli
import nlwave.config
from nlwave import IntegratorConfig, bbm_problem, rosenau_problem
from nlwave.cli import main
from nlwave.config import _EQUATION_KEYS, _KEYS, ConfigError, RunConfig, load_run_config
from nlwave.system import _fft_length

BBM_EQUATION = "kind = bbm\np = 1\nc = 1.8\nx0 = -3.0"
CUSTOM_EQUATION = "kind = custom\nkernel_file = kernel.txt\nnonlinearity = 1:1.0"
TRIANGLE_KERNEL = "-1 0\n0 1\n1 0\n"

FAST_BBM = """
[equation]
{equation}

[grid]
domain_half_width = {half}
h = {h}

[time]
t_end = {t_end}
{snapshots}

[integrator]
rel_tol = 1e-10
abs_tol = 1e-10

[study]
h_list = {h_list}
n_list = {n_list}

[decay]
rate = {rate}

[output]
dir = {outdir}
"""


def write_config(tmp_path, name="run.ini", t_end=1.0, snapshots="",
                 h_list="0.5, 0.25", n_list="32, 48", rate=0.5, outdir=None,
                 half=12.0, h=0.25, equation=BBM_EQUATION, extra=None,
                 kernel=None):
    """Write the base config with the given values; ``extra`` maps a section
    to lines added to it (a new section when the base has none), and
    ``kernel`` is written to ``kernel.txt`` beside the config."""
    outdir = outdir or str(tmp_path / "out")
    cfg = FAST_BBM.format(
        equation=equation,
        half=half,
        h=h,
        t_end=t_end,
        snapshots=f"snapshots = {snapshots}" if snapshots else "",
        h_list=h_list,
        n_list=n_list,
        rate=rate,
        outdir=outdir,
    )
    for section, lines in (extra or {}).items():
        header = f"[{section}]\n"
        if header in cfg:
            cfg = cfg.replace(header, header + lines + "\n")
        else:
            cfg += header + lines + "\n"
    if kernel is not None:
        (tmp_path / "kernel.txt").write_text(kernel)
    path = tmp_path / name
    path.write_text(cfg)
    return str(path), outdir


def read_csv(path):
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSimulate:
    def test_profiles_and_summary(self, tmp_path):
        cfg, outdir = write_config(tmp_path, t_end=1.0, snapshots="0, 0.5, 1")
        assert main(["simulate", "--config", cfg]) == 0
        files = sorted(os.listdir(outdir))
        profiles = [f for f in files if f.startswith("profile_")]
        assert len(profiles) == 3
        assert "summary.json" in files
        header, rows = read_csv(os.path.join(outdir, profiles[0]))
        assert header == ["x", "numeric", "exact"]
        assert len(rows) == 2 * 48 + 1
        # t = 0 profile: numeric equals exact sample for sample
        for row in rows:
            assert row[1] == row[2]
        summary = read_json(os.path.join(outdir, "summary.json"))
        assert summary["command"] == "simulate"
        assert summary["linf_error"] > 0.0
        assert summary["snapshot_times"] == [0.0, 0.5, 1.0]
        assert summary["rhs_calls"] == (12 * summary["accepted_steps"]
                                        + 11 * summary["rejected_steps"] + 1)
        assert summary["fft_length"] is None  # bbm takes the tail path
        assert summary["convolution"] == "tail"
        assert set(summary) >= {  # later keys may join, none may leave
            "command", "equation", "domain_half_width", "h", "t_end",
            "rel_tol", "abs_tol", "profiles", "snapshot_times", "linf_error",
            "accepted_steps", "rejected_steps", "rhs_calls", "fft_length",
            "mass_initial", "mass_final", "relative_mass_drift",
            "wall_seconds"}

    @pytest.mark.parametrize("command", ["simulate", "decay"])
    def test_summary_reports_the_fft_cycle(self, tmp_path, command):
        # a tabulated kernel takes the FFT path at every N, here N = 100;
        # bbm takes its tail path at every N
        grid = dict(t_end=0.1, half=5.0, h=0.05)
        cfg, outdir = write_config(tmp_path, name="custom.ini",
                                   outdir=str(tmp_path / "custom"),
                                   equation=CUSTOM_EQUATION,
                                   kernel=TRIANGLE_KERNEL, **grid)
        assert main([command, "--config", cfg]) == 0
        summary = read_json(os.path.join(outdir, "summary.json"))
        assert summary["fft_length"] == _fft_length(100)
        assert summary["convolution"] == "fft"
        cfg, outdir = write_config(tmp_path, **grid)
        assert main([command, "--config", cfg]) == 0
        summary = read_json(os.path.join(outdir, "summary.json"))
        assert summary["fft_length"] is None
        assert summary["convolution"] == "tail"

    def test_zero_horizon_single_profile_zero_error(self, tmp_path):
        cfg, outdir = write_config(tmp_path, t_end=0.0)
        assert main(["simulate", "--config", cfg]) == 0
        profiles = [f for f in os.listdir(outdir) if f.startswith("profile_")]
        assert len(profiles) == 1
        summary = read_json(os.path.join(outdir, "summary.json"))
        assert summary["linf_error"] == 0.0
        assert summary["rhs_calls"] == 0

    def test_masses_are_those_of_the_first_and_last_profiles(self, tmp_path):
        cfg, outdir = write_config(tmp_path, t_end=1.0, snapshots="0, 0.5, 1")
        assert main(["simulate", "--config", cfg]) == 0
        summary = read_json(os.path.join(outdir, "summary.json"))
        first, last = (np.array([float(row[1]) for row in read_csv(
            os.path.join(outdir, summary["profiles"][i]))[1]]) for i in (0, -1))
        mass0, mass1 = float(0.25 * np.sum(first)), float(0.25 * np.sum(last))
        assert (summary["mass_initial"], summary["mass_final"]) == (mass0, mass1)
        assert mass0 != mass1  # the wave's tails carry mass across x = -12 and 12
        assert summary["relative_mass_drift"] == abs(mass1 - mass0) / abs(mass0)

    def test_zero_initial_mass_reports_zero_drift(self, tmp_path):
        # relative drift would divide by zero; the summary reports the
        # absolute drift, 0, as JSON with no NaN
        cfg, outdir = write_config(tmp_path, t_end=0.5, kernel=TRIANGLE_KERNEL,
                                   equation=CUSTOM_EQUATION + "\ninitial_amplitude = 0")
        assert main(["simulate", "--config", cfg]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} in summary.json")

        with open(os.path.join(outdir, "summary.json")) as fh:
            summary = json.loads(fh.read(), parse_constant=refuse)
        assert summary["mass_initial"] == summary["mass_final"] == 0.0
        assert summary["relative_mass_drift"] == 0.0

    def test_drift_from_zero_initial_mass_is_absolute(self, tmp_path, monkeypatch):
        masses = iter([0.0, -2e-3])
        monkeypatch.setattr(nlwave.cli, "discrete_mass", lambda state: next(masses))
        cfg, outdir = write_config(tmp_path, t_end=0.5)
        assert main(["simulate", "--config", cfg]) == 0
        assert read_json(os.path.join(outdir, "summary.json"))["relative_mass_drift"] == 2e-3

    def test_snapshots_short_of_t_end_still_end_there(self, tmp_path):
        cfg, outdir = write_config(tmp_path, t_end=1.0, snapshots="0, 0.5")
        assert main(["simulate", "--config", cfg]) == 0
        short = read_json(os.path.join(outdir, "summary.json"))
        assert short["snapshot_times"] == [0.0, 0.5, 1.0]
        assert len(short["profiles"]) == 3
        cfg, _ = write_config(tmp_path, t_end=1.0, snapshots="0, 0.5, 1")
        assert main(["simulate", "--config", cfg]) == 0
        listed = read_json(os.path.join(outdir, "summary.json"))
        assert short["linf_error"] == listed["linf_error"]

    def test_output_override(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        override = tmp_path / "elsewhere"
        assert main(["simulate", "--config", cfg, "--output",
                     str(override)]) == 0
        assert (override / "summary.json").exists()

    def test_rerun_removes_stale_outputs(self, tmp_path):
        cfg, outdir = write_config(tmp_path, t_end=1.0, snapshots="0, 0.5, 1")
        assert main(["simulate", "--config", cfg]) == 0
        with open(os.path.join(outdir, "notes.txt"), "w") as fh:
            fh.write("not an nlwave output\n")
        cfg, _ = write_config(tmp_path, t_end=1.0, snapshots="0, 1")
        assert main(["simulate", "--config", cfg]) == 0
        summary = read_json(os.path.join(outdir, "summary.json"))
        assert summary["profiles"] == ["profile_00_t0.csv", "profile_01_t1.csv"]
        assert sorted(os.listdir(outdir)) == sorted(
            summary["profiles"] + ["notes.txt", "summary.json"])

    def test_failed_write_leaves_previous_output(self, tmp_path, monkeypatch,
                                                 capsys):
        cfg, outdir = write_config(tmp_path, t_end=0.5)
        assert main(["simulate", "--config", cfg]) == 0
        before = {f: read_bytes(os.path.join(outdir, f))
                  for f in os.listdir(outdir)}
        # a coarser grid: every file of the second run differs from the first
        cfg, _ = write_config(tmp_path, t_end=0.5, h=0.5)
        opened = []

        def open_failing_second(path, *args, **kwargs):
            opened.append(path)
            if len(opened) == 2:
                raise OSError(errno.ENOSPC, "No space left on device", path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(nlwave.cli, "open", open_failing_second,
                            raising=False)
        assert main(["simulate", "--config", cfg]) == 1
        assert len(opened) == 2
        assert "i/o error" in capsys.readouterr().err
        after = {f: read_bytes(os.path.join(outdir, f))
                 for f in os.listdir(outdir)}
        assert after == before
        assert sorted(os.listdir(tmp_path)) == ["out", "run.ini"]  # no temp dir

    def test_byte_identical_reruns(self, tmp_path):
        cfg, outdir = write_config(tmp_path, t_end=1.0, snapshots="0, 1")
        assert main(["simulate", "--config", cfg]) == 0
        first = {
            f: read_bytes(os.path.join(outdir, f))
            for f in os.listdir(outdir)
            if f.startswith("profile_")
        }
        assert main(["simulate", "--config", cfg]) == 0
        for f, blob in first.items():
            assert read_bytes(os.path.join(outdir, f)) == blob

    @pytest.mark.parametrize("case", ["threshold", "overflow"])
    def test_blow_up_exits_1_without_output(self, tmp_path, capsys, case):
        terms, amplitude, threshold = {
            "threshold": ("1:1.0", 1.0, 0.5),
            "overflow": ("9:1", 1e60, 1e300),
        }[case]
        equation = (f"kind = custom\nkernel_file = kernel.txt\n"
                    f"nonlinearity = {terms}\ninitial_amplitude = {amplitude}\n"
                    f"blow_up_threshold = {threshold}")
        cfg, outdir = write_config(tmp_path, equation=equation,
                                   kernel=TRIANGLE_KERNEL)
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "integration failed" in err
        assert "RuntimeWarning" not in err
        assert not os.path.exists(outdir)


class TestValidation:
    def test_malformed_config_exits_2_without_output(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[equation]\nkind = bogus\n")
        outdir = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--output",
                     str(outdir)]) == 2
        assert not outdir.exists()

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_indivisible_h_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(
            "[equation]\nkind = bbm\n[grid]\ndomain_half_width = 10\n"
            "h = 0.3\n[time]\nt_end = 1\n"
        )
        assert main(["simulate", "--config", str(path)]) == 2
        # study mesh sizes go through the same check, zero included
        for h_list in ("0.5, 0.35", "0.5, 0"):
            cfg, outdir = write_config(tmp_path, h_list=h_list)
            assert main(["converge", "--config", cfg]) == 2
            assert not os.path.exists(outdir)

    def test_decay_rate_above_one_rejected(self, tmp_path):
        cfg, outdir = write_config(tmp_path, rate=1.5)
        assert main(["decay", "--config", cfg]) == 2
        assert not os.path.exists(outdir)

    def test_converge_requires_h_list(self, tmp_path):
        cfg, outdir = write_config(tmp_path, h_list="")
        assert main(["converge", "--config", cfg]) == 2

    # (command, overrides of the base config): each must exit 2 with a
    # config error before anything runs or is written
    BAD_INPUTS = {
        "non-divisor-h": ("simulate", dict(h=0.35)),
        "negative-half-width": ("simulate", dict(half=-12.0)),
        "infinite-half-width": ("simulate", dict(half="inf")),
        "overflowing-ratio": ("simulate", dict(half=1e300, h=1e-300)),
        "nan-t_end": ("simulate", dict(t_end="nan")),
        "inf-t_end": ("simulate", dict(t_end="inf")),
        "negative-t_end": ("simulate", dict(t_end=-1.0)),
        "unsorted-snapshots": ("simulate", dict(snapshots="0, 1, 0.5")),
        "out-of-range-snapshots": ("simulate", dict(snapshots="0, 2")),
        "nan-snapshot": ("simulate", dict(snapshots="0, nan, 1")),
        # closer than 16 ulp(1) max(|t|, 1), no step could reach them
        "adjacent-snapshots": ("simulate", dict(t_end=6.0,
                                                snapshots="0, 5, 5.000000000000001")),
        "t_end-within-ulps-of-0": ("simulate", dict(t_end=1e-15)),
        # h |Re lambda| = 10 > 8: the mesh does not resolve the bbm kernel
        "coarser-than-the-tail-limit": ("simulate", dict(h=10.0, half=30.0)),
        "increasing-h_list": ("converge", dict(h_list="0.25, 0.5")),
        "zero-in-h_list": ("converge", dict(h_list="0.5, 0")),
        "decreasing-n_list": ("truncation", dict(n_list="48, 32")),
        "zero-in-n_list": ("truncation", dict(n_list="0, 32")),
        "rate-above-one": ("decay", dict(rate=1.5)),
        "negative-blow_up_threshold": ("simulate", dict(
            extra={"equation": "blow_up_threshold = -1"})),
        "zero-blow_up_threshold": ("simulate", dict(
            extra={"equation": "blow_up_threshold = 0"})),
        "nan-blow_up_threshold": ("simulate", dict(
            extra={"equation": "blow_up_threshold = nan"})),
        # N = 4e15: refused on construction, long before any allocation
        "oversize-grid": ("simulate", dict(half=1e15)),
        # keys and sections the loader does not read, removed ones included
        "initial_step": ("simulate",
                         dict(extra={"integrator": "initial_step = 0.01"})),
        "max_step": ("simulate", dict(extra={"integrator": "max_step = 0.1"})),
        "max_steps": ("simulate", dict(extra={"integrator": "max_steps = 100"})),
        "decay-scale": ("decay", dict(extra={"decay": "scale = 2.0"})),
        "decay-constant": ("decay", dict(extra={"decay": "constant = 5.0"})),
        "kernel-tv": ("simulate", dict(
            kernel=TRIANGLE_KERNEL,
            equation=CUSTOM_EQUATION + "\nkernel_derivative_total_variation = 5")),
        "misspelt-key": ("simulate", dict(extra={"integrator": "rel_tl = 1e-3"})),
        "unknown-section": ("simulate", dict(extra={"outptu": "dir = elsewhere"})),
        "key-of-another-kind": ("simulate", dict(
            equation="kind = rosenau\nx0 = -2.5\np = 2")),
        "duplicate-key": ("simulate", dict(extra={"grid": "h = 0.5"})),
        # custom kernel files the tabulated-kernel loader refuses
        "kernel-nan": ("simulate", dict(kernel="-1 0\n0 nan\n1 0\n",
                                        equation=CUSTOM_EQUATION)),
        "kernel-inf": ("simulate", dict(kernel="-1 0\n0 inf\n1 0\n",
                                        equation=CUSTOM_EQUATION)),
        "kernel-duplicate-node": ("simulate", dict(
            kernel="-1 0\n0 1\n0 1\n1 0\n", equation=CUSTOM_EQUATION)),
        "kernel-comments-only": ("simulate", dict(
            kernel="# x value\n# no rows\n", equation=CUSTOM_EQUATION)),
        "kernel-empty": ("simulate", dict(kernel="", equation=CUSTOM_EQUATION)),
        "kernel-missing": ("simulate", dict(equation=CUSTOM_EQUATION)),
        "kernel-directory": ("simulate", dict(equation=CUSTOM_EQUATION.replace(
            "kernel.txt", "."))),
        "nan-initial_width": ("simulate", dict(
            kernel=TRIANGLE_KERNEL, equation=CUSTOM_EQUATION + "\ninitial_width = nan")),
        # non-finite profile keys would integrate a NaN, zero or constant state
        "nan-initial_amplitude": ("simulate", dict(
            kernel=TRIANGLE_KERNEL,
            equation=CUSTOM_EQUATION + "\ninitial_amplitude = nan")),
        "inf-initial_center": ("simulate", dict(
            kernel=TRIANGLE_KERNEL, equation=CUSTOM_EQUATION + "\ninitial_center = inf")),
        "inf-initial_width": ("simulate", dict(
            kernel=TRIANGLE_KERNEL, equation=CUSTOM_EQUATION + "\ninitial_width = inf")),
        "zero-initial_width": ("simulate", dict(
            kernel=TRIANGLE_KERNEL, equation=CUSTOM_EQUATION + "\ninitial_width = 0")),
        "unknown-initial": ("simulate", dict(
            kernel=TRIANGLE_KERNEL, equation=CUSTOM_EQUATION + "\ninitial = box")),
        "malformed-term": ("simulate", dict(
            kernel=TRIANGLE_KERNEL,
            equation=CUSTOM_EQUATION.replace("1:1.0", "2-1.0"))),
        "nan-coefficient": ("simulate", dict(
            kernel=TRIANGLE_KERNEL,
            equation=CUSTOM_EQUATION.replace("1:1.0", "1:nan"))),
    }
    # cases whose refusal must name the offending key
    MESSAGES = {"nan-initial_width": "width",
                "zero-initial_width": "width must be positive",
                "unknown-initial": "unknown initial profile kind 'box'",
                "malformed-term": "bad term '2-1.0'",
                "nan-coefficient": "coefficients must be finite",
                "nan-initial_amplitude": "initial_amplitude",
                "inf-initial_center": "initial_center",
                "inf-initial_width": "initial_width",
                "coarser-than-the-tail-limit": r"h \|Re lambda\| = 10 > 8"}

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_rejected_before_any_output(self, tmp_path, capsys, case):
        command, overrides = self.BAD_INPUTS[case]
        cfg, _ = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=self.MESSAGES.get(case)):
            load_run_config(cfg)
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("nlwave: config error: ")
        assert set(os.listdir(tmp_path)) <= {"run.ini", "kernel.txt"}

    @pytest.mark.parametrize("h, refused", [(10.0, 10.0), (0.25, 20.0)])
    def test_refusal_names_the_first_refused_h_in_config_order(self, tmp_path, h, refused):
        # h = 20 and h = 10 are both too coarse for bbm; the [grid] h is
        # checked first, then h_list in its order
        cfg, _ = write_config(tmp_path, half=40.0, h=h, h_list="20, 10")
        with pytest.raises(ConfigError, match=re.escape(
                f"h = {refused}: h |Re lambda| = {refused:g} > 8: the mesh is too coarse")):
            load_run_config(cfg)

    # (command, overrides, message): a config that loads, but that the
    # command refuses with exit 2 before writing anything
    REFUSED_BY_COMMAND = {
        "truncation-without-n_list": ("truncation", dict(n_list=""),
                                      "truncation needs a [study] n_list"),
        "decay-without-rate": ("decay", dict(rate=""), "decay needs a [decay] section"),
        # the self-refinement reference at h = 0.1 lacks nodes of h = 0.25
        "custom-converge-not-nested": ("converge", dict(
            kernel=TRIANGLE_KERNEL, equation=CUSTOM_EQUATION, half=1.0,
            h_list="0.25, 0.2", t_end=0.1), "self-refinement requires nested grids"),
    }

    @pytest.mark.parametrize("case", sorted(REFUSED_BY_COMMAND))
    def test_refused_by_the_command_without_output(self, tmp_path, capsys, monkeypatch,
                                                   case):
        command, overrides, message = self.REFUSED_BY_COMMAND[case]
        cfg, _ = write_config(tmp_path, **overrides)
        load_run_config(cfg)
        # refused before anything integrates
        monkeypatch.setattr(nlwave.experiments, "integrate", None)
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("nlwave: config error: ") and message in err
        assert set(os.listdir(tmp_path)) <= {"run.ini", "kernel.txt"}


def minimal_config(tmp_path, kind, blank=None):
    """The config of ``kind`` with only the keys that have no default;
    ``blank`` names a ``(section, key)`` written with no value."""
    sections = {"equation": {"kind": kind},
                "grid": {"domain_half_width": "12", "h": "0.25"},
                "time": {"t_end": "1"}}
    if blank:
        section, key = blank
        sections.setdefault(section, {})[key] = ""
    path = tmp_path / "minimal.ini"
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()))
    return str(path)


class TestDefaults:
    # an absent key keeps the default of the class it sets, and a blank
    # value is an absent key
    @pytest.mark.parametrize("kind, problem", [("bbm", bbm_problem),
                                               ("rosenau", rosenau_problem)])
    def test_absent_keys_keep_the_owners_defaults(self, tmp_path, kind, problem):
        cfg = load_run_config(minimal_config(tmp_path, kind))
        assert cfg.problem == problem()
        assert cfg.integrator == IntegratorConfig()
        assert cfg == RunConfig(problem=problem(), domain_half_width=12.0,
                                h=0.25, t_end=1.0)
        assert cfg.study() is cfg  # the benchmark's set-up probe still calls it

    @pytest.mark.parametrize("section, key", [
        ("output", "dir"), ("equation", "c"), ("equation", "x0"),
        ("equation", "p"), ("integrator", "rel_tol"), ("integrator", "abs_tol"),
        ("equation", "blow_up_threshold"),
        ("time", "snapshots"), ("study", "h_list"), ("study", "n_list"),
        ("decay", "rate")])
    def test_blank_value_keeps_the_owners_default(self, tmp_path, section, key):
        cfg = load_run_config(minimal_config(tmp_path, "bbm", (section, key)))
        assert cfg.output_dir == "nlwave-out"
        assert cfg.problem == bbm_problem()
        assert cfg.integrator == IntegratorConfig()
        assert cfg == load_run_config(minimal_config(tmp_path, "bbm"))

    @pytest.mark.parametrize("section, key, message", [
        ("grid", "h", "missing a required argument: 'h'"),
        ("time", "t_end", "missing a required argument: 't_end'"),
        ("equation", "kind", "equation kind must be bbm, rosenau or custom")])
    def test_blank_required_key_is_refused(self, tmp_path, section, key, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_run_config(minimal_config(tmp_path, "bbm", (section, key)))


@pytest.mark.parametrize("command", ["simulate", "decay", "converge", "truncation"])
def test_every_summary_reports_the_five_run_facts(tmp_path, command):
    # one value each for a single run, one list over the grids for a sweep
    cfg, outdir = write_config(tmp_path)
    assert main([command, "--config", cfg]) == 0
    summary = read_json(os.path.join(outdir, "summary.json"))
    facts = [summary[key] for key in ("accepted_steps", "rejected_steps",
                                      "rhs_calls", "fft_length", "convolution")]
    if command in ("converge", "truncation"):
        assert len(facts[0]) == 2
    else:
        facts = [[fact] for fact in facts]
    for accepted, rejected, calls, length, path in zip(*facts, strict=True):
        assert accepted > 0
        assert calls == 12 * accepted + 11 * rejected + 1
        assert (length, path) == (None, "tail")


class TestConverge:
    def test_two_h_rows_and_rate(self, tmp_path):
        cfg, outdir = write_config(tmp_path, h_list="0.5, 0.25")
        assert main(["converge", "--config", cfg]) == 0
        header, rows = read_csv(os.path.join(outdir, "convergence.csv"))
        assert header == ["h", "N", "linf_error", "rho_vs_previous",
                          "accepted_steps", "wall_seconds"]
        assert len(rows) == 2
        assert rows[0][3] == ""  # first row has no previous h
        rho = float(rows[1][3])
        assert 1.0 < rho < 3.0
        # full round-trip float formatting
        assert float(rows[0][0]) == 0.5
        assert float(rows[1][2]) > 0.0
        summary = read_json(os.path.join(outdir, "summary.json"))
        assert summary["convolution"] == ["tail", "tail"]
        assert summary["fft_length"] == [None, None]
        for row, calls in zip(rows, summary["rhs_calls"], strict=True):
            rejections = calls - 12 * int(row[4]) - 1  # 11 calls each
            assert rejections >= 0 and rejections % 11 == 0

    def test_single_h_empty_rate_field(self, tmp_path):
        cfg, outdir = write_config(tmp_path, h_list="0.25")
        assert main(["converge", "--config", cfg]) == 0
        _, rows = read_csv(os.path.join(outdir, "convergence.csv"))
        assert len(rows) == 1
        assert rows[0][3] == ""

    def test_zero_horizon_sweep_has_no_rates(self, tmp_path):
        # every error is 0 at t_end = 0, where no observed order is defined
        cfg, outdir = write_config(tmp_path, t_end=0.0, h_list="0.5, 0.25")
        assert main(["converge", "--config", cfg]) == 0
        _, rows = read_csv(os.path.join(outdir, "convergence.csv"))
        assert [(float(r[2]), r[3]) for r in rows] == [(0.0, ""), (0.0, "")]
        summary = read_json(os.path.join(outdir, "summary.json"))
        assert summary["errors"] == [0.0, 0.0]
        assert summary["rates"] == [None, None]

    def test_deterministic_modulo_timing(self, tmp_path):
        cfg, outdir = write_config(tmp_path, h_list="0.5, 0.25")
        assert main(["converge", "--config", cfg]) == 0
        hdr, rows1 = read_csv(os.path.join(outdir, "convergence.csv"))
        assert main(["converge", "--config", cfg]) == 0
        _, rows2 = read_csv(os.path.join(outdir, "convergence.csv"))
        timing = hdr.index("wall_seconds")
        for r1, r2 in zip(rows1, rows2):
            assert r1[:timing] == r2[:timing]


class TestTruncation:
    def test_rows_and_diagnostics(self, tmp_path):
        cfg, outdir = write_config(tmp_path, n_list="32, 48")
        assert main(["truncation", "--config", cfg]) == 0
        header, rows = read_csv(os.path.join(outdir, "truncation.csv"))
        assert header == ["N", "domain_half_width", "linf_error", "delta",
                          "eps_delta"]
        assert [int(r[0]) for r in rows] == [32, 48]
        assert float(rows[0][1]) == 8.0
        assert float(rows[0][3]) >= float(rows[1][3])  # delta shrinks
        summary = read_json(os.path.join(outdir, "summary.json"))
        assert summary["convolution"] == ["tail", "tail"]
        assert summary["fft_length"] == [None, None]
        assert len(summary["rhs_calls"]) == 2 and min(summary["rhs_calls"]) > 0

    def test_grids_past_the_old_tail_cap_stay_on_the_tail(self, tmp_path):
        # 2 N h = 480 at N = 600 puts e^{2Nh} past 1e200, where the FFT path
        # used to take over; blocked tail sums keep both grids on the tail
        cfg, outdir = write_config(tmp_path, h=0.4, n_list="500, 600", t_end=2.0)
        assert main(["truncation", "--config", cfg]) == 0
        summary = read_json(os.path.join(outdir, "summary.json"))
        assert summary["convolution"] == ["tail", "tail"]
        assert summary["fft_length"] == [None, None]

    def test_zero_horizon_sweep_has_no_plateau(self, tmp_path):
        cfg, outdir = write_config(tmp_path, t_end=0.0, n_list="32, 48")
        assert main(["truncation", "--config", cfg]) == 0
        summary = read_json(os.path.join(outdir, "summary.json"))
        assert summary["errors"] == [0.0, 0.0]
        assert summary["plateau_onset"] is None

    def test_single_n(self, tmp_path):
        cfg, outdir = write_config(tmp_path, n_list="48")
        assert main(["truncation", "--config", cfg]) == 0
        _, rows = read_csv(os.path.join(outdir, "truncation.csv"))
        assert len(rows) == 1

    def test_byte_identical_reruns(self, tmp_path):
        cfg, outdir = write_config(tmp_path, n_list="32, 48")
        assert main(["truncation", "--config", cfg]) == 0
        blob = read_bytes(os.path.join(outdir, "truncation.csv"))
        assert main(["truncation", "--config", cfg]) == 0
        assert read_bytes(os.path.join(outdir, "truncation.csv")) == blob


class TestDecay:
    def test_holds_with_admissible_rate(self, tmp_path):
        # x0 = -3, t_end = 1: the run ends well short of the mirror-symmetric
        # configuration, so the frozen t=0 envelope keeps a margin
        cfg, outdir = write_config(tmp_path, t_end=1.0,
                                   snapshots="0, 0.5, 1", rate=0.5)
        assert main(["decay", "--config", cfg]) == 0
        header, rows = read_csv(os.path.join(outdir, "decay.csv"))
        assert header == ["t", "worst_ratio", "worst_x", "holds"]
        assert len(rows) == 3
        assert rows[0][3] == "true"
        assert float(rows[0][1]) == 1.0  # calibration snapshot is tight
        summary = read_json(os.path.join(outdir, "summary.json"))
        assert summary["holds_at_all_snapshots"] is True
        assert summary["holds_where_exact_has_headroom"] is True
        assert summary["accepted_steps"] > 0
        assert summary["rhs_calls"] == (12 * summary["accepted_steps"]
                                        + 11 * summary["rejected_steps"] + 1)
        assert summary["fft_length"] is None  # bbm takes the tail path
        assert summary["convolution"] == "tail"

    def test_wide_domain_ratios_are_finite(self, tmp_path):
        # on half-width 1000, exp(0.9 |x|) overflows past |x| = 789; the
        # ratios must stay finite and summary.json strict JSON
        cfg, outdir = write_config(tmp_path, half=1000.0, t_end=1.0, snapshots="0, 1",
                                   rate=0.9, equation=BBM_EQUATION.replace("-3.0", "-18.0"))
        assert main(["decay", "--config", cfg]) == 0
        _, rows = read_csv(os.path.join(outdir, "decay.csv"))
        assert rows[0][1:] == ["1.0", "-1000.0", "true"]
        assert math.isfinite(float(rows[1][1])) and rows[1][3] in ("true", "false")

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")
        with open(os.path.join(outdir, "summary.json")) as fh:
            summary = json.load(fh, parse_constant=refuse)
        # the t=0 wave 1.2 sech^2((x + 18) / 3) is 4.8 e^{-2 |x + 18| / 3}
        # out there, so the constant is its numerator at x = -1000
        assert math.log(summary["constant"]) == pytest.approx(
            math.log(4.8) - 2 * 982 / 3 + 0.9 * 1000, rel=1e-13)

    def test_zero_initial_data_custom(self, tmp_path):
        kfile = tmp_path / "kernel.txt"
        kfile.write_text("-1 0\n0 1\n1 0\n")
        path = tmp_path / "zero.ini"
        path.write_text(
            "[equation]\nkind = custom\nkernel_file = kernel.txt\n"
            "nonlinearity = 1:1.0\ninitial = gaussian\n"
            "initial_amplitude = 0.0\n"
            "[grid]\ndomain_half_width = 8\nh = 0.5\n"
            "[time]\nt_end = 0.5\n[decay]\nrate = 0.5\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert main(["decay", "--config", str(path)]) == 0
        _, rows = read_csv(tmp_path / "out" / "decay.csv")
        assert all(r[3] == "true" for r in rows)
        summary = read_json(tmp_path / "out" / "summary.json")
        assert summary["holds_where_exact_has_headroom"] is None  # no oracle


class TestCustomEquation:
    def test_tabulated_kernel_end_to_end(self, tmp_path):
        kfile = tmp_path / "kernel.txt"
        nodes = np.linspace(-5.0, 5.0, 201)
        vals = np.maximum(0.0, 1.0 - np.abs(nodes) / 5.0) / 5.0
        kfile.write_text(
            "# pyramid kernel\n"
            + "\n".join(f"{float(x)!r} {float(v)!r}" for x, v in zip(nodes, vals))
        )
        path = tmp_path / "custom.ini"
        outdir = tmp_path / "out"
        path.write_text(
            "[equation]\nkind = custom\nkernel_file = kernel.txt\n"
            "nonlinearity = 1:1.0, 2:0.2\ninitial = sech\n"
            "initial_amplitude = 0.5\ninitial_width = 1.0\n"
            "[grid]\ndomain_half_width = 10\nh = 0.25\n"
            "[time]\nt_end = 1.0\n"
            "[study]\nh_list = 0.5, 0.25\nn_list = 20, 40\n"
            f"[output]\ndir = {outdir}\n"
        )
        assert main(["simulate", "--config", str(path)]) == 0
        profiles = [f for f in os.listdir(outdir) if f.startswith("profile_")]
        header, _ = read_csv(os.path.join(outdir, profiles[0]))
        assert header == ["x", "numeric"]  # no exact oracle
        # self-refinement errors in the convergence study
        assert main(["converge", "--config", str(path)]) == 0
        _, rows = read_csv(os.path.join(outdir, "convergence.csv"))
        assert float(rows[0][2]) > float(rows[1][2]) > 0.0
        # the truncation study needs an exact wave: a config error, no output
        assert main(["truncation", "--config", str(path)]) == 2
        assert not (outdir / "truncation.csv").exists()

    def test_tall_top_hat_runs(self, tmp_path):
        # its stencil norm at h = 0.3 is its derivative total variation,
        # 2e8, which no build-time bound may refuse by rounding
        cfg, outdir = write_config(tmp_path, kernel="-0.3 1e8\n0.3 1e8\n",
                                   equation=CUSTOM_EQUATION, h=0.3, t_end=1e-6)
        assert main(["simulate", "--config", cfg]) == 0
        assert read_json(os.path.join(outdir, "summary.json"))["t_end"] == 1e-6


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def readme_block(language):
    """The body of README.md's one fenced block of ``language``."""
    with open(README, encoding="utf-8") as fh:
        (block,) = re.findall(rf"^```{language}\n(.*?)^```", fh.read(), re.M | re.S)
    return block


class TestReadme:
    def test_config_example_loads(self, tmp_path):
        path = tmp_path / "example.ini"
        path.write_text(readme_block("ini"))
        cfg = load_run_config(str(path))
        assert cfg.problem.name == "bbm" and cfg.h == 0.25
        assert cfg.snapshot_times == (0.0, 10.0, 20.0)
        assert cfg.h_list == (0.4, 0.2, 0.1, 0.05) and len(cfg.n_list) == 11
        assert cfg.decay_rate == 0.9

    def test_library_example_prints_the_amplitude(self, capsys):
        exec(readme_block("python"), {})
        assert float(capsys.readouterr().out) == pytest.approx(1.2, abs=0.01)


class TestShippedConfigs:
    def test_all_shipped_configs_parse(self):
        names = sorted(f for f in os.listdir(CONFIG_DIR) if f.endswith(".ini"))
        assert len(names) == 8
        for name in names:
            cfg = load_run_config(os.path.join(CONFIG_DIR, name))
            assert cfg.problem.name in ("bbm", "rosenau")
            if "convergence" in name:
                assert len(cfg.h_list) >= 3
            if "truncation" in name:
                assert len(cfg.n_list) >= 9
            if "decay" in name:
                assert cfg.decay_rate == 0.9

    @pytest.mark.parametrize("name", ["bbm_decay.ini", "rosenau_decay.ini"])
    def test_decay_configs_hold_where_exact_has_headroom(self, tmp_path, name):
        # both horizons end at the mirror image of the initial state, where
        # the t=0 envelope binds the exact wave with no headroom
        cfg = os.path.join(CONFIG_DIR, name)
        assert main(["decay", "--config", cfg, "--output", str(tmp_path)]) == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["holds_at_all_snapshots"] is False
        assert summary["holds_where_exact_has_headroom"] is True

    # each benchmark workload's calls (perfbench/workloads.py) and the number
    # of systems they build
    WORKLOAD_CALLS = {
        "sweep-bbm": ((("truncation", "bbm_truncation.ini"),
                       ("converge", "bbm_convergence.ini")), 15),
        "sweep-rosenau": ((("truncation", "rosenau_truncation.ini"),
                           ("converge", "rosenau_convergence.ini")), 12),
        "profiles": ((("simulate", "bbm_profile.ini"), ("simulate", "rosenau_profile.ini"),
                      ("decay", "bbm_decay.ini"), ("decay", "rosenau_decay.ini")), 4),
    }

    @pytest.mark.parametrize("workload", sorted(WORKLOAD_CALLS))
    def test_setup_probe_builds_every_workload_system(self, workload):
        # the benchmark times set-up with this script; it must keep working
        # against the current configuration layer and build_system
        calls, systems = self.WORKLOAD_CALLS[workload]
        root = os.path.join(os.path.dirname(__file__), "..")
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "setup_probe.py"),
             os.path.join(root, "src")]
            + [f"{command}:{os.path.join(CONFIG_DIR, ini)}" for command, ini in calls],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["systems"] == systems

    def test_tracer_finds_every_hook_point(self):
        # the benchmark's per-layer figures come from these hooks; one whose
        # function has left src/ only prints a line and blanks its figures
        root = os.path.join(os.path.dirname(__file__), "..")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path[:0] = sys.argv[1:]\n"
             "from tracer import Tracer\n"
             "with Tracer().hooks():\n    pass\n",
             os.path.join(root, "src"), os.path.join(root, "perfbench")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_bbm_convergence_study_end_to_end(self, tmp_path):
        cfg = os.path.join(CONFIG_DIR, "bbm_convergence.ini")
        assert main(["converge", "--config", cfg, "--output",
                     str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "convergence.csv")
        assert len(rows) == 4
        rhos = [float(r[3]) for r in rows[1:]]
        assert all(1.8 <= rho <= 2.2 for rho in rhos)

    def test_bbm_truncation_study_end_to_end(self, tmp_path):
        cfg = os.path.join(CONFIG_DIR, "bbm_truncation.ini")
        assert main(["truncation", "--config", cfg, "--output",
                     str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "truncation.csv")
        errors = [float(r[2]) for r in rows]
        assert len(errors) == 11
        # monotone fall to the plateau, then under 10 percent variation
        assert errors[0] > errors[1] > errors[2] > errors[3]
        plateau = errors[3:]
        assert (max(plateau) - min(plateau)) / min(plateau) < 0.10
        summary = read_json(tmp_path / "summary.json")
        assert 220 <= summary["plateau_onset"] <= 320


def readme_example(language="ini"):
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        return re.search(rf"```{language}\n(.*?)```", fh.read(), re.S).group(1)


def docstring_example():
    block = nlwave.config.__doc__.split("::\n\n", 1)[1]
    lines = []
    for line in block.splitlines():
        if line and not line.startswith("    "):
            break
        lines.append(line)
    return textwrap.dedent("\n".join(lines))


def readme_config_section():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        return re.search(r"### Config format\n(.*?)\n## ", fh.read(), re.S).group(1)


class TestDocumentedExamples:
    def test_readme_names_every_key(self):
        # the README says that any section or key it does not name is refused
        text = readme_config_section()
        tables = [*_KEYS.items(), *(("equation", t) for t in _EQUATION_KEYS.values())]
        for section, table in tables:
            assert f"[{section}]" in text
            for key in table:
                assert re.search(rf"\b{key}\b", text), key
        for kind in _EQUATION_KEYS:
            assert re.search(rf"\b{kind}\b", text), kind


    # unknown keys are refused, so an example that loads names only keys
    # the loader reads
    @pytest.mark.parametrize("example", [readme_example, docstring_example],
                             ids=["readme", "config-docstring"])
    def test_example_loads(self, tmp_path, example):
        path = tmp_path / "example.ini"
        path.write_text(re.sub(r"[ \t]*;.*", "", example()))
        cfg = load_run_config(str(path))
        assert cfg.problem.name == "bbm"
        assert cfg.decay_rate == 0.9
        assert os.listdir(tmp_path) == ["example.ini"]

    def test_library_example_runs(self, capsys):
        namespace = {}
        exec(readme_example("python"), namespace)
        peak = float(capsys.readouterr().out)
        assert peak == namespace["traj"].final.values.max()
        assert peak == pytest.approx(1.2, rel=0.02)  # the wave amplitude


def run_module(*args):
    """``python -m nlwave`` in a child that imports the package this test
    imported, as pytest's pythonpath setting does not reach a subprocess."""
    src = os.path.dirname(os.path.dirname(nlwave.cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "nlwave", *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg, outdir = write_config(tmp_path, t_end=0.5)
        proc = run_module("simulate", "--config", cfg)
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(os.path.join(outdir, "summary.json"))

    def test_overflowing_stencil_refused_without_a_warning(self, tmp_path):
        # a top hat of height 1e308 at h = 0.25: its difference quotients
        # overflow to inf, which is a config error, and numpy says nothing
        cfg, outdir = write_config(tmp_path, equation=CUSTOM_EQUATION, half=2.0,
                                   kernel="-1 1e308\n1 1e308\n")
        proc = run_module("simulate", "--config", cfg)
        assert proc.returncode == 2
        # the loader's three-node check passes h = 0.25, whose stencil stays
        # inside the table, and refuses h_list's 0.5
        assert proc.stderr == "nlwave: config error: h = 0.5: the stencil's transform overflows\n"
        assert not os.path.exists(outdir)

    def test_stencil_whose_transform_overflows_refused_without_a_warning(self, tmp_path):
        # the same top hat at h = 0.5 and 1: its difference quotients are
        # finite, but their FFT overflows on every grid, from the loader's
        # three-node check to the run's N = 250
        cfg, outdir = write_config(tmp_path, equation=CUSTOM_EQUATION, half=125.0, h=0.5,
                                   h_list="1.0, 0.5", kernel="-1 1e308\n1 1e308\n")
        proc = run_module("simulate", "--config", cfg)
        assert proc.returncode == 2
        assert proc.stderr == "nlwave: config error: h = 0.5: the stencil's transform overflows\n"
        assert not os.path.exists(outdir)

    def test_enormous_finite_f_of_the_initial_state_fails_the_integration(self, tmp_path):
        # a top hat of height 1e300: |f(y0)| is finite, but its scaled norm
        # overflows, and the first step underflows; no traceback
        equation = (CUSTOM_EQUATION.replace("1:1.0", "1:1.0, 2:1.0") + "\ninitial = sech"
                    "\ninitial_amplitude = 0.3\ninitial_width = 2.0")
        cfg, outdir = write_config(tmp_path, equation=equation, half=10.0, h=0.25,
                                   kernel="-1 1e300\n1 1e300\n")
        proc = run_module("simulate", "--config", cfg)
        assert proc.returncode == 1
        assert proc.stderr == ("nlwave: integration failed: step size underflow at t=0 "
                               "on the N=40 grid\n")
        assert not os.path.exists(outdir)
