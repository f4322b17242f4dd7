"""Command-line interface: config validation, CSV output, determinism."""

import errno
import json
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import nlwave.cli
import nlwave.config
from nlwave.cli import main
from nlwave.config import ConfigError, load_run_config

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

    def test_zero_horizon_single_profile_zero_error(self, tmp_path):
        cfg, outdir = write_config(tmp_path, t_end=0.0)
        assert main(["simulate", "--config", cfg]) == 0
        profiles = [f for f in os.listdir(outdir) if f.startswith("profile_")]
        assert len(profiles) == 1
        summary = read_json(os.path.join(outdir, "summary.json"))
        assert summary["linf_error"] == 0.0

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
        "increasing-h_list": ("converge", dict(h_list="0.25, 0.5")),
        "zero-in-h_list": ("converge", dict(h_list="0.5, 0")),
        "decreasing-n_list": ("truncation", dict(n_list="48, 32")),
        "zero-in-n_list": ("truncation", dict(n_list="0, 32")),
        "rate-above-one": ("decay", dict(rate=1.5)),
        # N = 4e15: refused on construction, long before any allocation
        "oversize-grid": ("simulate", dict(half=1e15)),
        # keys and sections the loader does not read, removed ones included
        "initial_step": ("simulate",
                         dict(extra={"integrator": "initial_step = 0.01"})),
        "max_step": ("simulate", dict(extra={"integrator": "max_step = 0.1"})),
        "decay-scale": ("decay", dict(extra={"decay": "scale = 2.0"})),
        "decay-constant": ("decay", dict(extra={"decay": "constant = 5.0"})),
        "kernel-tv": ("simulate", dict(
            kernel=TRIANGLE_KERNEL,
            equation=CUSTOM_EQUATION + "\nkernel_derivative_total_variation = 5")),
        "misspelt-key": ("simulate", dict(extra={"integrator": "rel_tl = 1e-3"})),
        "unknown-section": ("simulate", dict(extra={"outptu": "dir = elsewhere"})),
        "key-of-another-kind": ("simulate", dict(
            equation="kind = rosenau\nx0 = -2.5\np = 2")),
        "fractional-max_steps": ("simulate",
                                 dict(extra={"integrator": "max_steps = 100000.5"})),
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
    }

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_rejected_before_any_output(self, tmp_path, capsys, case):
        command, overrides = self.BAD_INPUTS[case]
        cfg, _ = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError):
            load_run_config(cfg)
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("nlwave: config error: ")
        assert set(os.listdir(tmp_path)) <= {"run.ini", "kernel.txt"}


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

    def test_single_h_empty_rate_field(self, tmp_path):
        cfg, outdir = write_config(tmp_path, h_list="0.25")
        assert main(["converge", "--config", cfg]) == 0
        _, rows = read_csv(os.path.join(outdir, "convergence.csv"))
        assert len(rows) == 1
        assert rows[0][3] == ""

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


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


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

    def test_setup_probe_builds_every_bbm_sweep_system(self):
        # the benchmark times set-up with this script; it must keep working
        # against the current configuration layer
        root = os.path.join(os.path.dirname(__file__), "..")
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "setup_probe.py"),
             os.path.join(root, "src"),
             "converge:" + os.path.join(CONFIG_DIR, "bbm_convergence.ini"),
             "truncation:" + os.path.join(CONFIG_DIR, "bbm_truncation.ini")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["systems"] == 15

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


class TestDocumentedExamples:
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


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg, outdir = write_config(tmp_path, t_end=0.5)
        proc = subprocess.run(
            [sys.executable, "-m", "nlwave", "simulate", "--config", cfg],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(os.path.join(outdir, "summary.json"))
