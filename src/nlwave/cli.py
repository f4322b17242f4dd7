"""Command-line front end: study dispatch and output writing.

Subcommands: ``simulate``, ``converge``, ``truncation``, ``decay``.  Each
takes ``--config <file>`` plus an optional ``--output`` override.  A bad
config, or inputs a study refuses, exit 2; a failed integration or write
exits 1.  Each command returns its CSV tables and summary fields, and
``main`` renders every file before it writes any, into a temporary
directory beside the output directory, then moves each file into place and
removes the command outputs of earlier runs that it did not rewrite.
All numeric CSV fields use full round-trip decimal formatting, so re-running
a config reproduces the files byte for byte (the wall-seconds timing column
is the one exception).
"""

import argparse
import fnmatch
import json
import math
import os
import shutil
import sys
import tempfile

from .analytic import calibrate_envelope, check_decay, evaluate_solitary
from .config import ConfigError, RunConfig, load_run_config
from .discrete import SampledSequence
from .experiments import (
    plateau_onset,
    run_h_refinement,
    run_profile_study,
    run_truncation_study,
)
from .integrator import StepFailureError
from .system import BlowUpError, discrete_mass

__all__ = ["main"]

# An exact-wave envelope ratio this close to 1 is a rounding tie with the
# calibration constant, not headroom.
ENVELOPE_TIE = 1e-9

# The names of the files the commands write besides summary.json.
_OUTPUT_PATTERNS = ("profile_*_t*.csv", "convergence.csv", "truncation.csv",
                    "decay.csv")


def _fmt(value) -> str:
    """Round-trip decimal formatting for CSV cells."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


def _write_outputs(outdir: str, texts: dict) -> None:
    """Write every file into a temporary directory beside ``outdir``, then
    move each into place; the temporary directory never outlives the call.

    Once every new file is in place, command outputs of earlier runs that
    this run did not rewrite are removed, so the directory holds one run's
    files; other files stay.
    """
    parent = os.path.dirname(os.path.abspath(outdir))
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".nlwave-", dir=parent)
    try:
        for name, text in texts.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        os.makedirs(outdir, exist_ok=True)
        for name in texts:
            os.replace(os.path.join(tmp, name), os.path.join(outdir, name))
        for name in os.listdir(outdir):
            if name not in texts and any(
                    fnmatch.fnmatchcase(name, p) for p in _OUTPUT_PATTERNS):
                os.remove(os.path.join(outdir, name))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _snapshot_name(index: int, t: float) -> str:
    return f"profile_{index:02d}_t{t:g}.csv"


def _common_payload(cfg: RunConfig, command: str) -> dict:
    return {
        "command": command,
        "equation": cfg.problem.name,
        "domain_half_width": cfg.domain_half_width,
        "h": cfg.h,
        "t_end": cfg.t_end,
        "rel_tol": cfg.integrator.rel_tol,
        "abs_tol": cfg.integrator.abs_tol,
    }


def _run_facts(record) -> dict:
    """A run's step and RHS counts and its convolution path."""
    return {key: getattr(record, key) for key in (
        "accepted_steps", "rejected_steps", "rhs_calls", "fft_length", "convolution")}


def _sweep_facts(records) -> dict:
    """The ``_run_facts`` of a sweep, one list over its grids per fact."""
    facts = [_run_facts(rec) for rec in records]
    return {key: [f[key] for f in facts] for key in facts[0]}


def cmd_simulate(cfg: RunConfig):
    traj, record = run_profile_study(cfg)
    wave = cfg.problem.wave
    tables = {}
    for idx, (t, state) in enumerate(zip(traj.times, traj.states)):
        x = state.grid.nodes
        if wave is not None:
            exact = evaluate_solitary(wave, x, t)
            header = ["x", "numeric", "exact"]
            rows = list(zip(x.tolist(), state.values.tolist(), exact.tolist()))
        else:
            header = ["x", "numeric"]
            rows = list(zip(x.tolist(), state.values.tolist()))
        tables[_snapshot_name(idx, t)] = (header, rows)

    err = record.linf_error
    mass0, mass1 = discrete_mass(traj.states[0]), discrete_mass(traj.final)
    drift = abs(mass1 - mass0)  # absolute when the initial mass is zero
    return tables, {
        "profiles": list(tables),
        "snapshot_times": list(traj.times),
        "linf_error": None if math.isnan(err) else err,
        **_run_facts(record),
        "mass_initial": mass0,
        "mass_final": mass1,
        "relative_mass_drift": drift / abs(mass0) if mass0 != 0.0 else drift,
        "wall_seconds": record.wall_time,
    }


def cmd_converge(cfg: RunConfig):
    if not cfg.h_list:
        raise ConfigError("converge needs a [study] h_list")
    entries = run_h_refinement(cfg, cfg.h_list)
    rows = []
    for record, rate in entries:
        rows.append(
            (
                record.h,
                record.n_half,
                record.linf_error,
                "" if rate is None else rate,
                record.accepted_steps,
                record.wall_time,
            )
        )
    header = ["h", "N", "linf_error", "rho_vs_previous", "accepted_steps",
              "wall_seconds"]
    return {"convergence.csv": (header, rows)}, {
        "h_list": list(cfg.h_list),
        "errors": [rec.linf_error for rec, _ in entries],
        "rates": [rate for _, rate in entries],
        **_sweep_facts([rec for rec, _ in entries]),
    }


def cmd_truncation(cfg: RunConfig):
    if not cfg.n_list:
        raise ConfigError("truncation needs a [study] n_list")
    records = run_truncation_study(cfg, cfg.n_list)
    rows = [
        (
            rec.record.n_half,
            rec.record.n_half * rec.record.h,
            rec.record.linf_error,
            rec.delta,
            rec.eps_delta,
        )
        for rec in records
    ]
    header = ["N", "domain_half_width", "linf_error", "delta", "eps_delta"]
    return {"truncation.csv": (header, rows)}, {
        "n_list": list(cfg.n_list),
        "errors": [rec.record.linf_error for rec in records],
        "plateau_onset": plateau_onset(records),
        **_sweep_facts([rec.record for rec in records]),
    }


def cmd_decay(cfg: RunConfig):
    if cfg.decay_rate is None:
        raise ConfigError("decay needs a [decay] section with a rate")
    traj, record = run_profile_study(cfg)
    envelope = calibrate_envelope(traj.states[0], cfg.decay_rate,
                                  cfg.problem.envelope_scale)
    wave = cfg.problem.wave
    rows = []
    headroom_holds = []  # at snapshots where the exact wave has headroom
    for t, state in zip(traj.times, traj.states):
        report = check_decay(state, envelope)
        if wave is not None:
            exact = SampledSequence(
                state.grid, evaluate_solitary(wave, state.grid.nodes, t))
            if check_decay(exact, envelope).worst_ratio < 1.0 - ENVELOPE_TIE:
                headroom_holds.append(report.holds)
        rows.append(
            (t, report.worst_ratio, report.worst_index * state.grid.h, report.holds)
        )
    return {"decay.csv": (["t", "worst_ratio", "worst_x", "holds"], rows)}, {
        "rate": envelope.rate,
        "scale": envelope.scale,
        "constant": envelope.constant,
        "holds_at_all_snapshots": all(holds for *_, holds in rows),
        "holds_where_exact_has_headroom":
            all(headroom_holds) if headroom_holds else None,
        **_run_facts(record),
    }


_COMMANDS = {
    "simulate": cmd_simulate,
    "converge": cmd_converge,
    "truncation": cmd_truncation,
    "decay": cmd_decay,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlwave",
        description="Solitary-wave experiment suite for nonlocal "
        "unidirectional wave equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run one simulation and write profile CSVs"),
        ("converge", "mesh-refinement error study"),
        ("truncation", "domain-truncation error study"),
        ("decay", "decay-envelope check along a run"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the INI run config")
        p.add_argument("--output", default=None, help="output directory override")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config)
        tables, payload = _COMMANDS[args.command](cfg)
        texts = {name: _csv_text(*table) for name, table in tables.items()}
        summary = {**_common_payload(cfg, args.command), **payload}
        texts["summary.json"] = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        _write_outputs(args.output or cfg.output_dir, texts)
    except ValueError as exc:  # a ConfigError, or inputs a study refuses
        print(f"nlwave: config error: {exc}", file=sys.stderr)
        return 2
    except (BlowUpError, StepFailureError) as exc:
        print(f"nlwave: integration failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"nlwave: i/o error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
