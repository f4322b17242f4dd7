"""Command-line front end: study dispatch and CSV emission.

Subcommands: ``simulate``, ``converge``, ``truncation``, ``decay``.  Each
takes ``--config <file>`` plus optional ``--output`` and ``--fast-conv``
overrides.  All numeric CSV fields use full round-trip decimal formatting,
so re-running a config reproduces the files byte for byte (the
wall-seconds timing column is the one exception).
"""

import argparse
import dataclasses
import json
import math
import os
import sys

from .analytic import (
    DecayEnvelope,
    calibrate_envelope,
    check_decay,
    evaluate_solitary,
)
from .config import ConfigError, RunConfig, load_run_config
from .experiments import (
    plateau_onset,
    run_h_refinement,
    run_profile_study,
    run_truncation_study,
)
from .integrator import StepFailureError
from .system import BlowUpError

__all__ = ["main"]


def _fmt(value) -> str:
    """Round-trip decimal formatting for CSV cells."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_summary(outdir, payload):
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
        "fast_conv": cfg.fast_mode,
    }


def cmd_simulate(cfg: RunConfig, outdir: str) -> int:
    study = run_profile_study(cfg.study())
    traj = study.trajectory
    wave = cfg.problem.wave
    files = []
    rows_by_file = {}
    for idx, (t, state) in enumerate(zip(traj.times, traj.states)):
        x = state.grid.nodes
        if wave is not None:
            exact = evaluate_solitary(wave, x, t)
            header = ["x", "numeric", "exact"]
            rows = list(zip(x.tolist(), state.values.tolist(), exact.tolist()))
        else:
            header = ["x", "numeric"]
            rows = list(zip(x.tolist(), state.values.tolist()))
        name = _snapshot_name(idx, t)
        files.append(name)
        rows_by_file[name] = (header, rows)

    os.makedirs(outdir, exist_ok=True)
    for name, (header, rows) in rows_by_file.items():
        _write_csv(os.path.join(outdir, name), header, rows)
    payload = _common_payload(cfg, "simulate")
    err = study.record.linf_error
    payload.update(
        {
            "profiles": files,
            "snapshot_times": list(traj.times),
            "linf_error": None if math.isnan(err) else err,
            "accepted_steps": study.record.accepted_steps,
            "rejected_steps": traj.rejected_steps,
            "mass_initial": study.mass_initial,
            "mass_final": study.mass_final,
            "relative_mass_drift": study.relative_mass_drift,
            "wall_seconds": study.record.wall_time,
        }
    )
    _write_summary(outdir, payload)
    return 0


def cmd_converge(cfg: RunConfig, outdir: str) -> int:
    if not cfg.h_list:
        raise ConfigError("converge needs a [study] h_list")
    entries = run_h_refinement(cfg.study(), cfg.h_list)
    rows = []
    for record, rate in entries:
        rows.append(
            (
                record.h,
                record.n_half,
                record.linf_error,
                "" if rate is None else _fmt(rate.rho),
                record.accepted_steps,
                record.wall_time,
            )
        )
    os.makedirs(outdir, exist_ok=True)
    _write_csv(
        os.path.join(outdir, "convergence.csv"),
        ["h", "N", "linf_error", "rho_vs_previous", "accepted_steps",
         "wall_seconds"],
        rows,
    )
    payload = _common_payload(cfg, "converge")
    payload.update(
        {
            "h_list": list(cfg.h_list),
            "errors": [rec.linf_error for rec, _ in entries],
            "rates": [None if rate is None else rate.rho for _, rate in entries],
        }
    )
    _write_summary(outdir, payload)
    return 0


def cmd_truncation(cfg: RunConfig, outdir: str) -> int:
    if not cfg.n_list:
        raise ConfigError("truncation needs a [study] n_list")
    records = run_truncation_study(cfg.study(), cfg.n_list)
    rows = [
        (
            rec.record.n_half,
            rec.domain_half_width,
            rec.record.linf_error,
            rec.delta,
            rec.eps_delta,
        )
        for rec in records
    ]
    os.makedirs(outdir, exist_ok=True)
    _write_csv(
        os.path.join(outdir, "truncation.csv"),
        ["N", "domain_half_width", "linf_error", "delta", "eps_delta"],
        rows,
    )
    payload = _common_payload(cfg, "truncation")
    payload.update(
        {
            "n_list": list(cfg.n_list),
            "errors": [rec.record.linf_error for rec in records],
            "plateau_onset": plateau_onset(records),
        }
    )
    _write_summary(outdir, payload)
    return 0


def cmd_decay(cfg: RunConfig, outdir: str) -> int:
    if cfg.decay_rate is None:
        raise ConfigError("decay needs a [decay] section with a rate")
    study = run_profile_study(cfg.study())
    traj = study.trajectory
    scale = cfg.decay_scale or cfg.problem.envelope_scale
    if cfg.decay_constant is not None:
        envelope = DecayEnvelope(
            rate=cfg.decay_rate, scale=scale, constant=cfg.decay_constant
        )
    else:
        envelope = calibrate_envelope(traj.states[0], cfg.decay_rate, scale)
    rows = []
    all_hold = True
    for t, state in zip(traj.times, traj.states):
        report = check_decay(state, envelope)
        all_hold &= report.holds
        rows.append(
            (t, report.worst_ratio, report.worst_index * state.grid.h, report.holds)
        )
    os.makedirs(outdir, exist_ok=True)
    _write_csv(
        os.path.join(outdir, "decay.csv"),
        ["t", "worst_ratio", "worst_x", "holds"],
        rows,
    )
    payload = _common_payload(cfg, "decay")
    payload.update(
        {
            "rate": envelope.rate,
            "scale": envelope.scale,
            "constant": envelope.constant,
            "holds_at_all_snapshots": bool(all_hold),
        }
    )
    _write_summary(outdir, payload)
    return 0


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
        p.add_argument("--fast-conv", choices=("auto", "on", "off"), default=None,
                       help="convolution path selection")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config)
    except ConfigError as exc:
        print(f"nlwave: config error: {exc}", file=sys.stderr)
        return 2

    if args.fast_conv is not None:
        cfg = dataclasses.replace(cfg, fast_mode=args.fast_conv)
    outdir = args.output or os.environ.get("NLWAVE_OUTPUT") or cfg.output_dir

    try:
        return _COMMANDS[args.command](cfg, outdir)
    except ConfigError as exc:
        print(f"nlwave: config error: {exc}", file=sys.stderr)
        return 2
    except (BlowUpError, StepFailureError) as exc:
        print(f"nlwave: integration failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"nlwave: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
