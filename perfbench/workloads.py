"""Workloads built from the shipped configs, and the correctness gate.

Each workload is a fixed list of ``nlwave`` CLI calls on ``configs/*.ini``.
The seed shifts the wave start ``x0`` by a whole multiple of the coarsest
mesh of the equation (0.4 for bbm, 0.2 for rosenau), at most one mesh either
way; seed 0 keeps the shipped configs verbatim.
"""

import csv
import json
import math
import os
import random
import re

WORKLOADS = {
    # 11-run truncation sweep plus the 4-mesh refinement: N from 75 to 600,
    # quadratic f, FFT convolution dominates and the study pool is busiest.
    "sweep-bbm": (
        ("truncation", "bbm_truncation.ini"),
        ("converge", "bbm_convergence.ini"),
    ),
    # 9-run truncation sweep plus the 3-mesh refinement: N from 60 to 280,
    # quintic f, so the nonlinearity's share of the rhs is twice bbm's.
    "sweep-rosenau": (
        ("truncation", "rosenau_truncation.ini"),
        ("converge", "rosenau_convergence.ini"),
    ),
    # Four single integrations with snapshot clipping, profile CSVs and
    # decay checks; no study pool.
    "profiles": (
        ("simulate", "bbm_profile.ini"),
        ("simulate", "rosenau_profile.ini"),
        ("decay", "bbm_decay.ini"),
        ("decay", "rosenau_decay.ini"),
    ),
}

SHIFT_STEP = {"bbm": 0.4, "rosenau": 0.2}

# Pinned mesh-refinement errors of the shipped configs (the oracle of
# tests/test_acceptance.py), keyed by equation and h.
GOLDEN_ERRORS = {
    "bbm": {0.4: 1.214196e-01, 0.2: 3.082220e-02,
            0.1: 7.735983e-03, 0.05: 1.934918e-03},
    "rosenau": {0.2: 4.110781e-01, 0.1: 1.682023e-01, 0.05: 4.966584e-02},
}
# Golden tolerance: shipped inputs, and inputs shifted by whole meshes
# (the shift moves these errors by about 0.1%).
GOLDEN_REL = {False: 1e-3, True: 1e-2}
# The same grid reached by different commands (only snapshot clipping
# differs) agrees to about 1e-9.
SAME_GRID_REL = 1e-6
# Grids that two commands of one workload share: equation -> (h, N).
SHARED_GRID = {"bbm": (0.1, 300), "rosenau": (0.05, 240)}

_X0 = re.compile(r"^(x0\s*=\s*)(\S+)\s*$", re.MULTILINE)
_KIND = re.compile(r"^kind\s*=\s*(\w+)\s*$", re.MULTILINE)


def shifts_for_seed(seed: int) -> dict:
    """x0 shift per equation: 0 at seed 0, else -1, 0 or +1 coarsest meshes."""
    if seed == 0:
        return {kind: 0.0 for kind in SHIFT_STEP}
    rng = random.Random(seed)
    return {kind: step * rng.choice((-1, 1, 0)) for kind, step in SHIFT_STEP.items()}


def write_configs(workload: str, seed: int, config_dir: str, dest: str):
    """Write the workload's INI files for ``seed``; returns its call list.

    Each call is ``(command, ini_path, kind, shifted)``.
    """
    shifts = shifts_for_seed(seed)
    os.makedirs(dest, exist_ok=True)
    calls = []
    for command, name in WORKLOADS[workload]:
        with open(os.path.join(config_dir, name), encoding="utf-8") as fh:
            text = fh.read()
        kind = _KIND.search(text).group(1)
        shift = shifts[kind]
        if shift:
            match = _X0.search(text)
            x0 = round(float(match.group(2)) + shift, 12)
            text = text[: match.start(2)] + repr(x0) + text[match.end(2):]
        path = os.path.join(dest, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        calls.append((command, path, kind, bool(shift)))
    return calls


# ---------------------------------------------------------------- the gate


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def _finite_json(value) -> bool:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(_finite_json(v) for v in value)
    if isinstance(value, dict):
        return all(_finite_json(v) for v in value.values())
    return False


def _read_csv(path: str):
    """Rows of a CLI CSV as dicts of floats (empty cells and flags kept)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for row in rows:
        parsed = {}
        for key, cell in row.items():
            if cell in ("", "true", "false"):
                parsed[key] = cell
                continue
            value = float(cell)
            if not math.isfinite(value):
                raise ValueError(f"non-finite {key} in {os.path.basename(path)}")
            parsed[key] = value
        out.append(parsed)
    if not out:
        raise ValueError(f"{os.path.basename(path)} has no rows")
    return out


def check_outputs(command: str, kind: str, shifted: bool, outdir: str):
    """Check one call's outputs; returns (problems, facts).

    ``facts`` holds the error at the workload's shared grid, if this call
    computed it, for the cross-command check.
    """
    problems = []
    facts = {}
    try:
        with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        if not _finite_json(summary):
            problems.append("summary.json holds a non-finite value")
        tables = {name: _read_csv(os.path.join(outdir, name))
                  for name in sorted(os.listdir(outdir)) if name.endswith(".csv")}
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], facts

    h_shared, n_shared = SHARED_GRID[kind]
    rel = GOLDEN_REL[shifted]
    if command == "converge":
        rows = tables.get("convergence.csv", [])
        golden = GOLDEN_ERRORS[kind]
        if sorted(r["h"] for r in rows) != sorted(golden):
            problems.append("convergence.csv does not cover the golden meshes")
        for r in rows:
            want = golden.get(r["h"])
            if want is not None and not _close(r["linf_error"], want, rel):
                problems.append(f"converge h={r['h']}: error {r['linf_error']!r} "
                                f"vs golden {want!r} (rel {rel:g})")
            if r["h"] == h_shared:
                facts["shared_error"] = r["linf_error"]
    elif command == "truncation":
        rows = tables.get("truncation.csv", [])
        if [int(r["N"]) for r in rows] != summary.get("n_list"):
            problems.append("truncation.csv rows do not match the n_list")
        for r in rows:
            if not r["linf_error"] > 0:
                problems.append(f"truncation N={r['N']}: zero error")
            if int(r["N"]) == n_shared:
                facts["shared_error"] = r["linf_error"]
    elif command == "simulate":
        profiles = summary.get("profiles", [])
        if len(profiles) != len(summary.get("snapshot_times", ())) or not profiles:
            problems.append("simulate wrote no profile per snapshot")
        else:
            first, last = tables[profiles[0]], tables[profiles[-1]]
            if max(abs(r["numeric"] - r["exact"]) for r in first) != 0.0:
                problems.append("t=0 profile differs from the exact wave")
            err = max(abs(r["numeric"] - r["exact"]) for r in last)
            if not _close(err, summary["linf_error"], 1e-12):
                problems.append("final profile disagrees with summary linf_error")
            if len(first) == 2 * n_shared + 1:
                # same grid as the refinement study's finest rosenau mesh
                want = GOLDEN_ERRORS[kind][h_shared]
                if not _close(summary["linf_error"], want, rel):
                    problems.append(f"simulate error {summary['linf_error']!r} vs "
                                    f"golden {want!r} (rel {rel:g})")
    elif command == "decay":
        rows = tables.get("decay.csv", [])
        if not rows or rows[0]["t"] != 0.0 or not _close(rows[0]["worst_ratio"], 1.0, 1e-12):
            problems.append("decay envelope is not tight on its calibration state")
    return problems, facts


def check_shared_grid(facts_by_call):
    """Same grid reached by different commands: errors agree to SAME_GRID_REL."""
    errors = [f["shared_error"] for f in facts_by_call if "shared_error" in f]
    if len(errors) < 2:
        return []
    lo, hi = min(errors), max(errors)
    if not _close(lo, hi, SAME_GRID_REL):
        return [f"shared grid errors disagree: {errors!r}"]
    return []
