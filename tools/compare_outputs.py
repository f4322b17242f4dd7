"""Run every shipped config against two source trees and compare the outputs.

Usage: python tools/compare_outputs.py PARENT_ROOT [CHANGE_ROOT]

Each root is a checkout of this repository; CHANGE_ROOT defaults to the one
holding this script.  Every ``configs/*.ini`` of a root runs with the command
its name implies (``*_profile`` simulate, ``*_convergence`` converge,
``*_truncation`` truncation, ``*_decay`` decay), on that root's ``src/``,
into a temporary directory.  CSV cells and JSON fields must then match
exactly, apart from the ``wall_seconds`` timing column and field; any other
file must match byte for byte.  Prints each differing file, then
``<n> files, <k> differ``, and exits 1 on any difference.
"""

import csv
import json
import os
import subprocess
import sys
import tempfile

COMMANDS = {"profile": "simulate", "convergence": "converge",
            "truncation": "truncation", "decay": "decay"}
IGNORED = "wall_seconds"


def run_configs(root: str, outdir: str) -> dict:
    """Run each config of ``root`` into ``outdir``; {relative path: full path}."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    configs = os.path.join(root, "configs")
    for name in sorted(os.listdir(configs)):
        stem, ext = os.path.splitext(name)
        if ext != ".ini":
            continue
        command = COMMANDS[stem.rsplit("_", 1)[-1]]
        subprocess.run([sys.executable, "-m", "nlwave", command, "--config",
                        os.path.join(configs, name), "--output", os.path.join(outdir, stem)],
                       env=env, cwd=outdir, check=True, stdout=subprocess.DEVNULL)
    return {os.path.relpath(os.path.join(d, f), outdir): os.path.join(d, f)
            for d, _, files in os.walk(outdir) for f in files}


def _content(path: str):
    """The file's content as compared: CSV rows and JSON without the timing."""
    if path.endswith(".csv"):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        keep = [i for i, name in enumerate(rows[0] if rows else []) if name != IGNORED]
        return [[row[i] for i in keep] for row in rows]
    if path.endswith(".json"):
        with open(path) as fh:
            return _drop_timing(json.load(fh))
    with open(path, "rb") as fh:
        return fh.read()


def _drop_timing(value):
    if isinstance(value, dict):
        return {k: _drop_timing(v) for k, v in value.items() if k != IGNORED}
    if isinstance(value, list):
        return [_drop_timing(v) for v in value]
    return value


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    roots = [os.path.abspath(args[0]),
             os.path.abspath(args[1] if len(args) == 2
                             else os.path.join(os.path.dirname(__file__), ".."))]
    with tempfile.TemporaryDirectory() as parent_out, tempfile.TemporaryDirectory() as change_out:
        parent, change = (run_configs(root, out)
                          for root, out in zip(roots, (parent_out, change_out)))
        names = sorted(parent.keys() | change.keys())
        differ = [name for name in names if name not in parent or name not in change
                  or _content(parent[name]) != _content(change[name])]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(names)} files, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
