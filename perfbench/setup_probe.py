"""Time the set-up of one workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <src_dir> <command>:<ini> ...

Imports ``nlwave`` from ``src_dir``, loads each config and calls
``build_system`` for every grid the command integrates, then prints the
elapsed seconds as JSON.  Interpreter start-up is not included.
"""

import json
import sys
import time


def main(argv):
    start = time.perf_counter()
    sys.path.insert(0, argv[0])
    from nlwave import build_system
    from nlwave.config import load_run_config

    systems = 0
    for call in argv[1:]:
        command, ini = call.split(":", 1)
        cfg = load_run_config(ini)
        study = cfg.study()
        if command == "converge":
            grids = [study.grid(h=h) for h in cfg.h_list]
        elif command == "truncation":
            grids = [study.grid(n_half=n) for n in cfg.n_list]
        else:
            grids = [study.grid()]
        for grid in grids:
            build_system(cfg.problem.kernel, grid, cfg.problem.nonlinearity,
                         blow_up_threshold=cfg.blow_up_threshold,
                         fast_mode=cfg.fast_mode)
            systems += 1
    print(json.dumps({"setup_s": time.perf_counter() - start, "systems": systems}))


if __name__ == "__main__":
    main(sys.argv[1:])
