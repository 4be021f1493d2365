"""Run one complete set: ``python3 benchmarks/e2e/runset.py set-a.jsonl``.

Every workload on seeds 1 to 10, untraced, plus one traced run of each on
seed 1; one process per run, one record per run appended to the file
(the format ``compare.py`` reads).  About 25 minutes.
"""

from __future__ import annotations

import os
import subprocess
import sys

from run import HERE, load_contract

SEEDS = range(1, 11)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    failed = 0
    for seed in SEEDS:
        for workload in load_contract()["workloads"]:
            for trace in (0, 1) if seed == SEEDS[0] else (0,):
                done = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload["name"], "--seed", str(seed),
                     "--trace", str(trace), "--out", argv[0]],
                    stdout=subprocess.DEVNULL,
                )
                print(f"{workload['name']} seed {seed} trace {trace}: "
                      f"exit {done.returncode}", flush=True)
                failed += done.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
