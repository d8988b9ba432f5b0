"""Regenerate ``expected.json``: every op's result hash per workload and
database seed, computed under two ``PYTHONHASHSEED`` values that must agree.

    python3 calbench/gen_expected.py [workload ...]

Run it only on a commit whose simulated results are the reference; a
change to any hash is a semantic change and must be declared.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import DB_SEEDS, WORKLOADS  # noqa: E402

HASH_SEEDS = ("0", "1")


def hashes(workload, seed, hash_seed):
    os.environ["PYTHONHASHSEED"] = hash_seed
    work = os.path.join(run.ROOT, ".calbench-work", f"gen-{os.getpid()}")
    os.makedirs(work)
    try:
        _, result = run.measure(workload, seed, 0, False, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {r["key"]: r["hash"] for r in result["passes"][0]["records"]}


def main(names):
    path = os.path.join(HERE, "expected.json")
    with open(path) as fh:
        expected = json.load(fh)
    for name in names or sorted(WORKLOADS):
        table = expected.setdefault(name, {})
        for index, seed in enumerate(DB_SEEDS):
            runs = [hashes(name, index, h) for h in HASH_SEEDS]
            if runs[0] != runs[1] or None in runs[0].values():
                raise SystemExit(f"{name} db seed {seed}: hashes differ "
                                 f"across PYTHONHASHSEED {HASH_SEEDS}")
            table[str(seed)] = runs[0]
            print(f"{name} db seed {seed}: {len(runs[0])} ops, identical "
                  f"under PYTHONHASHSEED {', '.join(HASH_SEEDS)}")
    with open(path, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
