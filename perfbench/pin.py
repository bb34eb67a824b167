"""Record the output digests that later runs must reproduce byte for byte.

    python3 perfbench/pin.py --seeds 0-31

Runs one untraced pass of every workload per seed and writes, for each op
that passes its checks, the SHA-256 of its output (the contract document,
the written homotopy document or the homology table) to pins.json.  Ops
that fail here are left unpinned, so fixing a known defect is not counted
as a byte change.  Run it only at a commit whose outputs are the reference.
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def pin(name: str, seed: int, workdir: Path) -> list:
    workload = workloads.WORKLOADS[name]()
    workload.prepare(seed, workdir)
    return [op.digest if op.ok else None for op in workload.run_pass().ops]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range FIRST-LAST")
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))
    workdir = HERE / ".work" / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    pins = {}
    try:
        # the generator workload takes no random input: one pin serves every seed
        pins["certify-512"] = {"*": pin("certify-512", 0, workdir)}
        for name in ("contract-circle", "contract-theta", "homology-rips"):
            pins[name] = {}
            for seed in range(first, last + 1):
                digests = pin(name, seed, workdir)
                pins[name][str(seed)] = digests
                print(name, seed, "unpinned ops:", [i for i, d in enumerate(digests) if d is None], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # a benchmark run still uses it
            pass
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
