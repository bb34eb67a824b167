"""Print every benchmark metric by name with its unit, and run the checks.

    python3 perfbench/report.py --seed 0 --seconds 20

Runs the input self-check, then run.py on every workload twice, untraced
(--trace 0, end-to-end metrics) and traced (--trace 1, per-layer
metrics), each in its own process, and prints one line per metric.
Exits 1 if the self-check fails or any run reports incorrect outputs.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import selfcheck
from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    status = selfcheck.main((args.seed, args.seed + 1))
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=True, cwd=HERE.parent,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            print(f"\n== {workload} --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for line in lines[:-1]:
                print(f"   {line}")
            for name, m in result["metrics"].items():
                print(f"{workload:16} {name:40} {m['value']:>16.10g} {m['unit']}")
            if not result["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
