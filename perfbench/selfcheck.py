"""Check that the workload inputs are a pure function of the seed.

    python3 perfbench/selfcheck.py

For every seeded workload, one seed must give byte-identical inputs on two
calls and another seed must give different inputs.  certify-512 runs the
one-turn generator, which takes no random input, and is not checked.
Exits 1 on the first violation.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
from ranspace.io import point_to_json  # noqa: E402


def circle_bytes(seed: int) -> bytes:
    return json.dumps(inputs.circle_loop_docs(seed)).encode()


def theta_bytes(seed: int) -> bytes:
    bundles = inputs.theta_bundles(seed, inputs.theta_graph())
    return json.dumps([[[point_to_json(p) for p in s] for s in b.strands] for b in bundles]).encode()


def homology_bytes(seed: int) -> bytes:
    # the probe's inputs are its CLI arguments; sampling happens in the program
    return json.dumps([list(probe) + [seed] for probe in inputs.HOMOLOGY_PROBES]).encode()


GENERATORS = {"contract-circle": circle_bytes, "contract-theta": theta_bytes, "homology-rips": homology_bytes}


def main(seeds=(0, 1)) -> int:
    a, b = seeds
    for name, gen in GENERATORS.items():
        first = gen(a)
        if gen(a) != first:
            print(f"selfcheck FAIL: {name} inputs differ between two calls with seed {a}")
            return 1
        if gen(b) == first:
            print(f"selfcheck FAIL: {name} inputs identical for seeds {a} and {b}")
            return 1
        print(f"selfcheck ok: {name} ({len(first)} input bytes, seed {a} repeatable, seed {b} differs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
