"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload contract-circle --seed 0 --seconds 25 --trace 0

One process runs one workload in a closed loop: one client, one thread,
the next op only after the previous one returned.  Passes over the
workload's op list repeat until the next pass would overrun --seconds
(at least three passes untraced, one pair traced).

--trace 0 prints the end-to-end metrics, measured untraced: the median
pass wall time, set-up time in fresh processes and peak resident memory.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced passes, the workload-specific end-to-end figures of
the untraced passes, and the tracing overhead.  Times are scaled to the
reference host speed (HOST_REF_S over the median host_sample() of the
pass, see workloads.py); the raw pass times are printed as records.

Every line before the last is a human-readable record (environment,
failed ops); the last line is the result object.  The exit code is 0
whenever a result is printed, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("contract-circle", "contract-theta", "certify-512", "homology-rips")
SETUP_PROBES = 5  # at least; one runs before every pass, to sample the whole run
HOST_REF_S = 0.00225  # workloads.host_sample() on the reference host at its usual speed
MIN_PASSES = 3


def commit_hash() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    from importlib.metadata import version

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": version("click"),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": commit_hash(),
        "seed": seed,
    }


def measure_setup(workload: str) -> float:
    """Wall time of a fresh process that imports the CLI and builds the
    workload's spaces (setup_probe.py), interpreter start-up included."""
    started = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload], check=True, cwd=ROOT)
    return time.perf_counter() - started


def check_outputs(passes: list, pinned: list | None) -> list:
    """Fail ops whose bytes differ from the pin or from the first pass.

    Returns a description of every such difference; a pinned op that fails
    now is a regression, never a known defect.
    """
    problems = []
    first = passes[0].ops
    for p in passes:
        for i, op in enumerate(p.ops):
            want = pinned[i] if pinned is not None else None
            if want is not None and not op.ok and op.known_defect:
                op.known_defect = False
                problems.append(f"{op.label}: passed at the reference commit, now {op.reason}")
            elif want is not None and op.ok and op.digest != want:
                op.fail("output bytes differ from the pinned digest")
                problems.append(f"{op.label}: bytes differ from the pinned digest")
            elif i < len(first) and op.digest != first[i].digest:
                op.fail("output bytes differ between passes")
                problems.append(f"{op.label}: bytes differ between passes")
    return problems


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    import tracer as tracer_mod
    import workloads

    workdir = HERE / ".work" / f"{workload_name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env = environment(seed)
        print(json.dumps({"env": env}), flush=True)
        setup_times = []
        workload = workloads.WORKLOADS[workload_name]()
        workload.prepare(seed, workdir)

        untraced, traced_passes, tracers = [], [], []
        started = time.perf_counter()
        while True:
            lap = time.perf_counter()
            if not traced:
                setup_times.append(measure_setup(workload_name))
            untraced.append(workload.run_pass())
            if traced:
                t = tracer_mod.Tracer()
                t.install()
                try:
                    traced_passes.append(workload.run_pass())
                finally:
                    t.remove()
                tracers.append(t)
            lap = time.perf_counter() - lap
            spent = time.perf_counter() - started
            enough = traced or len(untraced) >= MIN_PASSES
            if enough and spent + lap > seconds:
                break
        while not traced and len(setup_times) < SETUP_PROBES:
            setup_times.append(measure_setup(workload_name))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    pins = json.loads((HERE / "pins.json").read_text()).get(workload_name, {})
    pinned = pins.get(str(seed), pins.get("*"))
    passes = untraced + traced_passes
    problems = check_outputs(passes, pinned)
    # one count per op of the workload, failed if it failed in any pass, so
    # that attempted and failed do not depend on how many passes fit the run
    # (an unknown failure outranks a known defect, which outranks a pass)
    ops = {}
    for op in (op for p in passes for op in p.ops):
        kept = ops.get(op.label)
        if kept is None or (not op.ok and (kept.ok or (kept.known_defect and not op.known_defect))):
            ops[op.label] = op
    failed = [op for op in ops.values() if not op.ok]
    unknown = [op for op in failed if not op.known_defect]
    for op in failed:
        kind = "known defect" if op.known_defect else "FAILURE"
        print(f"failed op [{kind}] {op.label}: {op.reason}")
    for line in problems:
        print(f"output check: {line}")
    if pinned is None:
        print(f"output check: no pinned digests for seed {seed}; bytes compared between passes only")

    # timings are scaled to the reference host speed, pass by pass
    def speed(passes):
        return HOST_REF_S / statistics.median(x for p in passes for x in p.host)

    def scaled(p):
        return p.wall_s * speed([p])

    wall = statistics.median(scaled(p) for p in untraced)
    print("pass wall times (s):", " ".join(f"{p.wall_s:.4f}" for p in untraced))
    print("host speed per pass:", " ".join(f"{speed([p]):.4f}" for p in untraced))
    if not traced:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setup_times) * speed(untraced), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        per_layer = [t.metrics() for t in tracers]
        traced_speed = speed(traced_passes)
        metrics = {
            name: (statistics.median(m[name][0] for m in per_layer) * (traced_speed if unit == "s" else 1), unit)
            for name, (_, unit) in per_layer[0].items()
        }
        metrics["trace.overhead_s"] = (statistics.median(scaled(p) for p in traced_passes) - wall, "s")
        metrics["host.speed"] = (speed(untraced + traced_passes), "ratio")
        metrics["cells_per_s"] = (statistics.median(p.cells / scaled(p) for p in untraced), "cells/s")
        metrics["verify_s"] = (statistics.median(p.verify_s * speed([p]) for p in untraced), "s")
        metrics["simplices_per_s"] = (statistics.median(p.simplices / scaled(p) for p in untraced), "simplices/s")
        metrics["failed_share"] = (len(failed) / len(ops), "ratio")
    return {
        "correct": not unknown,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ranspace" / "__init__.py").is_file():
        print(f"ranspace sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
