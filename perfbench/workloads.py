"""The four benchmark workloads: inputs, one timed pass, per-op checks.

Ops call the program through its public entry points, looked up on the
modules at call time so that the tracer's wrappers (see tracer.py) are
seen when installed and the unmodified functions run otherwise.  Only the
program call is timed; reading outputs back and checking them is not.

An op fails on a non-zero exit, a certificate cardinality above the mode
cap, a verify verdict other than PASS, a long-lived H1 count that differs
from the known Z/2 answer, or output bytes that differ from the pinned
digest of the same op.  A failure is *known* when it is one of the two
defects the program has at the reference commit: exit 3 (ambiguous
branching) on a projected circle loop, and a wrong H1 count from an n=2
probe (scale 0.2; always at 120 landmarks, at some seeds also at 48).
Known failures are counted, never hidden.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from ranspace import cli, homology, io as rio, moves, tracks
from ranspace.space import Circle

import inputs

EXIT_AMBIGUOUS = 3
_CALIBRATION_DATA = np.random.default_rng(12345).random(200_000)


def host_sample() -> float:
    """Seconds for a fixed numpy kernel that shares nothing with the
    program (median of three).  Taken before every op, it tracks the
    host's speed, which drifts by up to half within minutes; run.py
    scales timings by it (see README.md, Noise)."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        a = np.sort(_CALIBRATION_DATA)
        (a * 2.0 + 1.0).sum()
        np.minimum(a, 0.5).max()
        times.append(time.perf_counter() - started)
    return sorted(times)[1]


@dataclass
class Op:
    label: str
    seconds: float = 0.0
    ok: bool = True
    known_defect: bool = False
    reason: str = ""
    digest: str | None = None
    cells: int = 0
    simplices: int = 0

    def fail(self, reason: str, known: bool = False) -> None:
        self.ok = False
        self.known_defect = known
        self.reason = reason


@dataclass
class Pass:
    ops: list = field(default_factory=list)
    verify_s: float = 0.0
    host: list = field(default_factory=list)  # host_sample() before each op

    @property
    def wall_s(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def cells(self) -> int:
        return sum(op.cells for op in self.ops)

    @property
    def simplices(self) -> int:
        return sum(op.simplices for op in self.ops)


def sha256_file(path) -> str:
    with open(path, "rb") as fp:
        return hashlib.sha256(fp.read()).hexdigest()


def run_cli(args: list) -> tuple:
    """Invoke the CLI in-process; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main(args, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is an op failure, not a harness crash
            err.write(f"{type(exc).__name__}: {exc}")
            code = 1
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - started


def read_certificate(path) -> dict:
    """The certificate object, which the writer emits as the last key."""
    with open(path, "rb") as fp:
        data = fp.read()
    tail = data[data.rindex(b'"certificate"'):].rstrip()
    return json.loads(b"{" + tail)["certificate"]


class ContractCircle:
    """CLI contract --mode inclusion on the one-turn loop plus 23 projected
    based circle bundles: the only workload on the raw-track path."""

    name = "contract-circle"
    resolution = (48, 128)

    def prepare(self, seed: int, workdir) -> None:
        self.jobs = inputs.write_circle_docs(seed, workdir)
        self.workdir = workdir

    def run_pass(self) -> Pass:
        p = Pass()
        r, m = self.resolution
        for i, (cap, path) in enumerate(self.jobs):
            out = self.workdir / f"homotopy{i:02d}.json"
            out.unlink(missing_ok=True)
            p.host.append(host_sample())
            code, _, err, secs = run_cli(
                ["contract", str(path), "--mode", "inclusion", "--cap", str(cap),
                 "--resolution", str(r), str(m), "--out", str(out)]
            )
            op = Op(f"contract op {i} (n={cap})", secs)
            if code != 0:
                op.fail(f"exit {code}: {err.strip()[:120]}", known=code == EXIT_AMBIGUOUS)
            else:
                op.digest = sha256_file(out)
                cert = read_certificate(out)
                if cert["max_cardinality"] > moves.Inclusion(cap).declared_cap:
                    op.fail(f"max cardinality {cert['max_cardinality']} above cap")
                op.cells = (cert["stages"][-1][2] + 1) * (m + 1)
            p.ops.append(op)
        return p


class ContractTheta:
    """contract_pipeline in simply-connected mode on based theta-graph
    bundles, then the JSON document written: the graph-point workload."""

    name = "contract-theta"
    resolution = (32, 96)
    mode = moves.SimplyConnected(inputs.THETA_N)

    def prepare(self, seed: int, workdir) -> None:
        self.theta = inputs.theta_graph()
        self.theta.vertex_distance_matrix()
        self.bundles = inputs.theta_bundles(seed, self.theta)
        self.base = self.theta.vertex_point(0)
        self.workdir = workdir

    def run_pass(self) -> Pass:
        p = Pass()
        for i, bundle in enumerate(self.bundles):
            out = self.workdir / f"theta{i}.json"
            op = Op(f"theta op {i}")
            p.host.append(host_sample())
            started = time.perf_counter()
            try:
                h, cert = moves.contract_pipeline(bundle, self.mode, self.base, resolution=self.resolution)
                doc = rio.homotopy_to_json(h, cert.as_dict())
                with open(out, "w") as fp:
                    rio.dump(doc, fp)
            except Exception as exc:  # any raise is a failed op
                op.seconds = time.perf_counter() - started
                op.fail(f"{type(exc).__name__}: {exc}")
                p.ops.append(op)
                continue
            op.seconds = time.perf_counter() - started
            op.digest = sha256_file(out)
            op.cells = h.rows * len(h.t_grid)
            if cert.max_cardinality > self.mode.declared_cap:
                op.fail(f"max cardinality {cert.max_cardinality} above cap")
            p.ops.append(op)
        return p


class Certify512:
    """The 512x512 one-turn contraction certified and written, then CLI
    verify on the 12 MB document: grid, dedup and continuity bound."""

    name = "certify-512"
    resolution = (512, 512)
    bound = 4.0

    def prepare(self, seed: int, workdir) -> None:
        # the one-turn generator takes no random input: every seed runs it
        self.space = Circle(1.0)
        self.doc_path = workdir / "generator512.json"

    def run_pass(self) -> Pass:
        p = Pass()
        build = Op("generator 512x512 build, certify, write")
        self.doc_path.unlink(missing_ok=True)
        p.host.append(host_sample())
        started = time.perf_counter()
        try:
            h = moves.contract_circle_generator(1, self.resolution, self.space)
            report = tracks.check_continuity(h, self.bound)
            doc = rio.homotopy_to_json(h, report.as_dict())
            with open(self.doc_path, "w") as fp:
                rio.dump(doc, fp)
        except Exception as exc:  # any raise is a failed op
            build.seconds = time.perf_counter() - started
            build.fail(f"{type(exc).__name__}: {exc}")
            p.ops.append(build)
            return p
        build.seconds = time.perf_counter() - started
        build.cells = h.rows * len(h.t_grid)
        del h, doc
        build.digest = sha256_file(self.doc_path)
        if not report.passed:
            build.fail(f"continuity bound {self.bound} failed: max gap {report.max_gap}")
        elif report.max_cardinality > 3:
            build.fail(f"max cardinality {report.max_cardinality} above cap 3")
        p.ops.append(build)

        p.host.append(host_sample())
        code, out, err, secs = run_cli(["verify", str(self.doc_path), "--bound", str(self.bound)])
        verify = Op("CLI verify --bound 4", secs)
        verdict = out.strip().splitlines()[-1] if out.strip() else ""
        if code != 0 or verdict != "PASS":
            verify.fail(f"exit {code}, verdict {verdict!r}: {err.strip()[:120]}")
        p.ops.append(verify)
        p.verify_s = secs
        return p


class HomologyRips:
    """CLI homology at four (n, m, landmarks, max-scale) points: sampling,
    Hausdorff cloud, landmarks, Rips filtration and the Z/2 reduction."""

    name = "homology-rips"

    def prepare(self, seed: int, workdir) -> None:
        self.seed = seed
        self.simplices = []
        space = Circle(1.0)
        for n, m, landmarks, scale in inputs.HOMOLOGY_PROBES:
            cloud = homology.sample_ran(space, n=n, m=m, seed=seed)
            cloud = homology.maxmin_subsample(cloud, landmarks, seed=seed)
            self.simplices.append(homology.count_simplices(cloud, scale))

    def run_pass(self) -> Pass:
        p = Pass()
        for i, (n, m, landmarks, scale) in enumerate(inputs.HOMOLOGY_PROBES):
            p.host.append(host_sample())
            code, out, err, secs = run_cli(
                ["homology", "--n", str(n), "--m", str(m), "--landmarks", str(landmarks),
                 "--max-scale", str(scale), "--seed", str(self.seed)]
            )
            op = Op(f"homology op {i} (n={n}, m={m}, landmarks={landmarks}, scale={scale})", secs)
            want = 1 if n <= 2 else 0
            if code != 0:
                op.fail(f"exit {code}: {err.strip()[:120]}")
            else:
                op.digest = hashlib.sha256(out.encode()).hexdigest()
                op.simplices = self.simplices[i]
                last = out.strip().splitlines()[-1] if out.strip() else ""
                prefix = "long-lived H1 classes: "
                got = int(last[len(prefix):]) if last.startswith(prefix) and last[len(prefix):].isdigit() else None
                if got != want:
                    op.fail(f"long-lived H1 count {got}, known answer {want}", known=n == 2)
            p.ops.append(op)
        return p


WORKLOADS = {w.name: w for w in (ContractCircle, ContractTheta, Certify512, HomologyRips)}
