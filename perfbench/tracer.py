"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each layer's public functions with timing
wrappers, on every module that binds the name (``dedup`` is imported into
``ran``, ``tracks``, ``moves`` and ``homology``, for instance) and on the
classes for methods.  ``Tracer.remove`` puts every original back and
checks that it did, so an untraced pass runs the unmodified program.

Spans are aggregated in memory per name: calls, inclusive seconds (a
recursive call is timed once, at its outermost frame) and self seconds
(the span minus its direct child spans).  Counts that the layers return,
such as simplices or pairs, are added by per-name hooks.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from ranspace import cli, homology, io, moves, ran, space, tracks

# span name -> (function name, modules that bind it)
FUNCTIONS = {
    "ran.dedup": ("dedup", (ran, tracks, moves, homology)),
    "ran.hausdorff": ("hausdorff", (ran, tracks, moves)),
    "tracks.check_continuity": ("check_continuity", (tracks, moves, cli)),
    "tracks.batch_hausdorff": ("batch_hausdorff", (tracks, homology)),
    "tracks.stack_homotopies": ("stack_homotopies", (tracks, moves)),
    "moves.normalize": ("normalize", (moves,)),
    "moves.extract_strands": ("extract_strands", (moves,)),
    "moves.contract_pipeline": ("contract_pipeline", (moves, cli)),
    "moves.contract_circle_generator": ("contract_circle_generator", (moves,)),
    "io.track_from_json": ("track_from_json", (io, cli)),
    "io.homotopy_to_json": ("homotopy_to_json", (io, cli)),
    "io.homotopy_from_json": ("homotopy_from_json", (io, cli)),
    "io.dump": ("dump", (io, cli)),
    "io.load": ("load", (io, cli)),
    "homology.sample_ran": ("sample_ran", (homology, cli)),
    "homology.cloud_from_configs": ("cloud_from_configs", (homology,)),
    "homology.maxmin_subsample": ("maxmin_subsample", (homology, cli)),
    "homology.count_simplices": ("count_simplices", (homology,)),
    "homology.filtration": ("_filtration", (homology,)),
    "homology.reduction": ("rips_persistence_h1", (homology, cli)),
}

# span name -> (method name, classes); graph calls are also counted apart
METHODS = {
    "space.canon": ("canon", (space.Circle, space.Interval, space.MetricGraph)),
    "space.distance": ("distance", (space.Circle, space.Interval, space.MetricGraph)),
    "space.geodesic": ("geodesic", (space.Circle, space.Interval, space.MetricGraph)),
    "tracks.interp": ("many", (tracks.StrandInterpolator,)),
}

COMMANDS = {"cli.contract": "contract", "cli.verify": "verify", "cli.homology": "homology"}

# per-layer metric -> (span or count name, field, unit); field is one of
# calls, s (inclusive seconds), self_s or count
METRICS = {
    "space.canon.calls": ("space.canon", "calls", "count"),
    "space.canon.graph_calls": ("space.canon.graph", "calls", "count"),
    "space.canon.s": ("space.canon", "s", "s"),
    "space.distance.calls": ("space.distance", "calls", "count"),
    "space.distance.graph_calls": ("space.distance.graph", "calls", "count"),
    "space.distance.s": ("space.distance", "s", "s"),
    "space.geodesic.calls": ("space.geodesic", "calls", "count"),
    "ran.dedup.calls": ("ran.dedup", "calls", "count"),
    "ran.dedup.s": ("ran.dedup", "s", "s"),
    "ran.hausdorff.calls": ("ran.hausdorff", "calls", "count"),
    "ran.hausdorff.s": ("ran.hausdorff", "s", "s"),
    "tracks.check_continuity.calls": ("tracks.check_continuity", "calls", "count"),
    "tracks.check_continuity.s": ("tracks.check_continuity", "s", "s"),
    "tracks.batch_hausdorff.pairs": ("tracks.batch_hausdorff.pairs", "count", "count"),
    "tracks.batch_hausdorff.s": ("tracks.batch_hausdorff", "s", "s"),
    "tracks.interp.calls": ("tracks.interp", "calls", "count"),
    "tracks.interp.s": ("tracks.interp", "s", "s"),
    "tracks.stack_homotopies.s": ("tracks.stack_homotopies", "s", "s"),
    "moves.normalize.s": ("moves.normalize", "s", "s"),
    "moves.extract_strands.s": ("moves.extract_strands", "s", "s"),
    "moves.contract_pipeline.self_s": ("moves.contract_pipeline", "self_s", "s"),
    "moves.contract_circle_generator.self_s": ("moves.contract_circle_generator", "self_s", "s"),
    "moves.windows": ("moves.windows", "count", "count"),
    "moves.cells": ("moves.cells", "count", "count"),
    "io.track_from_json.s": ("io.track_from_json", "s", "s"),
    "io.homotopy_to_json.s": ("io.homotopy_to_json", "s", "s"),
    "io.homotopy_from_json.s": ("io.homotopy_from_json", "s", "s"),
    "io.dump.s": ("io.dump", "s", "s"),
    "io.dump.bytes": ("io.dump.bytes", "count", "bytes"),
    "io.load.s": ("io.load", "s", "s"),
    "homology.sample_ran.s": ("homology.sample_ran", "s", "s"),
    "homology.cloud_from_configs.s": ("homology.cloud_from_configs", "s", "s"),
    "homology.maxmin_subsample.s": ("homology.maxmin_subsample", "s", "s"),
    "homology.count_simplices.s": ("homology.count_simplices", "s", "s"),
    "homology.filtration.s": ("homology.filtration", "s", "s"),
    "homology.reduction.self_s": ("homology.reduction", "self_s", "s"),
    "homology.simplices": ("homology.simplices", "count", "count"),
    "homology.pairs": ("homology.pairs", "count", "count"),
    "cli.contract.s": ("cli.contract", "s", "s"),
    "cli.verify.s": ("cli.verify", "s", "s"),
    "cli.homology.s": ("cli.homology", "s", "s"),
}


def _homotopy_cells(h) -> int:
    return h.rows * len(h.t_grid)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._depth = defaultdict(int)
        self._children = []  # child-span seconds of each open span
        self._saved = []  # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, hook=None, is_method=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_method and isinstance(args[0], space.MetricGraph):
                tracer.calls[name + ".graph"] += 1
            tracer.calls[name] += 1
            tracer._depth[name] += 1
            tracer._children.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = tracer._children.pop()
                tracer._depth[name] -= 1
                if tracer._depth[name] == 0:
                    tracer.seconds[name] += elapsed
                tracer.self_seconds[name] += elapsed - children
                if tracer._children:
                    tracer._children[-1] += elapsed
            if hook is not None:
                hook(result, args)
            return result

        return wrapper

    def _hooks(self):
        counts = self.counts

        def pipeline(result, args):
            h, cert = result
            counts["moves.cells"] += _homotopy_cells(h)
            counts["moves.windows"] += sum(1 for s in cert.stages if s[0].startswith("contract-window-"))

        def generator(result, args):
            counts["moves.cells"] += _homotopy_cells(result)

        def pairs(result, args):
            counts["tracks.batch_hausdorff.pairs"] += len(result)

        def simplices(result, args):
            counts["homology.simplices"] += result

        def persistence(result, args):
            counts["homology.pairs"] += len(result)

        def dumped(result, args):
            # every document is dumped into a freshly opened file
            counts["io.dump.bytes"] += args[1].tell()

        return {
            "moves.contract_pipeline": pipeline,
            "moves.contract_circle_generator": generator,
            "tracks.batch_hausdorff": pairs,
            "homology.count_simplices": simplices,
            "homology.reduction": persistence,
            "io.dump": dumped,
        }

    # -- installing and removing -----------------------------------------

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        hooks = self._hooks()
        for name, (attr, modules) in FUNCTIONS.items():
            wrapped = self._wrap(name, getattr(modules[0], attr), hooks.get(name))
            for module in modules:
                self._replace(module, attr, wrapped)
        for name, (attr, classes) in METHODS.items():
            for cls in classes:
                self._replace(cls, attr, self._wrap(name, cls.__dict__[attr], is_method=True))
        for name, command in COMMANDS.items():
            cmd = cli.main.commands[command]
            self._replace(cmd, "callback", self._wrap(name, cmd.callback))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                raise RuntimeError(f"tracer left a wrapper on {owner!r}.{attr}")

    # -- reading ----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for metric, (name, fld, unit) in METRICS.items():
            if fld == "calls":
                value = self.calls[name]
            elif fld == "s":
                value = self.seconds[name]
            elif fld == "self_s":
                value = self.self_seconds[name]
            else:
                value = self.counts[name]
            out[metric] = (value, unit)
        return out
