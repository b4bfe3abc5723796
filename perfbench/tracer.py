"""Per-layer spans for the memdiff benchmark, recorded from outside the program.

``Tracer.install`` wraps the public functions listed in ``TARGETS``.  It
replaces each one in the class or module that defines it and in every
memdiff module that imported the name directly (``solve_densities`` lives
in ``semigroup`` and ``cli`` too, ``singular_rule`` in ``boundary_system``,
``potentials`` and ``parametrix``).  ``uninstall`` puts the originals back.

While a request is active, each call to a target records a span: id,
parent id, request id, layer name, start and end.  A span's self time is its
duration minus the time its child spans cover.  Calls and self times are
summed per layer for every span.  Spans are kept in memory, up to a cap,
and written to their own file when the run ends, apart from the metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


def _solve_after(tracer, frame, args, kwargs, result, state):
    tracer.counts["boundary_system.iterations"] += result.diagnostics.iterations


def _densities_after(tracer, frame, args, kwargs, result, state):
    if not frame[5]:  # no solve_densities span below this call
        tracer.counts["semigroup.densities.memo_hits"] += 1


def _table_before(args, kwargs):
    return {id(tab) for tab in args[0]._tables.values()}


def _table_after(tracer, frame, args, kwargs, result, cached):
    if id(result) not in cached:  # the kernel's cache gained or replaced a table
        tracer.counts["parametrix.table.builds"] += 1


def _simulate_after(tracer, frame, args, kwargs, result, state):
    names = ("problem", "s", "x", "t", "phi", "config")
    bound = dict(zip(names, args), **kwargs)
    dt = bound["config"].dt
    steps = max(1, int(math.ceil((bound["t"] - bound["s"]) / dt)))
    tracer.counts["mc_oracle.path_steps"] += result.paths * steps


def _main_after(tracer, frame, args, kwargs, result, state):
    if result != 0:
        tracer.counts["cli.nonzero_exits"] += 1


@dataclass(frozen=True)
class Target:
    """One traced function: its layer name and where it is defined."""

    name: str
    module: str
    attr: str  # "function" or "Class.method"
    after: Callable | None = None
    before: Callable | None = None


TARGETS = (
    Target("quadrature.singular_rule", "memdiff._quadrature", "singular_rule"),
    Target("problem.coefficient", "memdiff.problem", "CoefficientField.__call__"),
    Target("problem.validate", "memdiff.problem", "validate"),
    Target("parametrix.principal", "memdiff.parametrix", "PrincipalKernel.__call__"),
    Target("parametrix.fs_eval", "memdiff.parametrix", "FundamentalSolution.eval"),
    Target("parametrix.table", "memdiff.parametrix", "CorrectionKernel.table",
           after=_table_after, before=_table_before),
    Target("potentials.poisson", "memdiff.potentials", "PotentialEvaluator.poisson"),
    Target("potentials.layer", "memdiff.potentials", "PotentialEvaluator.layer"),
    Target("potentials.direct_value", "memdiff.potentials",
           "PotentialEvaluator.direct_value"),
    Target("boundary_system.holmgren", "memdiff.boundary_system", "holmgren_transform"),
    Target("boundary_system.assembly", "memdiff.boundary_system",
           "KernelAssembler.system_kernel_matrix"),
    Target("boundary_system.rhs", "memdiff.boundary_system", "RightHandSide.combined"),
    Target("boundary_system.solve", "memdiff.boundary_system", "solve_densities",
           after=_solve_after),
    Target("semigroup.densities", "memdiff.semigroup", "SemigroupOperator.densities",
           after=_densities_after),
    Target("semigroup.field", "memdiff.semigroup", "SemigroupField.__call__"),
    Target("mc_oracle.simulate", "memdiff.mc_oracle", "simulate", after=_simulate_after),
    Target("cli.main", "memdiff.cli", "main", after=_main_after),
)

# spans kept in memory; later spans still count in the per-layer sums
MAX_SPANS = 200_000


class Tracer:
    """In-memory span recorder; records only while ``request`` is set."""

    def __init__(self):
        self.request = None
        self.spans: list = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.request_self_s: defaultdict = defaultdict(float)
        # open frames: [span id, parent id, name, start, child time, solved]
        self._stack: list = []
        self._next_id = 0
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else 0
        self._next_id += 1
        frame = [self._next_id, parent, name, 0.0, 0.0, False]
        self._stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, parent, name, start, child, _ = frame
        duration = end - start
        own = duration - child
        self.calls[name] += 1
        self.self_s[name] += own
        self.request_self_s[self.request] += own
        if self._stack:
            self._stack[-1][4] += duration
            if name == "boundary_system.solve":
                self._stack[-1][5] = True
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent, self.request, name, start, end))
        else:
            self.dropped += 1

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        name, before, after = target.name, target.before, target.after

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before else None
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(tracer, frame, args, kwargs, result, state)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        memdiff_modules = [m for n, m in sorted(sys.modules.items())
                           if m is not None and (n == "memdiff" or n.startswith("memdiff."))]
        for target in TARGETS:
            module = importlib.import_module(target.module)
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, meth, self._wrap(target, owner.__dict__[meth]))
                continue
            original = getattr(module, target.attr)
            wrapped = self._wrap(target, original)
            for mod in memdiff_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer values by metric name: calls and self time of every
        target, plus counts and ratios taken at the same boundaries."""
        out = {}
        for target in TARGETS:
            out[f"{target.name}.calls"] = self.calls[target.name]
            out[f"{target.name}.self_s"] = self.self_s[target.name]
        table_calls = self.calls["parametrix.table"]
        builds = self.counts["parametrix.table.builds"]
        density_calls = self.calls["semigroup.densities"]
        sim_s = self.self_s["mc_oracle.simulate"]
        out.update({
            "boundary_system.iterations": self.counts["boundary_system.iterations"],
            "parametrix.table.builds": builds,
            "parametrix.table.hit_ratio":
                (table_calls - builds) / table_calls if table_calls else 0.0,
            "semigroup.densities.memo_hit_ratio":
                self.counts["semigroup.densities.memo_hits"] / density_calls
                if density_calls else 0.0,
            "mc_oracle.path_steps_per_s":
                self.counts["mc_oracle.path_steps"] / sim_s if sim_s > 0 else 0.0,
            "cli.nonzero_exits": self.counts["cli.nonzero_exits"],
        })
        return out

    def write_spans(self, path, meta: dict) -> None:
        """One JSON header line, then one array per span; start and end are
        nanoseconds after the first kept span started."""
        origin = self.spans[0][4] if self.spans else 0.0
        header = dict(meta, fields=["id", "parent", "request", "name", "start_ns",
                                    "end_ns"],
                      spans=len(self.spans), dropped=self.dropped)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(json.dumps([span_id, parent, request, name,
                                     round((start - origin) * 1e9),
                                     round((end - origin) * 1e9)]) + "\n")
