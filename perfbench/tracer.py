"""Outside-in tracer: wraps bcbform's functions under the names callers use.

Each wrapped call records one span (name, start, end, parent) in flat
arrays that stay in memory until the run ends.  Nothing under ``src/``
changes: the wrappers are installed by replacing module attributes, so a
call is traced exactly when its caller looks the name up at call time
(module globals, or ``ctl.<name>`` for the controllers module).

Layers are the package's modules.  A layer's self time is the duration of
its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("gains", "geometry", "controllers", "collision", "dynamics", "sim", "io", "cli")

# (module, attribute) -> (layer, group).  The attribute is the name the
# caller resolves; a name that a later version of the package drops is
# skipped and its group reads zero.
NAMED_WRAPS = {
    ("bcbform.cli", "design_gains"): ("gains", "design"),
    ("bcbform.cli", "design_joint_gains"): ("gains", "design"),
    ("bcbform.gains", "_admm_solve"): ("gains", "solve"),
    ("bcbform.cli", "verify_gains"): ("gains", "verify"),
    ("bcbform.sim", "verify_gains"): ("gains", "verify"),
    ("bcbform.cli", "verify_higher_order_gains"): ("gains", "verify"),
    ("bcbform.cli", "build_kernel_basis"): ("geometry", "basis"),
    ("bcbform.sim", "build_kernel_basis"): ("geometry", "basis"),
    ("bcbform.gains", "build_kernel_basis"): ("geometry", "basis"),
    ("bcbform.gains", "validate_graph"): ("geometry", "graph"),
    ("bcbform.sim", "formation_error"): ("geometry", "metrics"),
    ("bcbform.sim", "lyapunov_value"): ("geometry", "metrics"),
    ("bcbform.sim", "min_pairwise_distance"): ("geometry", "metrics"),
    ("bcbform.sim", "build_cones"): ("collision", "cones"),
    ("bcbform.sim", "adjust_control"): ("collision", "adjust"),
    ("bcbform.sim", "deriv_single_integrator"): ("dynamics", "deriv"),
    ("bcbform.sim", "deriv_chain"): ("dynamics", "deriv"),
    ("bcbform.sim", "deriv_unicycle"): ("dynamics", "deriv"),
    ("bcbform.sim", "deriv_car"): ("dynamics", "deriv"),
    ("bcbform.sim", "heading_vector"): ("dynamics", "heading"),
    ("bcbform.cli", "run"): ("sim", "run"),
    ("bcbform.sim", "lyapunov_monitor_arrays"): ("sim", "monitor"),
    ("bcbform.cli", "load_scenario"): ("io", "scenario"),
    ("bcbform.cli", "load_gains"): ("io", "gains"),
    ("bcbform.cli", "save_gains"): ("io", "gains"),
    ("bcbform.cli", "write_csv"): ("io", "csv"),
    ("bcbform.cli", "write_svg"): ("cli", "svg"),
}
ROOT_SPAN = ("bcbform.cli.main", "cli", "main")

# Public functions of bcbform.controllers (called through ``ctl.``) whose
# name starts with one of these project or saturate a command; the rest
# evaluate control laws.
PROJECT_PREFIXES = ("saturate_", "unicycle_", "car_")


def controller_wraps() -> dict:
    mod = importlib.import_module("bcbform.controllers")
    out = {}
    for name, fn in vars(mod).items():
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        if fn.__module__ != mod.__name__:
            continue
        group = "project" if name.startswith(PROJECT_PREFIXES) else "law"
        out[(mod.__name__, name)] = ("controllers", group)
    return out


@dataclass
class Counters:
    """Counts taken from return values at the wrapped boundaries."""

    iterations: int = 0
    steps: int = 0
    cones_built: int = 0
    cone_hits: int = 0
    rotated: int = 0
    stopped: int = 0
    csv_bytes: int = 0
    svg_bytes: int = 0


@dataclass
class Tracer:
    """Span store plus the installed wrappers."""

    names: list = field(default_factory=list)  # name id -> (qualname, layer, group)
    span_name: array = field(default_factory=lambda: array("i"))
    span_parent: array = field(default_factory=lambda: array("i"))
    span_start: array = field(default_factory=lambda: array("d"))
    span_end: array = field(default_factory=lambda: array("d"))
    counters: Counters = field(default_factory=Counters)
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=lambda: [-1])
    _wrappers: list = field(default_factory=list)

    def __post_init__(self):
        self._root_id = self._name_id(*ROOT_SPAN)

    def _name_id(self, qualname: str, layer: str, group: str) -> int:
        self.names.append((qualname, layer, group))
        return len(self.names) - 1

    def _wrap(self, fn, nid: int, after=None):
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
            finally:
                ends[idx] = clock()
                stack.pop()
            return result

        return traced

    def call_root(self, fn, *args):
        """Run ``fn(*args)`` as a root span of the cli layer."""
        return self._wrap(fn, self._root_id)(*args)

    def _build(self) -> None:
        wraps = dict(NAMED_WRAPS)
        wraps.update(controller_wraps())
        after = self._after_hooks()
        for (modname, attr), (layer, group) in wraps.items():
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            nid = self._name_id(f"{modname}.{attr}", layer, group)
            self._wrappers.append((mod, attr, fn, self._wrap(fn, nid, after.get(group))))

    def install(self) -> None:
        """Put every wrapper in place of the function it wraps."""
        if not self._wrappers:
            self._build()
        for mod, attr, _, traced in self._wrappers:
            setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for mod, attr, fn, _ in self._wrappers:
            setattr(mod, attr, fn)

    def _after_hooks(self) -> dict:
        c = self.counters

        def design(args, result):
            c.iterations += int(result[1].iterations)

        def run(args, log):
            steps = log.t.size
            c.steps += steps

        def cones(args, result):
            c.cones_built += len(result)
            c.cone_hits += bool(result)

        def adjust(args, out):
            u = np.asarray(args[0])
            if out is u or np.array_equal(out, u):
                return
            if np.any(out):
                c.rotated += 1
            else:
                c.stopped += 1

        def csv(args, result):
            c.csv_bytes += os.path.getsize(args[1])

        def svg(args, result):
            c.svg_bytes += os.path.getsize(args[0])

        return {"design": design, "run": run, "cones": cones, "adjust": adjust,
                "csv": csv, "svg": svg}

    # -- aggregation -------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span, with the name table, as one ``.npz`` file."""
        names = np.array(["|".join(t) for t in self.names], dtype=str)
        np.savez(path, names=names, **self.spans())

    def aggregate(self) -> dict:
        """Per (layer, group): calls, inclusive seconds, self seconds."""
        s = self.spans()
        dur = s["end"] - s["start"]
        child = s["parent"] >= 0
        covered = np.bincount(s["parent"][child], weights=dur[child],
                              minlength=dur.size)
        self_time = dur - covered
        n_names = len(self.names)
        calls = np.bincount(s["name"], minlength=n_names)
        incl = np.bincount(s["name"], weights=dur, minlength=n_names)
        excl = np.bincount(s["name"], weights=self_time, minlength=n_names)
        out: dict = {}
        for nid, (_, layer, group) in enumerate(self.names):
            row = out.setdefault((layer, group), [0, 0.0, 0.0])
            row[0] += int(calls[nid])
            row[1] += float(incl[nid])
            row[2] += float(excl[nid])
        roots = s["parent"] < 0
        out["__root__"] = [int(roots.sum()), float(dur[roots].sum()),
                           float(self_time.sum())]
        return out

    def summary(self, n_ops: int) -> dict:
        """Per-layer metrics per op, as ``{name: [value, unit]}``."""
        agg = self.aggregate()
        c = self.counters

        def get(layer, group):
            return agg.get((layer, group), [0, 0.0, 0.0])

        def per_op(x):
            return x / n_ops

        def frac(num, den):
            return num / den if den else 0.0

        design, solve = get("gains", "design"), get("gains", "solve")
        verify, metrics = get("gains", "verify"), get("geometry", "metrics")
        law, project = get("controllers", "law"), get("controllers", "project")
        cones, adjust = get("collision", "cones"), get("collision", "adjust")
        deriv, run, monitor = get("dynamics", "deriv"), get("sim", "run"), get("sim", "monitor")
        gains_io = get("io", "gains")
        out = {
            "gains.design_s": (per_op(design[1]), "s"),
            "gains.design_calls": (per_op(design[0]), "count"),
            "gains.setup_s": (per_op(design[2]), "s"),
            "gains.solve_s": (per_op(solve[2]), "s"),
            "gains.iterations": (per_op(c.iterations), "count"),
            "gains.iter_us": (frac(solve[1], c.iterations) * 1e6, "us"),
            "gains.verify_s": (per_op(verify[2]), "s"),
            "gains.verify_calls": (per_op(verify[0]), "count"),
            "geometry.metrics_s": (per_op(metrics[2]), "s"),
            "geometry.metrics_calls": (per_op(metrics[0]), "count"),
            "geometry.basis_calls": (per_op(get("geometry", "basis")[0]), "count"),
            "controllers.law_s": (per_op(law[2]), "s"),
            "controllers.law_calls": (per_op(law[0]), "count"),
            "controllers.project_s": (per_op(project[2]), "s"),
            "controllers.project_calls": (per_op(project[0]), "count"),
            "collision.cones_s": (per_op(cones[2]), "s"),
            "collision.cones_calls": (per_op(cones[0]), "count"),
            "collision.cones_built": (per_op(c.cones_built), "count"),
            "collision.hit_frac": (frac(c.cone_hits, cones[0]), "ratio"),
            "collision.adjust_s": (per_op(adjust[2]), "s"),
            "collision.rotated_frac": (frac(c.rotated, adjust[0]), "ratio"),
            "collision.stopped_frac": (frac(c.stopped, adjust[0]), "ratio"),
            "dynamics.deriv_s": (per_op(deriv[2]), "s"),
            "dynamics.deriv_calls": (per_op(deriv[0]), "count"),
            "sim.run_s": (per_op(run[1]), "s"),
            "sim.self_s": (per_op(run[2]), "s"),
            "sim.steps": (per_op(c.steps), "count"),
            "sim.step_us": (frac(run[1], c.steps) * 1e6, "us"),
            "sim.monitor_s": (per_op(monitor[1]), "s"),
            "io.scenario_s": (per_op(get("io", "scenario")[2]), "s"),
            "io.gains_s": (per_op(gains_io[2]), "s"),
            "io.csv_s": (per_op(get("io", "csv")[2]), "s"),
            "io.csv_bytes": (per_op(c.csv_bytes), "bytes"),
            "cli.svg_s": (per_op(get("cli", "svg")[2]), "s"),
            "cli.svg_bytes": (per_op(c.svg_bytes), "bytes"),
            "cli.self_s": (per_op(get("cli", "main")[2]), "s"),
        }
        total = agg["__root__"][1]
        for layer in LAYERS:
            own = sum(row[2] for key, row in agg.items() if key[0] == layer)
            out[f"{layer}.share"] = (frac(own, total), "ratio")
        return {"metrics": out, "absent": self.absent,
                "traced_s": total, "self_sum_s": agg["__root__"][2]}
