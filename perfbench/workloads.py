"""Seeded workload generation: scenario documents and the ops that use them.

A workload seed fixes one *round*: an ordered list of ops, each with its own
scenario document.  A run repeats its round until the time is up, so every
per-op count is the same however many rounds fit.  The program only ever
sees the YAML files written here; nothing in this module calls into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

WORKLOADS = ("holonomic", "avoidance", "vehicles", "design")

SCENARIO_VERSION = 1
# Per-agent state columns of the CSV log, per dynamics class.
STATE_COLUMNS = {
    "single_integrator": ("x", "y"),
    "unicycle": ("x", "y", "theta", "v", "omega"),
    "car": ("x", "y", "theta", "phi", "v", "omega"),
}

GRID_EDGES = [(1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9),
              (1, 4), (4, 7), (2, 5), (5, 8), (3, 6), (6, 9)]
DIAG_ALL = [(1, 5), (2, 4), (2, 6), (3, 5), (4, 8), (5, 7), (5, 9), (6, 8)]
DIAG_MAIN = [(1, 5), (2, 6), (4, 8), (5, 9)]
DIAG_ANTI = [(2, 4), (3, 5), (5, 7), (6, 8)]
BORDER_CHORDS = [(1, 3), (7, 9), (1, 7), (3, 9)]
TRIANGLE6_EDGES = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1),
                   (1, 3), (3, 5), (5, 1)]


@dataclass(frozen=True)
class Op:
    """One benchmark operation: ``design``, then ``simulate --svg`` if ``simulate``."""

    name: str
    doc: dict
    design_args: tuple[str, ...] = ()
    simulate: bool = True
    # Properties the outputs must have whatever the seed.
    min_distance: float | None = None  # avoidance radius r, when avoidance is on

    @property
    def n(self) -> int:
        return len(self.doc["formation"]["coordinates"])

    @property
    def steps(self) -> int:
        sim = self.doc["sim"]
        return int(math.floor(sim["t_final"] / sim["dt"])) + 1

    def csv_header(self) -> list[str]:
        agents = self.doc.get("agents", {})
        dyn = agents.get("dynamics", "single_integrator")
        if dyn == "chain":
            cols = ["x", "y"]
            for j in range(1, agents["chain_order"] + 1):
                cols += [f"x_d{j}", f"y_d{j}"]
        else:
            cols = list(STATE_COLUMNS[dyn])
        header = ["t"]
        for i in range(1, self.n + 1):
            header += [f"{c}_{i}" for c in cols]
        return header + ["subspace_error", "lyapunov_value", "min_pairwise_distance"]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(self.doc, fh, sort_keys=False)


def _points(pts) -> list[list[float]]:
    return [[float(x), float(y)] for x, y in pts]


def _edges(edges) -> list[list[int]]:
    return [[int(i), int(j)] for i, j in edges]


def _complete(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _grid9(spacing: float) -> list[tuple[float, float]]:
    return [(c * spacing, -r * spacing) for r in range(3) for c in range(3)]


def _hexagon() -> list[tuple[float, float]]:
    return [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]


def _triangle6() -> list[tuple[float, float]]:
    verts = [(2.0 * math.cos(math.radians(a)), 2.0 * math.sin(math.radians(a)))
             for a in (90, 210, 330)]
    pts = []
    for k in range(3):
        v, w = verts[k], verts[(k + 1) % 3]
        pts += [v, ((v[0] + w[0]) / 2, (v[1] + w[1]) / 2)]
    return pts


def _sim(seed: int, t_final: float, box: float = 5.0, threshold: float = 1e-3) -> dict:
    return {
        "dt": 0.01, "t_final": t_final, "seed": seed,
        "convergence_threshold": threshold, "measurement_noise": 0.0,
        "init": {"kind": "box", "low": [-box, -box], "high": [box, box]},
    }


def _doc(points, graphs: dict, sim: dict, schedule=None, **sections) -> dict:
    first = next(iter(graphs))
    doc = {
        "version": SCENARIO_VERSION,
        "formation": {"coordinates": _points(points)},
        "graphs": {name: _edges(e) for name, e in graphs.items()},
        "schedule": schedule or [[0.0, first]],
    }
    doc.update(sections)
    doc["sim"] = sim
    return doc


def _holonomic(seeds) -> list[Op]:
    hexagon_cycle = {"cycle6": [(i, i % 6 + 1) for i in range(1, 7)]}
    switching = {
        "dense": GRID_EDGES + DIAG_ALL,
        "main_diag": GRID_EDGES + DIAG_MAIN,
        "anti_diag": GRID_EDGES + DIAG_ANTI,
        "chords": GRID_EDGES + BORDER_CHORDS,
    }
    names = list(switching)
    return [
        Op("triangle", _doc(_triangle6(), {"triangle6": TRIANGLE6_EDGES},
                            _sim(seeds[0], 40.0))),
        Op("hexagon", _doc(_hexagon(), hexagon_cycle, _sim(seeds[1], 40.0))),
        Op("switching9", _doc(
            _grid9(1.0), switching, _sim(seeds[2], 60.0, box=2.0),
            schedule=[[5.0 * k, names[k % 4]] for k in range(12)])),
        Op("hexagon_chain3", _doc(
            _hexagon(), hexagon_cycle, _sim(seeds[3], 40.0),
            agents={"dynamics": "chain", "chain_order": 3},
            controller={"k_chain": [2.0, 2.0, 3.0, 3.0],
                        "chain_variant": "identity_derivatives"}),
           design_args=("--trace-budget", "-2")),
    ]


def _avoidance(rng: np.random.Generator) -> list[Op]:
    ops = []
    for k, start in enumerate(_avoidance_base()):
        sim = _sim(int(rng.integers(0, 2**31)), 40.0)
        sim["init"] = {"kind": "explicit", "states": _points(_rotate_translate(start, rng))}
        ops.append(Op(f"grid9_{k}", _doc(_grid9(1.0), {"complete9": _complete(9)}, sim,
                                         avoidance={"r": 0.1, "d_c": 0.25, "margin": 0.01}),
                      min_distance=0.1))
    return ops


# Actuator gains of the vehicle teams; the same draw as the bundled demos.
_ACTUATORS = np.random.default_rng(42).uniform(5.0, 10.0, size=(9, 4)).tolist()


def _vehicle(kind: str, seed: int, drive: str | None = None) -> Op:
    agents = {"dynamics": kind, "kinematic_only": False, "actuators": _ACTUATORS}
    controller = {"v_max": 3.0, "omega_max": math.pi / 4, "k_s": 5.0,
                  "actuator_mode": "velocity_feedback"}
    if kind == "car":
        agents.update(wheelbase=1.0, drive=drive)
        controller["phi_max"] = math.pi / 4
    name = "unicycle9" if kind == "unicycle" else f"car9_{drive}"
    return Op(name, _doc(_grid9(4.0), {"complete9": _complete(9)},
                         _sim(seed, 80.0, box=8.0, threshold=1e-2),
                         agents=agents, controller=controller),
              design_args=("--trace-budget", "-56"))


def _vehicles(seeds) -> list[Op]:
    return [_vehicle("unicycle", seeds[0]), _vehicle("car", seeds[1], "front"),
            _vehicle("car", seeds[2], "rear")]


def _spread_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` points in [-1, 1]^2, no two closer than 1.2 / sqrt(n)."""
    pts: list[np.ndarray] = []
    while len(pts) < n:
        p = rng.uniform(-1.0, 1.0, size=2)
        if all(np.hypot(*(p - q)) >= 1.2 / math.sqrt(n) for q in pts):
            pts.append(p)
    return np.array(pts)


def _circulant(pts: np.ndarray, reach: int = 3) -> list[tuple[int, int]]:
    """``2*reach``-regular circulant graph over the agents in angular order,
    so each agent senses its ``reach`` nearest angular neighbours per side."""
    n = len(pts)
    c = pts - pts.mean(axis=0)
    order = np.argsort(np.arctan2(c[:, 1], c[:, 0])) + 1
    return sorted({tuple(sorted((int(order[k]), int(order[(k + d) % n]))))
                   for k in range(n) for d in range(1, reach + 1)})


def _trilateration(pts: np.ndarray) -> list[tuple[int, int]]:
    """Trilateration graph: agents 1-3 form a triangle and each later agent
    senses the three nearest agents before it."""
    edges = [(1, 2), (1, 3), (2, 3)]
    for v in range(3, len(pts)):
        near = np.argsort(np.hypot(*(pts[:v] - pts[v]).T))[:3]
        edges += [(int(u) + 1, v + 1) for u in sorted(near)]
    return edges


def _rotate_translate(pts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    a = rng.uniform(0.0, 2.0 * math.pi)
    rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    return pts @ rot.T + rng.uniform(-5.0, 5.0, size=2)


def _similar(pts: np.ndarray, edges, rng: np.random.Generator):
    """Rotate, translate, scale and relabel a formation with its graph."""
    moved = _rotate_translate(pts, rng) * rng.uniform(0.5, 2.0)
    perm = rng.permutation(len(pts))  # agent k + 1 gets label perm[k] + 1
    relabelled = np.empty_like(moved)
    relabelled[perm] = moved
    return relabelled, sorted(tuple(sorted((int(perm[i - 1]) + 1, int(perm[j - 1]) + 1)))
                              for i, j in edges)


# The seed sweeps below move a fixed set of inputs, drawn once from this
# seed, by transformations the closed loop and the design problem are
# invariant under.  Every run then does the same work, while the files the
# program reads differ from seed to seed.  Fresh random draws would not be
# steady: random sparse formations differ several-fold in ADMM iterations,
# and random avoidance starts in cone activity.
_BASE_SEED = 1807


def _avoidance_base(count: int = 3, half: float = 3.0, gap: float = 0.25):
    """Starts in a +-``half`` box with every pair at least ``gap`` apart, so
    no agent begins inside another's collision radius."""
    rng = np.random.default_rng([_BASE_SEED, 1])
    starts = []
    while len(starts) < count:
        p = rng.uniform(-half, half, size=(9, 2))
        d = np.hypot(*(p[:, None, :] - p[None, :, :]).transpose(2, 0, 1))
        if d[np.triu_indices(9, k=1)].min() >= gap:
            starts.append(p)
    return starts


def _design_base() -> list[tuple[str, np.ndarray, list]]:
    rng = np.random.default_rng([_BASE_SEED, 2])
    dense = rng.uniform(-1.0, 1.0, size=(50, 2))
    circ, tri = _spread_points(18, rng), _spread_points(20, rng)
    return [("complete50", dense, _complete(50)),
            ("circulant18", circ, _circulant(circ)),
            ("trilateration20", tri, _trilateration(tri))]


def _design(rng: np.random.Generator) -> list[Op]:
    ops = []
    for name, pts, edges in _design_base():
        moved, relabelled = _similar(pts, edges, rng)
        ops.append(Op(name, _doc(moved, {name: relabelled}, _sim(0, 1.0)), simulate=False))
    return ops


def round_ops(workload: str, seed: int) -> list[Op]:
    """The ops of one round of ``workload``, fixed by ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    seeds = [int(s) for s in rng.integers(0, 2**31, size=4)]
    if workload == "holonomic":
        return _holonomic(seeds)
    if workload == "avoidance":
        return _avoidance(rng)
    if workload == "vehicles":
        return _vehicles(seeds)
    return _design(rng)
