"""Command-line driver: gain design, simulation, verification, and demos.

Exit codes: 0 success, 1 parse/IO error (including unknown demo names),
2 infeasibility or verification failure, 3 simulation completed without
convergence.  Diagnostics go to standard error; nothing is printed on
standard output for nonzero exits.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np
import yaml

from .collision import AvoidanceConfig
from .controllers import ControllerConfig
from .dynamics import ActuatorParams
from .errors import (
    BcbformError,
    ConfigurationError,
    GuaranteeViolationError,
    InfeasibleTopologyError,
    SolverFailureError,
)
from .gains import SolverOptions, design_joint_gains, verify_gains
from .geometry import FormationSpec, SensingGraph, build_kernel_basis
from .io import load_gains, load_scenario, save_gains, save_scenario
from .sim import AgentModel, InitSpec, Scenario, SimConfig, check_gains, run, write_csv

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INFEASIBLE = 2
EXIT_NO_CONVERGENCE = 3

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _say(quiet: bool, *parts) -> None:
    if not quiet:
        print(*parts)


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# SVG plotting


def write_svg(path: str, log, scenario: Scenario) -> None:
    """Trajectory plot: per-agent polylines, start markers, final formation."""
    size = 640  # pixels per side
    pos = log.positions()
    n = pos.shape[1]
    xs = pos[:, :, 0]
    ys = pos[:, :, 1]
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    span = max(x_hi - x_lo, y_hi - y_lo, 1e-9)
    pad = 0.05 * span
    x_lo, y_lo, span = x_lo - pad, y_lo - pad, span + 2 * pad

    def pixels(rows):
        """Pixel coordinates (x, y) of position rows as lists; SVG y grows downward."""
        px = (rows[..., 0] - x_lo) / span * size
        py = size - (rows[..., 1] - y_lo) / span * size
        return px.tolist(), py.tolist()

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    # Final formation edges from the first topology active at the end.
    fx, fy = pixels(pos[-1])
    graph = scenario.topologies[int(log.topology_index[-1])]
    for i, j in graph.edge_list:
        parts.append(
            f'<line x1="{fx[i - 1]:.2f}" y1="{fy[i - 1]:.2f}" '
            f'x2="{fx[j - 1]:.2f}" y2="{fy[j - 1]:.2f}" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
    # Agent-major point lists of every stride-th step, the first one included.
    stride = max(1, pos.shape[0] // 2000)
    px, py = pixels(pos[::stride].transpose(1, 0, 2))
    for i in range(n):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(map("{:.2f},{:.2f}".format, px[i], py[i]))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            'stroke-width="1.2"/>'
        )
        parts.append(
            f'<circle cx="{px[i][0]:.2f}" cy="{py[i][0]:.2f}" r="4" '
            f'fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<circle cx="{fx[i]:.2f}" cy="{fy[i]:.2f}" r="3" '
            f'fill="{color}"/>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Commands


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    sim = scenario.sim
    changes = {}
    if getattr(args, "seed", None) is not None:
        changes["seed"] = args.seed
    if getattr(args, "dt", None) is not None:
        changes["dt"] = args.dt
    if getattr(args, "t_final", None) is not None:
        changes["t_final"] = args.t_final
    if changes:
        scenario = dataclasses.replace(scenario, sim=dataclasses.replace(sim, **changes))
    return scenario


def cmd_design(args) -> int:
    try:
        scenario, names = load_scenario(args.scenario)
    except (OSError, ConfigurationError, BcbformError) as exc:
        _fail(str(exc))
        return EXIT_PARSE
    opts = SolverOptions(trace_budget=args.trace_budget)
    basis = build_kernel_basis(scenario.formation)
    try:
        mats, info = design_joint_gains(
            list(scenario.topologies), scenario.formation, opts, basis
        )
    except (InfeasibleTopologyError, SolverFailureError) as exc:
        _fail(str(exc))
        return EXIT_INFEASIBLE
    reports = [verify_gains(gm, basis) for gm in mats]
    if not all(rep.passed for rep in reports):
        _fail("designed gains fail spectrum verification")
        return EXIT_INFEASIBLE
    save_gains(args.out, mats, info,
               reports, opts.resolved_trace(scenario.formation.n))
    _say(args.quiet, f"designed {len(mats)} gain matrix(es): gamma={info.gamma:.6g}, "
         f"{info.iterations} iterations -> {args.out}")
    for name, rep in zip(names, reports):
        _say(args.quiet, f"  {name}: zero_count={rep.zero_count} "
             f"gap={rep.spectral_gap:.6g} kernel_residual={rep.kernel_residual:.3g}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        mats, _ = load_gains(args.gains)
        scenario, _ = load_scenario(args.scenario)
    except (OSError, ConfigurationError, BcbformError) as exc:
        _fail(str(exc))
        return EXIT_PARSE
    try:
        checks = check_gains(scenario, mats, build_kernel_basis(scenario.formation))
    except ConfigurationError as exc:
        _fail(str(exc))
        return EXIT_INFEASIBLE
    code = EXIT_OK
    for k, (rep, roots, failure) in enumerate(checks):
        passed = failure is None or roots is not None  # roots: the matrix passed
        _say(args.quiet, f"topology {k}: zero_count={rep.zero_count} "
             f"gap={rep.spectral_gap:.6g} kernel_residual={rep.kernel_residual:.3g} "
             f"{'PASS' if passed else 'FAIL'}")
        if roots is not None:
            _say(args.quiet, f"topology {k}: chain root check "
                 f"{'PASS' if roots.passed else 'FAIL'} "
                 f"(worst real part {roots.worst[1]:.4g} at mu={roots.worst[0]:.4g})")
        if failure is not None:
            _fail(failure)
            code = EXIT_INFEASIBLE
    return code


def cmd_simulate(args) -> int:
    try:
        scenario, _ = load_scenario(args.scenario)
        mats, _ = load_gains(args.gains)
        scenario = _apply_overrides(scenario, args)
    except (OSError, ConfigurationError, BcbformError) as exc:
        _fail(str(exc))
        return EXIT_PARSE
    try:
        log = run(scenario, mats)
    except (GuaranteeViolationError, ConfigurationError) as exc:
        _fail(str(exc))
        return EXIT_INFEASIBLE
    write_csv(log, args.out)
    if args.svg:
        write_svg(args.svg, log, scenario)
    s = log.summary
    if not s.converged:
        _fail(f"simulation finished without convergence "
              f"(final subspace_error {s.final_subspace_error:.3g})")
        return EXIT_NO_CONVERGENCE
    _say(args.quiet, f"converged at t={s.convergence_time:.2f}s; "
         f"final subspace_error {s.final_subspace_error:.3g}; "
         f"min distance {s.min_distance:.3g}; seed {s.seed} -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Demo catalog

GRID_EDGES = [(1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9),
              (1, 4), (4, 7), (2, 5), (5, 8), (3, 6), (6, 9)]
DIAG_ALL = [(1, 5), (2, 4), (2, 6), (3, 5), (4, 8), (5, 7), (5, 9), (6, 8)]
DIAG_MAIN = [(1, 5), (2, 6), (4, 8), (5, 9)]
DIAG_ANTI = [(2, 4), (3, 5), (5, 7), (6, 8)]
BORDER_CHORDS = [(1, 3), (7, 9), (1, 7), (3, 9)]
TRIANGLE6_EDGES = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1),
                   (1, 3), (3, 5), (5, 1)]


def _triangle6_points() -> list[tuple[float, float]]:
    """Equilateral triangle outline: three vertices and three edge midpoints."""
    R = 2.0
    verts = [
        (R * math.cos(math.radians(a)), R * math.sin(math.radians(a)))
        for a in (90, 210, 330)
    ]
    pts = []
    for k in range(3):
        v, w = verts[k], verts[(k + 1) % 3]
        pts.append(v)
        pts.append(((v[0] + w[0]) / 2, (v[1] + w[1]) / 2))
    return pts


def _grid9_points(spacing: float = 1.0) -> list[tuple[float, float]]:
    return [(c * spacing, -r * spacing) for r in range(3) for c in range(3)]


def _hexagon_points() -> list[tuple[float, float]]:
    return [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]


def _complete_edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _seeded_actuators(n: int, seed: int = 42) -> tuple[ActuatorParams, ...]:
    rng = np.random.default_rng(seed)
    vals = rng.uniform(5.0, 10.0, size=(n, 4))
    return tuple(ActuatorParams(*row) for row in vals)


def demo_scenario(name: str) -> tuple[Scenario, list[str], SolverOptions]:
    if name == "triangle":
        form = FormationSpec.from_coordinates(_triangle6_points())
        g = SensingGraph(6, TRIANGLE6_EDGES)
        return (
            Scenario(
                formation=form, topologies=(g,), schedule=((0.0, 0),),
                sim=SimConfig(t_final=40.0, seed=42),
            ),
            ["triangle6"],
            SolverOptions(),
        )
    if name == "hexagon":
        form = FormationSpec.from_coordinates(_hexagon_points())
        g = SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)])
        return (
            Scenario(
                formation=form, topologies=(g,), schedule=((0.0, 0),),
                sim=SimConfig(t_final=40.0, seed=42),
            ),
            ["cycle6"],
            SolverOptions(),
        )
    if name == "grid9":
        form = FormationSpec.from_coordinates(_grid9_points())
        g = SensingGraph(9, _complete_edges(9))
        return (
            Scenario(
                formation=form, topologies=(g,), schedule=((0.0, 0),),
                avoidance=AvoidanceConfig(r=0.1, d_c=0.25, margin=0.01),
                sim=SimConfig(t_final=40.0, seed=42,
                              init=InitSpec(low=(-3.0, -3.0), high=(3.0, 3.0))),
            ),
            ["complete9"],
            SolverOptions(),
        )
    if name == "unicycle9":
        form = FormationSpec.from_coordinates(_grid9_points(4.0))
        g = SensingGraph(9, _complete_edges(9))
        return (
            Scenario(
                formation=form, topologies=(g,), schedule=((0.0, 0),),
                agents=AgentModel(dynamics="unicycle", kinematic_only=False,
                                  actuators=_seeded_actuators(9)),
                controller=ControllerConfig(v_max=3.0, omega_max=math.pi / 4,
                                            actuator_mode="velocity_feedback",
                                            k_s=5.0),
                sim=SimConfig(t_final=80.0, seed=42,
                              init=InitSpec(low=(-8.0, -8.0), high=(8.0, 8.0)),
                              convergence_threshold=1e-2),
            ),
            ["complete9"],
            SolverOptions(trace_budget=-56.0),
        )
    if name == "car9":
        form = FormationSpec.from_coordinates(_grid9_points(4.0))
        g = SensingGraph(9, _complete_edges(9))
        return (
            Scenario(
                formation=form, topologies=(g,), schedule=((0.0, 0),),
                agents=AgentModel(dynamics="car", kinematic_only=False,
                                  actuators=_seeded_actuators(9), wheelbase=1.0,
                                  drive="front"),
                controller=ControllerConfig(v_max=3.0, omega_max=math.pi / 4,
                                            phi_max=math.pi / 4,
                                            actuator_mode="velocity_feedback",
                                            k_s=5.0),
                sim=SimConfig(t_final=80.0, seed=42,
                              init=InitSpec(low=(-8.0, -8.0), high=(8.0, 8.0)),
                              convergence_threshold=1e-2),
            ),
            ["complete9"],
            SolverOptions(trace_budget=-56.0),
        )
    if name == "switching9":
        form = FormationSpec.from_coordinates(_grid9_points())
        topos = (
            SensingGraph(9, GRID_EDGES + DIAG_ALL),
            SensingGraph(9, GRID_EDGES + DIAG_MAIN),
            SensingGraph(9, GRID_EDGES + DIAG_ANTI),
            SensingGraph(9, GRID_EDGES + BORDER_CHORDS),
        )
        schedule = tuple((5.0 * k, k % 4) for k in range(12))
        return (
            Scenario(
                formation=form, topologies=topos, schedule=schedule,
                sim=SimConfig(t_final=60.0, seed=42,
                              init=InitSpec(low=(-2.0, -2.0), high=(2.0, 2.0))),
            ),
            ["dense", "main_diag", "anti_diag", "chords"],
            SolverOptions(),
        )
    raise ConfigurationError(f"unknown demo {name!r}")


DEMO_NAMES = ("triangle", "hexagon", "grid9", "unicycle9", "car9", "switching9")


def cmd_demo(args) -> int:
    try:
        scenario, names, opts = demo_scenario(args.name)
        scenario = _apply_overrides(scenario, args)
    except ConfigurationError as exc:
        _fail(str(exc))
        return EXIT_PARSE
    prefix = args.name
    scenario_path = f"{prefix}.yaml"
    gains_path = f"{prefix}.gains.json"
    save_scenario(scenario_path, scenario, names)
    _say(args.quiet, f"wrote {scenario_path}")

    design_args = argparse.Namespace(scenario=scenario_path, out=gains_path,
                                     quiet=args.quiet, trace_budget=opts.trace_budget)
    code = cmd_design(design_args)
    if code != EXIT_OK:
        return code
    sim_args = argparse.Namespace(
        scenario=scenario_path, gains=gains_path, out=f"{prefix}.csv",
        svg=f"{prefix}.svg", quiet=args.quiet, seed=args.seed,
        dt=args.dt, t_final=args.t_final,
    )
    return cmd_simulate(sim_args)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcbform",
        description="Distributed planar formation control: design, simulate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress output")

    overrides = argparse.ArgumentParser(add_help=False)
    overrides.add_argument("--seed", type=int, default=None, help="override RNG seed")
    overrides.add_argument("--dt", type=float, default=None, help="override timestep")
    overrides.add_argument("--t-final", type=float, default=None, dest="t_final",
                           help="override simulation horizon")

    p = sub.add_parser("design", parents=[common], help="design gains for a scenario")
    p.add_argument("scenario")
    p.add_argument("-o", "--out", default="gains.json")
    p.add_argument("--trace-budget", type=float, default=None, dest="trace_budget")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("simulate", parents=[common, overrides],
                       help="run a scenario with designed gains")
    p.add_argument("scenario")
    p.add_argument("gains")
    p.add_argument("-o", "--out", default="trajectory.csv")
    p.add_argument("--svg", default=None, help="also write an SVG trajectory plot")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", parents=[common],
                       help="check a gains file against a scenario")
    p.add_argument("gains")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("demo", parents=[common, overrides],
                       help="write a bundled scenario and run it end to end")
    p.add_argument("name", help=f"one of {', '.join(DEMO_NAMES)}")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except yaml.YAMLError as exc:
        _fail(f"parse error: {exc}")
        return EXIT_PARSE
    except OSError as exc:
        _fail(f"io error: {exc}")
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
