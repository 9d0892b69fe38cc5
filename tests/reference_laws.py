"""Per-agent control laws, as the paper states them: one agent's command from
its own (neighbor j, relative measurement) pairs and its gain blocks A_ij,
and the collision cones of one agent and the minimal rotation that clears
them.

``bcbform.controllers`` and ``bcbform.collision`` evaluate each rule for the
whole team at once; the tests compare them with these, and build small star
graphs for cases that can be checked by hand.  The closed-loop matrices and
the schedule lookup at the end are dense references for the gain checks and
the simulator.  A consensus run stepped agent by agent, each agent in its own
frame, is the reference for the simulator's world-frame engine.  The
edge-by-edge builders after them (gain matrix
assembly, per-agent edge arrays, design constraint rows) are the loops that
the array code of ``bcbform.gains`` and ``bcbform.controllers`` must match
bit for bit.  Last, the gain design's ADMM on dense operators, with full
Hermitian iterates and a KKT solve per update, is the reference for the
solver's packed iteration.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from bcbform.controllers import _edge_arrays, rotation
from bcbform.errors import DimensionError
from bcbform.gains import GainMatrix
from bcbform.geometry import SensingGraph


_I2 = np.eye(2)
_K2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def star_edges(blocks, scale=None, orders=1):
    """Edge arrays of a star: agent 1 senses each agent j of ``blocks``
    through the rotation-scaled block ``blocks[j]``."""
    graph = SensingGraph(max(blocks), [(1, j) for j in blocks])
    params = [(float(blocks[j][0][0]), float(blocks[j][0][1])) for _, j in graph.edge_list]
    return _edge_arrays(GainMatrix(graph, params), scale, orders)


def consensus_term(rel_positions, gain_blocks):
    """sum_j A_ij (q_j - q_i) over the supplied neighbor measurements."""
    u = np.zeros(2)
    for j, rel in rel_positions:
        u += gain_blocks[j] @ np.asarray(rel, dtype=np.float64)
    return u


@dataclass
class IntegralState:
    """Trapezoidal accumulator of the consensus term, one per agent."""

    accumulator: np.ndarray = field(default_factory=lambda: np.zeros(2))
    last_term: np.ndarray | None = None


def integral_control(rel_positions, gain_blocks, state, dt, k0, k1):
    """Consensus control with an integral term rejecting constant disturbances."""
    term = consensus_term(rel_positions, gain_blocks)
    if state.last_term is None:
        acc = state.accumulator
    else:
        acc = state.accumulator + 0.5 * dt * (state.last_term + term)
    return k0 * term + k1 * acc, IntegralState(accumulator=acc, last_term=term)


def higher_order_control(rel_position_term, rel_derivative_terms, own_derivatives, k,
                         variant):
    """Chain control from precomputed consensus terms: the full_A variant adds
    the consensus sum of each derivative order, the identity variant damps
    the agent's own derivatives."""
    u = k[0] * np.asarray(rel_position_term, dtype=np.float64)
    for order in range(1, len(k)):
        if variant == "full_A":
            u = u + k[order] * rel_derivative_terms[order - 1]
        else:
            u = u - k[order] * np.asarray(own_derivatives[order - 1], dtype=np.float64)
    return u


def scale_augmented_control(agent, rel_positions, gain_blocks, scale):
    """Consensus control plus the bounded distance-correction term."""
    u = consensus_term(rel_positions, gain_blocks)
    for j, rel in rel_positions:
        rel = np.asarray(rel, dtype=np.float64)
        d = float(np.linalg.norm(rel))
        u = u + scale.f(d - scale.d_star[(min(agent, j), max(agent, j))]) * rel
    return u


@dataclass(frozen=True)
class CollisionCone:
    """Angular region of directions that would intersect a neighbor's disc."""

    center_dir: np.ndarray
    half_angle: float

    @property
    def center_angle(self) -> float:
        return math.atan2(self.center_dir[1], self.center_dir[0])


def build_cones(p_i, neighbors, cfg):
    """One cone per neighbor within the activation threshold.

    A neighbor already inside the protected radius blocks a full half-plane
    (half angle pi/2), forcing retreat or stop.
    """
    p_i = np.asarray(p_i, dtype=np.float64)
    cones = []
    for p_j in neighbors:
        diff = np.asarray(p_j, dtype=np.float64) - p_i
        d = float(np.linalg.norm(diff))
        if d == 0.0 or d > cfg.d_c:
            continue
        r_eff = cfg.protected_radius
        if d <= r_eff:
            half = math.pi / 2
        else:
            half = math.asin(r_eff / d)
        cones.append(CollisionCone(center_dir=diff / d, half_angle=half))
    return cones


def _wrap(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(angle + math.pi, 2.0 * math.pi)
    if a <= 0:
        a += 2.0 * math.pi
    return a - math.pi


def _inside(angle: float, cone: CollisionCone, margin: float = 0.0) -> bool:
    return abs(_wrap(angle - cone.center_angle)) < cone.half_angle - margin


def adjust_control(u, cones, cfg):
    """Rotate ``u`` by the minimum angle clearing all cones, or stop.

    Returns ``u`` unchanged when it is already clear.  Ties between equal
    clockwise/counterclockwise rotations break counterclockwise.
    """
    u = np.asarray(u, dtype=np.float64)
    if not cones or not np.any(u):
        return u
    theta_u = math.atan2(u[1], u[0])
    if not any(_inside(theta_u, c) for c in cones):
        return u
    candidates = []
    for c in cones:
        center = _wrap(c.center_angle - theta_u)
        for cand in (center - c.half_angle, center + c.half_angle):
            cand = _wrap(cand)
            if abs(cand) < math.pi / 2:
                candidates.append(cand)
    feasible = [
        t
        for t in candidates
        if not any(_inside(theta_u + t, c, margin=1e-12) for c in cones)
    ]
    if not feasible:
        return np.zeros(2)
    best = min(feasible, key=lambda t: (abs(t), -math.copysign(1.0, t)))
    return rotation(best) @ u


def avoidance(us, positions, cfg):
    """Every agent's command after the per-agent rule, against all the other
    agents in index order."""
    positions = np.asarray(positions, dtype=np.float64)
    out = np.array(us, dtype=np.float64)
    for i in range(len(out)):
        cones = build_cones(positions[i], np.delete(positions, i, axis=0), cfg)
        out[i] = adjust_control(out[i], cones, cfg)
    return out


def reduced_matrix(A, basis):
    """Restriction Q^T A Q carrying the nonzero spectrum of A."""
    A = np.asarray(A, dtype=np.float64)
    if A.shape != (basis.N.shape[0],) * 2:
        raise DimensionError(
            f"gain matrix shape {A.shape} does not match basis dimension {basis.N.shape[0]}"
        )
    return basis.Q.T @ A @ basis.Q


def chain_closed_loop_matrix(A, k, variant="full_A"):
    """Block-companion closed-loop matrix for chain agents."""
    A = np.asarray(A, dtype=np.float64)
    d = A.shape[0]
    m = len(k) - 1
    E = np.zeros((d * (m + 1), d * (m + 1)))
    for blk in range(m):
        E[blk * d : (blk + 1) * d, (blk + 1) * d : (blk + 2) * d] = np.eye(d)
    last = m * d
    E[last:, :d] = k[0] * A
    for j in range(1, m + 1):
        blk = j * d
        if variant == "full_A":
            E[last:, blk : blk + d] = k[j] * A
        else:
            E[last:, blk : blk + d] = -k[j] * np.eye(d)
    return E


def active_topology(schedule, t):
    """Index of the topology active at time ``t``: that of the last schedule
    entry at or before it (closed on the left)."""
    if t < 0:
        raise DimensionError("time must be nonnegative")
    for t_k, k in schedule:
        if t_k <= t:
            index = k
    return index


def local_frame_run(scenario, gains, start, steps):
    """(steps, n, 2) positions of a single-integrator consensus run from
    ``start``, computed as the paper's agents compute it, with no common
    orientation: agent i rotates each measurement q_j - q_i by -theta_i
    (``scenario.frame_angles``), applies its gain blocks (those the simulator
    steps with, from ``_edge_arrays``), rotates the sum back by theta_i, and
    takes an explicit Euler step, which is RK4 under a zero-order-hold
    command."""
    dt = scenario.sim.dt
    frames = [rotation(theta) for theta in scenario.frame_angles]
    edges = [_edge_arrays(gm, None, 1) for gm in gains]
    out = np.empty((steps,) + np.shape(start))
    out[0] = start
    for k in range(1, steps):
        e = edges[active_topology(scenario.schedule, (k - 1) * dt)]
        q = out[k - 1]
        u = np.zeros_like(q)
        for i, R in enumerate(frames):
            local = np.zeros(2)
            for j, block in zip(e.dst[e.src == i], e.blocks[e.src == i]):
                local += block @ (R.T @ (q[j] - q[i]))
            u[i] = R @ local
        out[k] = q + dt * u
    return out


def block_row(gm, i):
    """Off-diagonal 2x2 gain blocks of agent ``i`` keyed by neighbor index:
    a I + b K towards j > i, and a I - b K towards j < i."""
    out = {}
    for (p, q), (a, b) in zip(gm.graph.edge_list, gm.params.tolist()):
        if p == i:
            out[q] = a * _I2 + b * _K2
        elif q == i:
            out[p] = a * _I2 + (-b) * _K2
    return out


def assemble(gm):
    """Dense 2n x 2n gain matrix of ``gm``, summed edge by edge in edge-list
    order."""
    n = gm.n
    A = np.zeros((2 * n, 2 * n))
    for (i, j), (a, b) in zip(gm.graph.edge_list, gm.params.tolist()):
        bij = a * _I2 + b * _K2
        si, sj = 2 * (i - 1), 2 * (j - 1)
        A[si : si + 2, sj : sj + 2] += bij
        A[sj : sj + 2, si : si + 2] += bij.T
        A[si : si + 2, si : si + 2] -= bij
        A[sj : sj + 2, sj : sj + 2] -= bij.T
    return A


def edge_arrays(gm, scale):
    """(src, dst, blocks, d_star) of the directed edges of ``gm``, built agent
    by agent over each agent's sorted neighbors."""
    graph = gm.graph
    src, dst, blocks, d_star = [], [], [], []
    for i in range(1, graph.n + 1):
        row = block_row(gm, i)
        for j in sorted(graph.neighbors(i)):
            src.append(i - 1)
            dst.append(j - 1)
            blocks.append(row[j])
            if scale is not None:
                d_star.append(scale.d_star[(min(i, j), max(i, j))])
    return (np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp),
            np.array(blocks).reshape(-1, 2, 2),
            np.array(d_star) if scale is not None else None)


def constraint_rows(pool, spec, trace_total):
    """G and h of the gain design's equality constraints, entry by entry: per
    topology, two kernel rows per agent with neighbors, then one symmetry row
    each, and the total-trace row last."""
    n = pool.n
    q_star = spec.q_star.reshape(n, 2)
    rows, rhs = [], []
    for k, g in enumerate(pool.graphs):
        column = {e: 2 * int(c) for e, c in zip(g.edge_list, pool.classes[k])}
        kernel, symmetry = [], []
        for i in range(1, n + 1):
            neigh = g.neighbors(i)
            if not neigh:
                continue
            r0, r1, r2 = np.zeros((3, pool.dim))
            for j in neigh:
                a = column[(min(i, j), max(i, j))]
                b = a + 1
                d = q_star[j - 1] - q_star[i - 1]
                sign = 1.0 if i < j else -1.0
                kd = _K2 @ d
                r0[a] += d[0]
                r0[b] += sign * kd[0]
                r1[a] += d[1]
                r1[b] += sign * kd[1]
                r2[b] += sign
            kernel += [r0, r1]
            symmetry.append(r2)
        rows += kernel + symmetry
        rhs += [0.0] * (len(kernel) + len(symmetry))
    r0 = np.zeros(pool.dim)
    for k, g in enumerate(pool.graphs):
        for c in pool.classes[k]:
            r0[2 * c] += -4.0
    rows.append(r0)
    rhs.append(trace_total)
    return np.array(rows), np.array(rhs)


def kkt_x_update(operators, G, h, r):
    """The (x, gamma)-update of the gain design's ADMM by its KKT system:
    ``update(c)`` minimizes -gamma + 1/2 ||B x + gamma I + c||^2 subject to
    G x = h for an (m, r, r) Hermitian stack c, and returns (x, gamma) and
    the stack B x + gamma I.  ``operators`` holds, per topology, the
    r^2 x dim complex matrix of x -> vec(Q_c^H H^k(x) Q_c); G has independent
    rows; norms are those of <W, M> = 2 Re tr(W^H M)."""
    dim = G.shape[1]
    C = [np.column_stack([B, np.eye(r).reshape(-1)]) for B in operators]
    K = sum(2.0 * (Ck.conj().T @ Ck).real for Ck in C)
    # A ridge of 1e-12 of K's mean diagonal entry, as the solver's on (x, gamma).
    K += 1e-12 * max(1.0, np.trace(K) / (dim + 1)) * np.eye(dim + 1)
    Gz = np.hstack([G, np.zeros((len(G), 1))])
    solve = np.linalg.inv(np.block([[K, Gz.T], [Gz, np.zeros((len(G), len(G)))]]))[: dim + 1]

    def update(c):
        rhs = -sum(2.0 * (Ck.conj().T @ ck.reshape(-1)).real for Ck, ck in zip(C, c))
        rhs[dim] += 1.0
        sol = solve @ np.concatenate([rhs, h])
        return sol, np.array([Ck @ sol for Ck in C]).reshape(c.shape)

    return update


def psd_project(M):
    """Each Hermitian matrix of a stack, projected onto the PSD cone."""
    w, V = np.linalg.eigh(0.5 * (M + M.conj().swapaxes(-1, -2)))
    return (V * np.maximum(w, 0.0)[..., None, :]) @ V.conj().swapaxes(-1, -2)


def admm_dense(operators, G, h, r, max_iterations, tol):
    """The gain design's ADMM with full (m, r, r) Hermitian iterates and the
    KKT update of ``kkt_x_update``: Z = PSD(-(B x + gamma I) - Y), then
    Y += Z + B x + gamma I, until the primal and dual residuals, scaled by
    sqrt(m) 2r, are both below ``tol``.  Returns (x, gamma, iterations)."""
    m = len(operators)
    update = kkt_x_update(operators, G, h, r)
    Z = np.zeros((m, r, r), dtype=complex)
    Y = np.zeros_like(Z)
    scale = math.sqrt(m) * 2 * r
    for it in range(1, max_iterations + 1):
        sol, shifted = update(Z + Y)
        Z_new = psd_project(-shifted - Y)
        dual = math.sqrt(2.0 * np.vdot(Z_new - Z, Z_new - Z).real) / scale
        Z = Z_new
        R = Z + shifted
        primal = math.sqrt(2.0 * np.vdot(R, R).real) / scale
        Y = Y + R
        if primal < tol and dual < tol:
            break
    return sol[:-1], sol[-1], it
