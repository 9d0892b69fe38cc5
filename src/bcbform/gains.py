"""Gain design: structured SDP solved by ADMM, plus spectrum verification.

The design problem maximizes the smallest eigenvalue of -Q^T A Q over gain
matrices A that are symmetric, block-Laplacian, sparse on the sensing graph,
annihilate the kernel basis, and have fixed trace.  A custom ADMM splitting
(affine projection / PSD projection) solves it; a projected-subgradient
ascent is available as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .errors import (
    DimensionError,
    InfeasibleTopologyError,
    JointInfeasibilityError,
    SolverFailureError,
)
from .geometry import (
    FormationSpec,
    KernelBasis,
    SensingGraph,
    build_kernel_basis,
    validate_graph,
)

# 2x2 generators of the rotation-scaled block algebra.
_I2 = np.eye(2)
_K2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the gain design solve.

    ``trace_budget`` defaults to -(2n-4), which puts the spectrally-flat
    optimum's nonzero eigenvalues near -1.
    """

    trace_budget: float | None = None
    max_iterations: int = 20000
    primal_tol: float = 1e-9
    dual_tol: float = 1e-9
    zero_tolerance: float | None = None
    algorithm: str = "admm"  # or "projected_subgradient"
    rho: float = 1.0
    pd_floor: float | None = None

    def resolved_trace(self, n: int) -> float:
        t = self.trace_budget if self.trace_budget is not None else -(2.0 * n - 4.0)
        if t >= 0:
            raise DimensionError("trace budget must be negative")
        return t

    def resolved_floor(self, n: int) -> float:
        if self.pd_floor is not None:
            return self.pd_floor
        return 1e-6 * abs(self.resolved_trace(n)) / (2 * n - 4)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue summary used to accept or reject a gain matrix."""

    eigenvalues: tuple[float, ...]
    zero_count: int
    spectral_gap: float
    kernel_residual: float
    zero_tolerance: float

    @property
    def passed(self) -> bool:
        eig = np.array(self.eigenvalues)
        nonzero = eig[np.abs(eig) > self.zero_tolerance]
        return (
            self.zero_count == 4
            and np.all(nonzero < -self.zero_tolerance)
            and self.kernel_residual <= self.zero_tolerance
        )


@dataclass(frozen=True)
class GainMatrix:
    """Symmetric block-Laplacian gain matrix over a sensing graph.

    ``blocks`` maps each ordered neighbor pair (i, j) to its (a_ij, b_ij)
    parameters; the assembled dense matrix is cached alongside.
    """

    n: int
    blocks: dict[tuple[int, int], tuple[float, float]]
    assembled: NDArray[np.float64] = field(repr=False)

    @classmethod
    def from_edge_params(
        cls, graph: SensingGraph, params: dict[tuple[int, int], tuple[float, float]]
    ) -> "GainMatrix":
        """Assemble from per-edge (a, b) values keyed by sorted edge (i < j)."""
        n = graph.n
        blocks: dict[tuple[int, int], tuple[float, float]] = {}
        A = np.zeros((2 * n, 2 * n))
        for (i, j) in graph.edge_list:
            a, b = params[(i, j)]
            blocks[(i, j)] = (a, b)
            blocks[(j, i)] = (a, -b)
            bij = a * _I2 + b * _K2
            si, sj = 2 * (i - 1), 2 * (j - 1)
            A[si : si + 2, sj : sj + 2] += bij
            A[sj : sj + 2, si : si + 2] += bij.T
            A[si : si + 2, si : si + 2] -= bij
            A[sj : sj + 2, sj : sj + 2] -= bij.T
        return cls(n=n, blocks=blocks, assembled=A)

    def block_row(self, i: int) -> dict[int, NDArray[np.float64]]:
        """Off-diagonal 2x2 gain blocks of agent ``i`` keyed by neighbor index."""
        out = {}
        for (a_idx, b_idx), (a, b) in self.blocks.items():
            if a_idx == i:
                out[b_idx] = a * _I2 + b * _K2
        return out

    def edge_params(self) -> dict[tuple[int, int], tuple[float, float]]:
        return {k: v for k, v in self.blocks.items() if k[0] < k[1]}


def reduced_matrix(A: NDArray[np.floating], basis: KernelBasis) -> NDArray[np.float64]:
    """Restriction Q^T A Q carrying the nonzero spectrum of A."""
    A = np.asarray(A, dtype=np.float64)
    if A.shape != (basis.N.shape[0],) * 2:
        raise DimensionError(
            f"gain matrix shape {A.shape} does not match basis dimension {basis.N.shape[0]}"
        )
    return basis.Q.T @ A @ basis.Q


def verify_gains(
    A: GainMatrix | NDArray[np.floating],
    basis: KernelBasis,
    zero_tol: float | None = None,
) -> SpectrumReport:
    """Check the spectrum conditions: four zero eigenvalues, rest negative."""
    mat = A.assembled if isinstance(A, GainMatrix) else np.asarray(A, dtype=np.float64)
    eig = np.sort(np.linalg.eigvalsh(mat))[::-1]
    max_abs = float(np.max(np.abs(eig))) if eig.size else 0.0
    if zero_tol is None:
        zero_tol = 1e-6 * max_abs if max_abs > 0 else 1e-12
    zero_count = int(np.sum(np.abs(eig) <= zero_tol))
    gap = float(-eig[4]) if eig.size > 4 else 0.0
    residuals = []
    for col in range(4):
        v = basis.N[:, col]
        residuals.append(np.linalg.norm(mat @ v) / np.linalg.norm(v))
    return SpectrumReport(
        eigenvalues=tuple(float(x) for x in eig),
        zero_count=zero_count,
        spectral_gap=gap,
        kernel_residual=float(max(residuals)),
        zero_tolerance=float(zero_tol),
    )


# ---------------------------------------------------------------------------
# Variable bookkeeping for single and joint solves


class _VariablePool:
    """Shared (a, b) parameters for edges across one or more topologies.

    Agents whose neighbor sets coincide in two topologies cannot distinguish
    them, so their gains are forced to share the same underlying variables
    (exact bitwise sharing, not a numeric equality constraint).
    """

    def __init__(self, graphs: list[SensingGraph]):
        self.graphs = graphs
        n = graphs[0].n
        if any(g.n != n for g in graphs):
            raise DimensionError("all topologies must share the agent count")
        self.n = n
        keys = [(k, e) for k, g in enumerate(graphs) for e in g.edge_list]
        parent = {key: key for key in keys}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)

        for k in range(len(graphs)):
            for l in range(k + 1, len(graphs)):
                for i in range(1, n + 1):
                    ni_k = graphs[k].neighbors(i)
                    if ni_k and ni_k == graphs[l].neighbors(i):
                        for j in ni_k:
                            e = (min(i, j), max(i, j))
                            union((k, e), (l, e))

        roots = sorted({find(key) for key in keys})
        self.class_index = {root: c for c, root in enumerate(roots)}
        self.key_class = {key: self.class_index[find(key)] for key in keys}
        self.n_classes = len(roots)
        self.dim = 2 * self.n_classes  # (a, b) per class
        # Members per class, for reporting tie groups.
        self.class_members: list[list[tuple[int, tuple[int, int]]]] = [
            [] for _ in range(self.n_classes)
        ]
        for key, c in self.key_class.items():
            self.class_members[c].append(key)

    def a_index(self, key) -> int:
        return 2 * self.key_class[key]

    def b_index(self, key) -> int:
        return 2 * self.key_class[key] + 1

    def edge_params(self, k: int, x: NDArray[np.float64]):
        return {
            e: (float(x[self.a_index((k, e))]), float(x[self.b_index((k, e))]))
            for e in self.graphs[k].edge_list
        }


def _elementary_columns(pool: _VariablePool, k: int, Q: NDArray[np.float64]):
    """Map x -> vec(Q^T A^k(x) Q) as a dense matrix of shape (r*r, dim)."""
    n, r = pool.n, Q.shape[1]
    B = np.zeros((r * r, pool.dim))
    rows = Q.reshape(n, 2, r)  # rows[i-1] is the 2 x r slice of agent i
    for (i, j) in pool.graphs[k].edge_list:
        Qi, Qj = rows[i - 1], rows[j - 1]
        # a-variable: blocks +I at (i,j),(j,i); -I at diagonals.
        AQ = np.zeros((n, 2, r))
        AQ[i - 1] = Qj - Qi
        AQ[j - 1] = Qi - Qj
        col = (Q.T @ AQ.reshape(2 * n, r)).reshape(-1)
        B[:, pool.a_index((k, (i, j)))] += col
        # b-variable: +K at (i,j), -K at (j,i), -K at diag i, +K at diag j.
        AQ = np.zeros((n, 2, r))
        AQ[i - 1] = _K2 @ (Qj - Qi)
        AQ[j - 1] = _K2.T @ (Qi - Qj)
        col = (Q.T @ AQ.reshape(2 * n, r)).reshape(-1)
        B[:, pool.b_index((k, (i, j)))] += col
    return B


def _constraints(pool: _VariablePool, spec: FormationSpec, trace_total: float):
    """Rows G x = h: kernel annihilation, diagonal symmetry, total trace."""
    n = pool.n
    q_star = spec.q_star.reshape(n, 2)
    rows, rhs = [], []
    for k, g in enumerate(pool.graphs):
        # A^k q* = 0: block i of A q* = sum_j (a I + b K)(q*_j - q*_i)
        for i in range(1, n + 1):
            neigh = g.neighbors(i)
            if not neigh:
                continue
            r0 = np.zeros(pool.dim)
            r1 = np.zeros(pool.dim)
            for j in neigh:
                e = (min(i, j), max(i, j))
                d = q_star[j - 1] - q_star[i - 1]
                sign = 1.0 if i < j else -1.0  # b is oriented along i < j
                kd = _K2 @ d
                r0[pool.a_index((k, e))] += d[0]
                r0[pool.b_index((k, e))] += sign * kd[0]
                r1[pool.a_index((k, e))] += d[1]
                r1[pool.b_index((k, e))] += sign * kd[1]
            rows += [r0, r1]
            rhs += [0.0, 0.0]
        # Diagonal-block symmetry: sum_j b_ij = 0 per agent.
        for i in range(1, n + 1):
            neigh = g.neighbors(i)
            if not neigh:
                continue
            r0 = np.zeros(pool.dim)
            for j in neigh:
                e = (min(i, j), max(i, j))
                sign = 1.0 if i < j else -1.0
                r0[pool.b_index((k, e))] += sign
            rows.append(r0)
            rhs.append(0.0)
    # Total trace: each edge instance contributes -4 a.
    r0 = np.zeros(pool.dim)
    for k, g in enumerate(pool.graphs):
        for e in g.edge_list:
            r0[pool.a_index((k, e))] += -4.0
    rows.append(r0)
    rhs.append(trace_total)
    return np.array(rows), np.array(rhs)


def _affine_parametrization(G, h):
    """Particular solution and orthonormal null-space basis of G x = h."""
    x0, *_ = np.linalg.lstsq(G, h, rcond=None)
    if np.linalg.norm(G @ x0 - h) > 1e-8 * (1.0 + np.linalg.norm(h)):
        raise InfeasibleTopologyError(
            "gain constraints admit no solution for this graph/formation pair; "
            "the sensing graph is likely not universally rigid"
        )
    _, s, Vt = np.linalg.svd(G, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * (s[0] if s.size else 1.0)))
    Zn = Vt[rank:].T
    return x0, Zn


@dataclass
class SolveInfo:
    """Metadata from one solver run, persisted alongside the gains."""

    algorithm: str
    iterations: int
    gamma: float
    primal_residual: float
    dual_residual: float
    converged: bool


def _psd_project(M: NDArray[np.float64]) -> NDArray[np.float64]:
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    w = np.maximum(w, 0.0)
    return (V * w) @ V.T


def _admm_solve(Bs, Zn, x0, r, opts: SolverOptions):
    """ADMM on: max gamma s.t. Abar^k(x) + gamma I <= 0, x in affine set."""
    dim_y = Zn.shape[1]
    m_top = len(Bs)
    rho = opts.rho
    F = np.vstack([Bk @ Zn for Bk in Bs])
    offs = np.concatenate([Bk @ x0 for Bk in Bs])
    e = np.concatenate([np.eye(r).reshape(-1)] * m_top)
    M = np.empty((dim_y + 1, dim_y + 1))
    M[:dim_y, :dim_y] = F.T @ F
    M[:dim_y, dim_y] = F.T @ e
    M[dim_y, :dim_y] = e.T @ F
    M[dim_y, dim_y] = e @ e
    # Tiny ridge guards rank deficiency in degenerate variable pools.
    M[np.diag_indices_from(M)] += 1e-12 * max(1.0, np.trace(M) / (dim_y + 1))
    lu, piv = scipy.linalg.lu_factor(M)

    y = np.zeros(dim_y)
    gamma = 0.0
    Zs = [np.zeros((r, r)) for _ in range(m_top)]
    Ys = [np.zeros((r, r)) for _ in range(m_top)]
    scale = np.sqrt(m_top) * r
    primal = dual = np.inf
    it = 0
    for it in range(1, opts.max_iterations + 1):
        # (x, gamma)-update: equality-constrained least squares.
        c = offs + np.concatenate([(Zk + Yk / rho).reshape(-1) for Zk, Yk in zip(Zs, Ys)])
        rhs = np.empty(dim_y + 1)
        rhs[:dim_y] = -F.T @ c
        rhs[dim_y] = 1.0 / rho - e @ c
        sol = scipy.linalg.lu_solve((lu, piv), rhs)
        y, gamma = sol[:dim_y], sol[dim_y]
        abar_vec = F @ y + offs
        # Z-update: spectral projection onto the PSD cone.
        dual_acc = 0.0
        primal_acc = 0.0
        for k in range(m_top):
            Abark = abar_vec[k * r * r : (k + 1) * r * r].reshape(r, r)
            target = -(Abark + gamma * np.eye(r)) - Ys[k] / rho
            Zk_new = _psd_project(target)
            dual_acc += np.linalg.norm(Zk_new - Zs[k]) ** 2
            Zs[k] = Zk_new
            Rk = Zs[k] + Abark + gamma * np.eye(r)
            primal_acc += np.linalg.norm(Rk) ** 2
            Ys[k] = Ys[k] + rho * Rk
        primal = np.sqrt(primal_acc) / scale
        dual = rho * np.sqrt(dual_acc) / scale
        if primal < opts.primal_tol and dual < opts.dual_tol:
            break
    x = x0 + Zn @ y
    converged = primal < opts.primal_tol and dual < opts.dual_tol
    return x, SolveInfo(
        algorithm="admm",
        iterations=it,
        gamma=float(gamma),
        primal_residual=float(primal),
        dual_residual=float(dual),
        converged=converged,
    )


def _subgradient_solve(Bs, Zn, x0, r, opts: SolverOptions):
    """Projected subgradient ascent on gamma(x) = min_k lambda_1(-Abar^k(x))."""
    m_top = len(Bs)
    Fs = [Bk @ Zn for Bk in Bs]
    offs = [Bk @ x0 for Bk in Bs]
    y = np.zeros(Zn.shape[1])
    best_y = y.copy()
    best_gamma = -np.inf
    step0 = 1.0
    it = 0
    for it in range(1, opts.max_iterations + 1):
        gammas, vecs = [], []
        for k in range(m_top):
            Abark = (Fs[k] @ y + offs[k]).reshape(r, r)
            w, V = np.linalg.eigh(-Abark)
            gammas.append(w[0])
            vecs.append(V[:, 0])
        k_min = int(np.argmin(gammas))
        gamma = gammas[k_min]
        if gamma > best_gamma:
            best_gamma = gamma
            best_y = y.copy()
        v = vecs[k_min]
        grad = -Fs[k_min].T @ np.outer(v, v).reshape(-1)
        gnorm = np.linalg.norm(grad)
        if gnorm < 1e-14:
            break
        y = y + (step0 / np.sqrt(it)) * grad / gnorm
    x = x0 + Zn @ best_y
    return x, SolveInfo(
        algorithm="projected_subgradient",
        iterations=it,
        gamma=float(best_gamma),
        primal_residual=0.0,
        dual_residual=0.0,
        converged=True,
    )


def _design(
    graphs: list[SensingGraph],
    spec: FormationSpec,
    opts: SolverOptions,
    joint: bool,
) -> tuple[list[GainMatrix], SolveInfo]:
    for g in graphs:
        if not validate_graph(g).connected:
            raise InfeasibleTopologyError(
                "the sensing graph is disconnected; a stabilizing gain matrix "
                "needs a connected graph"
            )
        if g.n != spec.n:
            raise DimensionError("graph and formation sizes differ")
    basis = build_kernel_basis(spec)
    n = spec.n
    r = 2 * n - 4
    trace_per = opts.resolved_trace(n)
    pool = _VariablePool(graphs if joint else graphs[:1])
    G, h = _constraints(pool, spec, trace_per * len(pool.graphs))
    x0, Zn = _affine_parametrization(G, h)
    Bs = [_elementary_columns(pool, k, basis.Q) for k in range(len(pool.graphs))]
    if opts.algorithm == "projected_subgradient":
        x, info = _subgradient_solve(Bs, Zn, x0, r, opts)
    elif opts.algorithm == "admm":
        x, info = _admm_solve(Bs, Zn, x0, r, opts)
    else:
        raise DimensionError(f"unknown solver algorithm {opts.algorithm!r}")

    # Exact achieved objective, independent of the solver's running estimate.
    gammas = [
        float(np.linalg.eigvalsh(-(Bk @ x).reshape(r, r))[0]) for Bk in Bs
    ]
    gamma = min(gammas)
    info = replace(info, gamma=gamma)
    floor = opts.resolved_floor(n)
    if gamma <= floor:
        if joint and len(graphs) > 1:
            ties = [
                members
                for members in pool.class_members
                if len({k for k, _ in members}) > 1
            ]
            raise JointInfeasibilityError(
                f"joint gain design infeasible (best gamma {gamma:.3e} <= floor "
                f"{floor:.3e}); {len(ties)} shared-gain groups bind the topologies",
                tie_groups=ties,
            )
        raise InfeasibleTopologyError(
            f"no negative-definite reduced gain matrix exists for this "
            f"graph/formation pair (best gamma {gamma:.3e} <= floor {floor:.3e}); "
            f"the sensing graph is likely not universally rigid"
        )
    if not info.converged and opts.algorithm == "admm":
        raise SolverFailureError(
            f"ADMM did not converge in {opts.max_iterations} iterations",
            primal_residual=info.primal_residual,
            dual_residual=info.dual_residual,
        )
    mats = [
        GainMatrix.from_edge_params(pool.graphs[k], pool.edge_params(k, x))
        for k in range(len(pool.graphs))
    ]
    return mats, info


def design_gains(
    graph: SensingGraph,
    spec: FormationSpec,
    opts: SolverOptions = SolverOptions(),
) -> tuple[GainMatrix, SolveInfo]:
    """Design a stabilizing gain matrix for a single sensing topology."""
    mats, info = _design([graph], spec, opts, joint=False)
    return mats[0], info


def design_joint_gains(
    graphs: list[SensingGraph],
    spec: FormationSpec,
    opts: SolverOptions = SolverOptions(),
) -> tuple[list[GainMatrix], SolveInfo]:
    """Design gains for several topologies that must agree wherever an agent
    cannot distinguish two of them (identical neighbor sets)."""
    if not graphs:
        raise DimensionError("need at least one topology")
    mats, info = _design(list(graphs), spec, opts, joint=True)
    return mats, info


# ---------------------------------------------------------------------------
# Higher-order (chain) stability checks


@dataclass(frozen=True)
class RootCheckReport:
    """Per-eigenvalue worst root real part for the chain closed loop."""

    variant: str
    gains: tuple[float, ...]
    max_real_parts: tuple[float, ...]  # one per supplied eigenvalue
    mus: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return all(m < 0 for m in self.max_real_parts)

    @property
    def worst(self) -> tuple[float, float]:
        idx = int(np.argmax(self.max_real_parts))
        return self.mus[idx], self.max_real_parts[idx]


def chain_characteristic(mu: float, k: list[float], variant: str) -> NDArray[np.float64]:
    """Coefficients (highest power first) of the order-(m+1) closed-loop factor.

    full_A couples every derivative through the gain matrix; the
    identity-derivatives variant damps an agent's own derivatives directly,
    so only the position term carries the eigenvalue.
    """
    k = list(k)
    m = len(k) - 1
    if variant == "full_A":
        return np.array([1.0] + [-k[m - idx] * mu for idx in range(m + 1)])
    if variant == "identity_derivatives":
        return np.array([1.0] + [k[m - idx] for idx in range(m)] + [-k[0] * mu])
    raise DimensionError(f"unknown chain control variant {variant!r}")


def verify_higher_order_gains(
    spectrum, k: list[float], variant: str = "full_A"
) -> RootCheckReport:
    """Root test of the chain closed loop over the gain matrix spectrum."""
    mus = [float(m) for m in np.atleast_1d(np.asarray(spectrum, dtype=np.float64))]
    if not mus:
        raise DimensionError("spectrum must be nonempty")
    max_parts = []
    for mu in mus:
        roots = np.roots(chain_characteristic(mu, k, variant))
        max_parts.append(float(np.max(roots.real)))
    return RootCheckReport(
        variant=variant,
        gains=tuple(float(v) for v in k),
        max_real_parts=tuple(max_parts),
        mus=tuple(mus),
    )


def chain_closed_loop_matrix(
    A: NDArray[np.floating], k: list[float], variant: str = "full_A"
) -> NDArray[np.float64]:
    """Block-companion closed-loop matrix for chain agents (cross-check)."""
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
