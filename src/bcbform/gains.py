"""Gain design: structured SDP solved by ADMM, plus spectrum verification.

The design problem maximizes the smallest eigenvalue of -Q^T A Q over gain
matrices A that are symmetric, block-Laplacian, sparse on the sensing graph,
annihilate the kernel basis, and have fixed trace.  ADMM splits it into a
PSD projection and a least-squares step on the null space of the equality
constraints: one affine map, formed once from an SVD, whose memory is a few
dim x dim arrays for dim edge parameters.  Its dual iterate gives an upper
bound on the optimum, so every design reports its duality gap.

The 2n - 4 nonzero eigenvalues of Q^T A Q sum to the trace tau, so no graph
has a gap above |tau|/(2n - 4), and only the flat matrix
A* = (tau/(2n - 4)) Q Q^T reaches it.  A* is rotation-scaled blockwise, has
zero row sums and annihilates q*, so it is the optimum of every graph on
whose non-edges its blocks vanish: the complete graph for any formation, and
sparser graphs only for special ones.  Those designs read their gains off A*
and skip ADMM.

Each 2 x 2 block a I + b K multiplies like the complex number a - ib, so A
is the realification of an n x n Hermitian matrix H, and -Q^T A Q that of
the (n-2) x (n-2) Hermitian -Q_c^H H Q_c.  ADMM runs on the Hermitian
matrices, with the inner products of their realifications: the same
iterates at half the matrix side.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
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


MAX_ITERATIONS = 20000  # ADMM iterations per design
# A block of the flat optimum counts as zero off the graph when its entry is
# at most FLAT_TOL |tau|/(2n-4); rounding leaves about n * 1e-16 there.
FLAT_TOL = 1e-12
PRIMAL_TOL = DUAL_TOL = 1e-9  # absolute ADMM stopping tolerances
ADMM_RHO = 1.0  # ADMM penalty parameter


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the gain design solve.

    ``trace_budget`` defaults to -(2n-4), which puts the spectrally-flat
    optimum's nonzero eigenvalues near -1.
    """

    trace_budget: float | None = None

    def resolved_trace(self, n: int) -> float:
        t = self.trace_budget if self.trace_budget is not None else -(2.0 * n - 4.0)
        if t >= 0:
            raise DimensionError("trace budget must be negative")
        return t


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
    """Block-Laplacian gain matrix over a sensing graph.

    ``params`` is the read-only (E, 2) array of (a_ij, b_ij), one row per edge
    of ``graph.edge_list`` (i < j): agent i weighs agent j through the block
    a I + b K, and j weighs i through a I - b K.  The assembled dense matrix
    is built once, at construction.  It is symmetric when each agent's signed
    sum_j b_ij is zero, as designs make it and ``sim.check_gains`` checks.
    """

    graph: SensingGraph
    params: NDArray[np.float64]
    assembled: NDArray[np.float64] = field(init=False, repr=False)

    def __post_init__(self):
        params = np.array(self.params, dtype=np.float64)
        if params.shape != (len(self.graph.edge_list), 2):
            raise DimensionError(f"gain parameters of shape {params.shape} for "
                                 f"{len(self.graph.edge_list)} edges; expected one "
                                 "(a, b) row per edge")
        params.setflags(write=False)
        object.__setattr__(self, "params", params)
        # Each off-diagonal block is written once and each diagonal block is
        # minus its row's sum in neighbor order, onto 0.0 like a sum into zeros.
        n = self.n
        src, dst, _ = self.graph.directed_edges()
        blocks = self.directed_blocks()
        A = np.zeros((2 * n, 2 * n))
        grid = A.reshape(n, 2, n, 2).swapaxes(1, 2)  # grid[i, j] is block (i, j)
        grid[src, dst] = 0.0 + blocks
        scatter = (4 * src[:, None] + np.arange(4)).ravel()
        row_sums = np.bincount(scatter, blocks.ravel(), 4 * n).reshape(n, 2, 2)
        grid[range(n), range(n)] = 0.0 - row_sums
        object.__setattr__(self, "assembled", A)

    @property
    def n(self) -> int:
        return self.graph.n

    def directed_blocks(self) -> NDArray[np.float64]:
        """(2E, 2, 2) gain blocks A_src,dst of ``graph.directed_edges()``."""
        src, dst, edge = self.graph.directed_edges()
        a, b = self.params[edge].T
        b = np.where(src < dst, b, -b)
        return a[:, None, None] * _I2 + b[:, None, None] * _K2


def verify_gains(A: GainMatrix | NDArray[np.floating], basis: KernelBasis) -> SpectrumReport:
    """Spectrum check: four zero eigenvalues (to 1e-6 relative), rest negative."""
    mat = A.assembled if isinstance(A, GainMatrix) else np.asarray(A, dtype=np.float64)
    eig = np.sort(np.linalg.eigvalsh(mat))[::-1]
    max_abs = float(np.max(np.abs(eig))) if eig.size else 0.0
    zero_tol = 1e-6 * max_abs if max_abs > 0 else 1e-12
    zero_count = int(np.sum(np.abs(eig) <= zero_tol))
    gap = float(-eig[4]) if eig.size > 4 else 0.0
    residuals = [np.linalg.norm(mat @ v) / np.linalg.norm(v) for v in basis.N.T]
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

        # Classes are numbered by their roots, each the class's first key.
        class_index = {}
        key_class = [class_index.setdefault(find(key), len(class_index)) for key in keys]
        self.n_classes = len(class_index)
        self.dim = 2 * self.n_classes  # (a, b) per class: x[2c], x[2c + 1]
        # Class of every edge of each topology, aligned with its edge_list.
        self.classes = np.split(np.array(key_class, dtype=np.intp),
                                np.cumsum([len(g.edge_list) for g in graphs])[:-1])
        # Members per class, for reporting tie groups.
        self.class_members: list[list[tuple[int, tuple[int, int]]]] = [
            [] for _ in range(self.n_classes)
        ]
        for key, c in zip(keys, key_class):
            self.class_members[c].append(key)


class _EdgeOperator:
    """x -> Q_c^H H^k(x) Q_c for every topology k of a pool, from the edge list.

    A block a I + b K acts on (x, y) as a - ib acts on x + iy, so A^k(x) is
    the realification of the n x n complex matrix H^k(x) with entry a - ib
    wherever A^k(x) has block a I + b K.  Q^T A^k(x) Q is then, up to an
    orthogonal change of basis, the realification of Q_c^H H^k(x) Q_c: the
    same spectrum, each eigenvalue doubled, at half the side.  With the
    1 x r rows Q_c[i] and, per edge (i, j), D = Q_c[j] - Q_c[i] and
    S = Q_c[i] + Q_c[j], the a-variable of the edge contributes -a D^H D and
    its b-variable -ib S^H D.  Every variable u is thus c_u L_u^H R_u with
    1 x r factors, so the forward map, its adjoint and the Gram matrix only
    ever touch single rows: nothing of size r^2 x dim is formed.  Inner
    products are <W, M> = 2 Re tr(W^H M), the real Frobenius product of the
    realified matrices, so the adjoint and the Gram matrix are those of the
    real map.  Topologies are stacked on a leading axis, padded with zero
    rows to a common edge count.
    """

    def __init__(self, pool: _VariablePool, Qc: NDArray[np.complex128]):
        r = Qc.shape[1]
        m = len(pool.graphs)
        count = max(len(g.edge_list) for g in pool.graphs)
        # Variable u = (a or b, edge) owns factor row u.
        left = np.zeros((m, 2, count, r), dtype=complex)
        right = np.zeros((m, 2, count, r), dtype=complex)
        index = np.zeros((m, 2, count), dtype=np.intp)
        coef = np.zeros((m, 2, count), dtype=complex)
        self.parts = []  # unpadded (L, R, index, coef) per topology
        for k, g in enumerate(pool.graphs):
            ne = len(g.edge_list)
            i, j = g.edge_index()
            D = Qc[j] - Qc[i]
            left[k, 0, :ne] = right[k, 0, :ne] = right[k, 1, :ne] = D
            left[k, 1, :ne] = Qc[i] + Qc[j]
            index[k, 0, :ne] = 2 * pool.classes[k]
            index[k, 1, :ne] = 2 * pool.classes[k] + 1
            coef[k, 0, :ne] = -1.0
            coef[k, 1, :ne] = -1j
            self.parts.append((
                left[k, :, :ne].reshape(2 * ne, r),
                right[k, :, :ne].reshape(2 * ne, r),
                index[k, :, :ne].reshape(-1),
                coef[k, :, :ne].reshape(-1),
            ))
        self.m, self.r, self.dim = m, r, pool.dim
        self.left = left.reshape(m, 2 * count, r)
        self.left_h = np.ascontiguousarray(self.left.conj().transpose(0, 2, 1))
        self.right = right.reshape(m, 2 * count, r)
        self.right_conj = self.right.conj()
        self.index = index.reshape(m, 2 * count)
        self.coef = coef.reshape(m, 2 * count)
        self.adjoint_coef = 2.0 * self.coef.conj()

    def forward(self, x: NDArray[np.float64]) -> NDArray[np.complex128]:
        """Stack (m, r, r) of Q_c^H H^k(x) Q_c."""
        return (self.left_h * (self.coef * x[self.index])[:, None, :]) @ self.right

    def adjoint(self, W: NDArray[np.complexfloating]) -> NDArray[np.float64]:
        """x-space vector sum_k B_k^T W_k for a stack W of shape (m, r, r):
        entry u is 2 Re tr(B_u^H W) = 2 Re(conj(c_u) L_u W R_u^H)."""
        vals = np.einsum("kus,kus->ku", self.left @ W, self.right_conj)
        vals = (self.adjoint_coef * vals).real
        return np.bincount(self.index.ravel(), weights=vals.ravel(), minlength=self.dim)

    def gram(self, out=None, chunk_rows: int = 128) -> NDArray[np.float64]:
        """B^T B: <B_u, B_v> = 2 Re(conj(c_u) c_v (L_u L_v^H) conj(R_u R_v^H)).

        Added into ``out`` (a zeroed dim x dim array or view) when given.
        Factor rows are taken ``chunk_rows`` at a time against the rows from
        the chunk's first onward, so each pair of variables is formed once
        and a pair beyond the chunk fills both of its entries.  No temporary
        grows beyond chunk_rows x (2 |E|)."""
        G = np.zeros((self.dim, self.dim)) if out is None else out
        for L, R, idx, coef in self.parts:
            nvar = idx.size
            L_h, R_t, R_conj, coef_conj = L.conj().T, R.T, R.conj(), coef.conj()
            for lo in range(0, nvar, chunk_rows):
                hi = min(lo + chunk_rows, nvar)
                blk = L[lo:hi] @ L_h[:, lo:]
                blk *= R_conj[lo:hi] @ R_t[:, lo:]
                blk *= coef_conj[lo:hi, None]
                blk *= coef[lo:]
                vals = blk.real
                vals *= 2.0
                G[np.ix_(idx[lo:hi], idx[lo:])] += vals
                G[np.ix_(idx[hi:], idx[lo:hi])] += vals[:, hi - lo :].T
                del blk, vals  # before the next products
        return G


def _constraints(pool: _VariablePool, spec: FormationSpec, trace_total: float):
    """Rows G x = h: per topology, two kernel rows per agent with neighbors,
    block i of A^k q* = sum_j (a I + b K)(q*_j - q*_i) = 0, then one diagonal
    symmetry row each, sum_j b_ij = 0 with b oriented along i < j; last, the
    total trace, -4 a per edge of each topology.  A class enters a topology's
    row through one edge only, so each entry is written once, as 0.0 + v."""
    n = pool.n
    q_star = spec.q_star.reshape(n, 2)
    parts = []
    for k, g in enumerate(pool.graphs):
        src, dst, edge = g.directed_edges()
        sensing = np.bincount(src, minlength=n) > 0
        rows = np.cumsum(sensing)[src] - 1  # rank of src among sensing agents
        m = int(np.count_nonzero(sensing))
        d = q_star[dst] - q_star[src]
        kd = d @ _K2.T
        sign = np.where(src < dst, 1.0, -1.0)
        a = 2 * pool.classes[k][edge]
        Gk = np.zeros((3 * m, pool.dim))
        Gk[np.concatenate([2 * rows, 2 * rows + 1, 2 * rows, 2 * rows + 1, 2 * m + rows]),
           np.concatenate([a, a, a + 1, a + 1, a + 1])] = 0.0 + np.concatenate(
            [d[:, 0], d[:, 1], sign * kd[:, 0], sign * kd[:, 1], sign])
        parts.append(Gk)
    trace_row = np.zeros((1, pool.dim))
    np.add.at(trace_row[0], 2 * np.concatenate(pool.classes), -4.0)
    G = np.vstack(parts + [trace_row])
    h = np.zeros(len(G))
    h[-1] = trace_total
    return G, h


def _independent_constraints(G, h):
    """Least-norm solution x0 of G x = h and orthonormal bases of null(G) and
    range(G^T), from one SVD; singular values <= 1e-10 of the largest are 0."""
    U, S, Vt = np.linalg.svd(G)
    rank = int(np.sum(S > 1e-10 * (S[0] if S.size else 1.0)))
    x0 = Vt[:rank].T @ ((U[:, :rank].T @ h) / S[:rank])
    if np.linalg.norm(G @ x0 - h) > 1e-8 * (1.0 + np.linalg.norm(h)):
        raise InfeasibleTopologyError(
            "gain constraints admit no solution for this graph/formation pair; "
            "the sensing graph is likely not universally rigid"
        )
    return x0, Vt[rank:].T, Vt[:rank].T


@dataclass
class SolveInfo:
    """Metadata from one solver run, persisted alongside the gains.

    ``algorithm`` is ``"admm"``, or ``"closed_form"`` for a flat optimum,
    which takes 0 iterations and has gamma = ``upper_bound`` = |tau|/(2n-4).
    For ADMM, ``upper_bound`` = -sum_k <W_k, Abar^k(x)>, with W the PSD part
    of the final multiplier at unit total trace, bounds the optimal gamma from
    above once ``bound_residual``, the part of B^T W outside range(G^T), is
    zero."""

    algorithm: str
    iterations: int
    gamma: float
    primal_residual: float
    dual_residual: float
    converged: bool
    upper_bound: float
    bound_residual: float


def _psd_project(M: NDArray[np.complexfloating]) -> NDArray[np.complex128]:
    """Project each Hermitian matrix of a stack onto the PSD cone."""
    w, V = np.linalg.eigh(0.5 * (M + M.conj().swapaxes(-1, -2)))
    w = np.maximum(w, 0.0)
    return (V * w[..., None, :]) @ V.conj().swapaxes(-1, -2)


def _x_update(op: _EdgeOperator, x0, null_basis):
    """(P, offset) with z = P rhs + offset the minimizer of 1/2 z^T K z - rhs^T z
    over z = (x0 + N y, gamma), N = ``null_basis``, K the Gram block of (x, gamma):
    P = T (T^T K T)^-1 T^T, T = blockdiag(N, 1).  Memory: a few (dim + 1)^2 arrays."""
    dim, m_top, r = op.dim, op.m, op.r
    K = np.zeros((dim + 1, dim + 1))
    op.gram(out=K[:dim, :dim])
    K[:dim, dim] = K[dim, :dim] = op.adjoint(np.broadcast_to(np.eye(r), (m_top, r, r)))
    K[dim, dim] = m_top * 2 * r
    # Tiny ridge guards rank deficiency in degenerate variable pools.
    ridge = np.arange(dim + 1)
    K[ridge, ridge] += 1e-12 * max(1.0, np.trace(K) / (dim + 1))
    T = np.zeros((dim + 1, null_basis.shape[1] + 1))
    T[:dim, :-1] = null_basis
    T[dim, -1] = 1.0
    z0 = np.append(x0, 0.0)
    P = T @ np.linalg.solve(T.T @ (K @ T), T.T)
    return P, z0 - P @ (K @ z0)


def _admm_solve(op: _EdgeOperator, x0, null_basis, range_basis):
    """ADMM on: max gamma s.t. Abar^k(x) + gamma I <= 0, G x = h.

    x0 solves G x = h, and ``null_basis`` and ``range_basis`` are orthonormal
    bases of null(G) and range(G^T).  The iterates are the (m, r, r) Hermitian
    stacks of ``op``; every norm, trace and inner product is that of their
    2r x 2r realifications, so the iteration is the one on Q^T A^k(x) Q.  Each
    (x, gamma)-update minimizes -gamma + rho/2 ||B x + gamma e + Z + Y/rho||^2
    subject to G x = h: the affine map of ``_x_update``, formed once."""
    dim, m_top, r = op.dim, op.m, op.r
    side = 2 * r  # of the realified matrices
    rho = ADMM_RHO
    eye = np.eye(r)
    P, offset = _x_update(op, x0, null_basis)

    Z = np.zeros((m_top, r, r), dtype=complex)
    Y = np.zeros((m_top, r, r), dtype=complex)
    scale = np.sqrt(m_top) * side
    rhs = np.empty(dim + 1)
    primal = dual = np.inf
    it = 0
    for it in range(1, MAX_ITERATIONS + 1):
        # (x, gamma)-update: equality-constrained least squares.
        c = Z + Y / rho
        rhs[:dim] = -op.adjoint(c)
        rhs[dim] = 1.0 / rho - 2.0 * np.trace(c, axis1=1, axis2=2).real.sum()
        sol = P @ rhs + offset
        x, gamma = sol[:dim], sol[dim]
        shifted = op.forward(x) + gamma * eye
        # Z-update: spectral projection onto the PSD cone.
        Z_new = _psd_project(-shifted - Y / rho)
        step = Z_new - Z
        dual_acc = 2.0 * np.vdot(step, step).real
        Z = Z_new
        R = Z + shifted
        primal_acc = 2.0 * np.vdot(R, R).real
        Y = Y + rho * R
        primal = np.sqrt(primal_acc) / scale
        dual = rho * np.sqrt(dual_acc) / scale
        if primal < PRIMAL_TOL and dual < DUAL_TOL:
            break
    # For W >= 0 with unit total trace and B^T W = G^T lam, every feasible
    # (x, gamma) has gamma <= -<B^T W, x> = -lam^T h.
    W = _psd_project(Y)
    W /= 2.0 * np.trace(W, axis1=1, axis2=2).real.sum()
    Bt_W = op.adjoint(W)
    return x, SolveInfo(
        algorithm="admm",
        iterations=it,
        gamma=float(gamma),
        primal_residual=float(primal),
        dual_residual=float(dual),
        converged=bool(primal < PRIMAL_TOL and dual < DUAL_TOL),
        upper_bound=-float(Bt_W @ x),
        bound_residual=float(np.linalg.norm(Bt_W - range_basis @ (range_basis.T @ Bt_W))),
    )


def _flat_optimum(graphs: list[SensingGraph], Qc: NDArray[np.complex128], trace: float):
    """(E, 2) edge parameters of every topology read off the flat optimum
    A* = (trace/(2n-4)) Q Q^T, or None if on some topology A* has a block
    above FLAT_TOL |trace|/(2n-4) on a non-edge.  A* is the realification of
    H* = (trace/(2n-4)) Q_c Q_c^H, whose entry a - ib is the block a I + b K."""
    n = Qc.shape[0]
    scale = trace / (2 * n - 4)
    H = scale * (Qc @ Qc.conj().T)
    nonzero = np.triu(np.abs(H) > FLAT_TOL * abs(scale), 1)
    params = []
    for g in graphs:
        i, j = g.edge_index()
        if np.count_nonzero(nonzero) > np.count_nonzero(nonzero[i, j]):
            return None
        params.append(np.column_stack([H[i, j].real, -H[i, j].imag]))
    return params


def design_joint_gains(
    graphs: list[SensingGraph],
    spec: FormationSpec,
    opts: SolverOptions = SolverOptions(),
    basis: KernelBasis | None = None,
) -> tuple[list[GainMatrix], SolveInfo]:
    """Design gains for one or more topologies that must agree wherever an
    agent cannot distinguish two of them (identical neighbor sets).  A caller
    that already holds ``spec``'s kernel basis passes it as ``basis``.

    When the flat optimum fits every topology it is the answer for all of
    them at once, with no solve; otherwise ADMM designs them jointly."""
    graphs = list(graphs)
    if not graphs:
        raise DimensionError("need at least one topology")
    for g in graphs:
        if not validate_graph(g).connected:
            raise InfeasibleTopologyError(
                "the sensing graph is disconnected; a stabilizing gain matrix "
                "needs a connected graph"
            )
        if g.n != spec.n:
            raise DimensionError("graph and formation sizes differ")
    if basis is None:
        basis = build_kernel_basis(spec)
    n = spec.n
    trace_per = opts.resolved_trace(n)
    flat = _flat_optimum(graphs, basis.Qc, trace_per)
    if flat is not None:
        bound = abs(trace_per) / (2 * n - 4)
        info = SolveInfo(algorithm="closed_form", iterations=0, gamma=bound,
                         primal_residual=0.0, dual_residual=0.0, converged=True,
                         upper_bound=bound, bound_residual=0.0)
        return [GainMatrix(g, p) for g, p in zip(graphs, flat)], info
    pool = _VariablePool(graphs)
    G, h = _constraints(pool, spec, trace_per * len(pool.graphs))
    x0, null_basis, range_basis = _independent_constraints(G, h)
    op = _EdgeOperator(pool, basis.Qc)
    x, info = _admm_solve(op, x0, null_basis, range_basis)

    # Exact achieved objective, independent of the solver's running estimate.
    gamma = float(np.linalg.eigvalsh(-op.forward(x))[:, 0].min())
    info = replace(info, gamma=gamma)
    # Smallest gamma accepted: 1e-6 of the mean nonzero eigenvalue magnitude.
    floor = 1e-6 * abs(trace_per) / (2 * n - 4)
    if gamma <= floor:
        if len(graphs) > 1:
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
    if not info.converged:
        raise SolverFailureError(
            f"ADMM did not converge in {MAX_ITERATIONS} iterations",
            primal_residual=info.primal_residual,
            dual_residual=info.dual_residual,
        )
    return [GainMatrix(g, x.reshape(-1, 2)[c]) for g, c in zip(pool.graphs, pool.classes)], info


def design_gains(
    graph: SensingGraph,
    spec: FormationSpec,
    opts: SolverOptions = SolverOptions(),
) -> tuple[GainMatrix, SolveInfo]:
    """Design a stabilizing gain matrix for a single sensing topology."""
    mats, info = design_joint_gains([graph], spec, opts)
    return mats[0], info


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
