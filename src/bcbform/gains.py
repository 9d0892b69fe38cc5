"""Gain design: structured SDP solved by ADMM, plus spectrum verification.

The design problem maximizes the smallest eigenvalue of -Q^T A Q over gain
matrices A that are symmetric, block-Laplacian, sparse on the sensing graph,
annihilate the kernel basis, and have fixed trace.  ADMM splits it into a
PSD projection and a least-squares step on the null space of the equality
constraints.  Its dual iterate gives an upper bound on the optimum, so every
design reports its duality gap.

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
iterates at half the matrix side.  They are vectors of packed real
coordinates (``_HermitianPacking``), written svec.  On x = x0 + N y, N an
orthonormal basis of null(G) of dimension p, the design's linear map has
one form: the dense m r^2 x (p + 1) matrix U = [svec B(N e_i) | svec I],
r = n - 2, plus the offset f0 = svec B(x0).  U is formed once with the
inverse of its (p + 1) x (p + 1) Gram matrix, and the iteration, the
achieved gamma and the certificate all read it: the memory of a design is
those m r^2 (p + 1) + (p + 1)^2 floats.
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
# Packed coordinates per block of rows while ADMM's linear map U is formed.
CHUNK_ROWS = 64


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


class _HermitianPacking:
    """Packed real coordinates of (m, r, r) Hermitian stacks, as in SCS: per
    matrix its diagonal, then sqrt(2) Re and sqrt(2) Im of its strict lower
    triangle, r^2 numbers, so that 2 pack(W) . pack(M) = 2 Re tr(W^H M)."""

    def __init__(self, r: int):
        d, (i, j) = np.arange(r), np.tril_indices(r, -1)
        # Entry (row, col) of each coordinate, and whether it is an imaginary part.
        self.rows, self.cols = np.concatenate([d, i, i]), np.concatenate([d, j, j])
        self.imag = np.repeat([False, False, True], [r, i.size, i.size])
        self.scale = np.where(self.rows == self.cols, 1.0, np.sqrt(2.0))
        # Positions in the float64 view of a C-ordered complex r x r matrix.
        self.index = 2 * (r * self.rows + self.cols) + self.imag

    def pack(self, M: NDArray[np.complex128]) -> NDArray[np.float64]:
        """(m, r, r) stack -> vector of m r^2; only the lower triangle and the
        real diagonal are read."""
        flat = M.view(np.float64).reshape(len(M), -1)
        return (flat[:, self.index] * self.scale).ravel()

    def unpack_lower(self, v: NDArray[np.float64], out: NDArray[np.complex128]):
        """Write the lower triangle and diagonal of vector ``v`` into the
        (m, r, r) stack ``out``, leaving its strict upper triangle; returns out."""
        out.view(np.float64).reshape(len(out), -1)[:, self.index] = (
            v.reshape(len(out), -1) / self.scale)
        return out


class _EdgeOperator:
    """The packed linear map x -> svec B(x), B(x) the stack of
    Q_c^H H^k(x) Q_c over the topologies k of a pool, from the edge list.

    A block a I + b K acts on (x, y) as a - ib acts on x + iy, so A^k(x) is
    the realification of the n x n complex matrix H^k(x) with entry a - ib
    wherever A^k(x) has block a I + b K.  Q^T A^k(x) Q is then, up to an
    orthogonal change of basis, the realification of Q_c^H H^k(x) Q_c: the
    same spectrum, each eigenvalue doubled, at half the side.  With the
    1 x r rows Q_c[i] and, per edge (i, j), D = Q_c[j] - Q_c[i] and
    S = Q_c[i] + Q_c[j], the a-variable of the edge contributes -a D^H D and
    its b-variable -ib S^H D.  Every variable u is thus c_u L_u^H R_u with
    1 x r factors, from which ``packed`` forms the matrix of the map on a
    basis in the coordinates of ``pack``: nothing of size r^2 x dim.
    Inner products are <W, M> = 2 Re tr(W^H M) = 2 svec W . svec M, so on a
    basis P the adjoint is W -> 2 ``packed(P)``^T svec W.
    """

    def __init__(self, pool: _VariablePool, Qc: NDArray[np.complex128]):
        self.m, self.r, self.dim = len(pool.graphs), Qc.shape[1], pool.dim
        self.pack = _HermitianPacking(self.r)
        self.parts = []  # (conj L, R, index, coef) of each topology's variables
        for k, g in enumerate(pool.graphs):
            i, j = g.edge_index()
            D = Qc[j] - Qc[i]
            self.parts.append((
                np.concatenate([D, Qc[i] + Qc[j]]).conj(),
                np.concatenate([D, D]),
                np.concatenate([2 * pool.classes[k], 2 * pool.classes[k] + 1]),
                np.repeat([-1.0, -1j], len(D)),
            ))

    def packed(self, basis: NDArray[np.float64]) -> NDArray[np.float64]:
        """(m r^2, c) matrix of y -> svec B(basis @ y) for a dim x c
        ``basis``.  Entry (s, t) of Q_c^H H^k(x) Q_c is sum_u c_u x_u
        conj(L_us) R_ut, so each packed coordinate is a real row over the
        variables; rows are formed CHUNK_ROWS at a time."""
        pack = self.pack
        size = pack.index.size
        out = np.empty((self.m, size, basis.shape[1]))
        for k, (Lc, R, idx, coef) in enumerate(self.parts):
            for lo in range(0, size, CHUNK_ROWS):
                q = slice(lo, lo + CHUNK_ROWS)
                vals = Lc[:, pack.rows[q]]
                vals *= R[:, pack.cols[q]]
                vals *= coef[:, None]
                rows = np.zeros((vals.shape[1], self.dim))  # idx is distinct per topology
                rows[:, idx] = np.where(pack.imag[q], vals.imag, vals.real).T
                rows *= pack.scale[q, None]
                out[k, q] = rows @ basis
        return out.reshape(self.m * size, basis.shape[1])


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
    """Least-norm solution x0 of G x = h and an orthonormal basis N of
    null(G), from one SVD; singular values <= 1e-10 of the largest are 0."""
    U, S, Vt = np.linalg.svd(G)
    rank = int(np.sum(S > 1e-10 * (S[0] if S.size else 1.0)))
    x0 = Vt[:rank].T @ ((U[:, :rank].T @ h) / S[:rank])
    if np.linalg.norm(G @ x0 - h) > 1e-8 * (1.0 + np.linalg.norm(h)):
        raise InfeasibleTopologyError(
            "gain constraints admit no solution for this graph/formation pair; "
            "the sensing graph is likely not universally rigid"
        )
    return x0, Vt[rank:].T


@dataclass
class SolveInfo:
    """Metadata from one solver run, persisted alongside the gains.

    ``algorithm`` is ``"admm"``, or ``"closed_form"`` for a flat optimum,
    which takes 0 iterations and has gamma = ``upper_bound`` = |tau|/(2n-4).
    For ADMM, W is the PSD part of the final multiplier at unit total trace,
    and ``upper_bound`` = -<B^T W, x> bounds the optimal gamma from above
    once ``bound_residual`` = ||N^T B^T W||, the norm of the part of B^T W
    outside range(G^T), is zero.  ``_admm_solve`` reads both off U."""

    algorithm: str
    iterations: int
    gamma: float
    primal_residual: float
    dual_residual: float
    converged: bool
    upper_bound: float
    bound_residual: float


def _psd_project(M: NDArray[np.complexfloating]) -> NDArray[np.complex128]:
    """Project each Hermitian matrix of a stack, of which ``eigh`` reads the
    lower triangle, onto the PSD cone."""
    w, V = np.linalg.eigh(M)
    w = np.maximum(w, 0.0)
    return (V * w[..., None, :]) @ V.conj().swapaxes(-1, -2)


def _null_space_map(op: _EdgeOperator, x0, null_basis):
    """(U, f0, a, S), formed once: B(x0 + N y) + gamma I packs to f0 + U w for
    w = (y, gamma), f0 = svec B(x0) and U = [svec B(N e_i) | svec I], and
    w = a - S U^T c minimizes -gamma + ||f0 + U w + c||^2 for a packed stack
    c (half the realified norm): S = 2 M^-1 and a = M^-1 (e_gamma - 2 U^T f0)
    for M = 2 U^T U.  Memory: m r^2 (p + 1) floats for U and (p + 1)^2 for S."""
    p, pack = null_basis.shape[1], op.pack
    U = op.packed(np.column_stack([null_basis, x0]))  # column p is f0 until svec I
    f0 = U[:, p].copy()
    U[:, p] = np.tile(pack.rows == pack.cols, op.m)  # svec I: 1 on each diagonal entry
    M = 2.0 * (U.T @ U)
    # Tiny ridge guards rank deficiency in degenerate variable pools.
    M[np.diag_indices(p + 1)] += 1e-12 * max(1.0, np.trace(M) / (p + 1))
    S = 2.0 * np.linalg.inv(M)
    return U, f0, 0.5 * S[:, p] - S @ (U.T @ f0), S


def _admm_solve(op: _EdgeOperator, x0, null_basis):
    """ADMM on: max gamma s.t. Abar^k(x) + gamma I <= 0, G x = h.

    x0 solves G x = h, and ``null_basis`` N is an orthonormal basis of
    null(G).  The iterates are the (m, r, r) Hermitian stacks of ``op`` in
    packed coordinates, whose dot product is half that of the 2r x 2r
    realifications, so the iteration is the one on Q^T A^k(x) Q.  Each
    (x, gamma)-update minimizes -gamma + 1/2 ||B x + gamma I + Z + Y||^2
    (penalty 1, realified norm) subject to G x = h: the map of
    ``_null_space_map``.

    The certificate is read off the same map.  For W >= 0 with unit total
    trace and B^T W in range(G^T), every feasible (x, gamma) has
    gamma <= -<B^T W, x>, which is constant on x0 + null(G).  With U_p the
    first p columns of U, N^T B^T W = 2 U_p^T svec W, so
    ``bound_residual`` = ||2 U_p^T svec W|| and, for x = x0 + N y,
    ``upper_bound`` = -(2 svec(W) . f0 + (2 U_p^T svec W) . y)."""
    m_top, r, pack = op.m, op.r, op.pack
    U, f0, a, S = _null_space_map(op, x0, null_basis)
    z, y = np.zeros(len(f0)), np.zeros(len(f0))
    lower = np.zeros((m_top, r, r), dtype=complex)  # its strict upper triangle stays 0
    scale = np.sqrt(m_top) * 2 * r  # 2r: the side of the realified matrices
    for it in range(1, MAX_ITERATIONS + 1):
        # (x, gamma)-update: least squares on null(G).
        w = a - S @ (U.T @ (z + y))
        shifted = f0 + U @ w
        # Z-update: spectral projection onto the PSD cone.
        z_new = pack.pack(_psd_project(pack.unpack_lower(-shifted - y, lower)))
        step = z_new - z
        z = z_new
        res = z + shifted
        y += res
        primal = np.sqrt(2.0 * (res @ res)) / scale
        dual = np.sqrt(2.0 * (step @ step)) / scale
        if primal < PRIMAL_TOL and dual < DUAL_TOL:
            break
    W = _psd_project(pack.unpack_lower(y, np.zeros_like(lower)))
    W /= 2.0 * np.trace(W, axis1=1, axis2=2).real.sum()
    svec_W = pack.pack(W)
    Nt_Bt_W = 2.0 * (U[:, :-1].T @ svec_W)
    return x0 + null_basis @ w[:-1], SolveInfo(
        algorithm="admm",
        iterations=it,
        gamma=float(w[-1]),
        primal_residual=float(primal),
        dual_residual=float(dual),
        converged=bool(primal < PRIMAL_TOL and dual < DUAL_TOL),
        upper_bound=-float(2.0 * (svec_W @ f0) + Nt_Bt_W @ w[:-1]),
        bound_residual=float(np.linalg.norm(Nt_Bt_W)),
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
    op = _EdgeOperator(pool, basis.Qc)
    x, info = _admm_solve(op, *_independent_constraints(G, h))

    # Exact achieved objective, independent of the solver's running estimate:
    # eigvalsh reads the lower triangles that svec B(x) unpacks to.
    Bx = op.pack.unpack_lower(op.packed(x[:, None])[:, 0],
                              np.zeros((op.m, op.r, op.r), dtype=complex))
    gamma = float(np.linalg.eigvalsh(-Bx)[:, 0].min())
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
