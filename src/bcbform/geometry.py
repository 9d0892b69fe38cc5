"""Formation geometry: sensing graphs, desired coordinates, and the kernel basis.

The closed loop converges onto the 4-dimensional subspace spanned by the
desired coordinates, their 90-degree rotation, and the two translation
vectors.  Everything downstream (gain design, simulation metrics) is phrased
in terms of that subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DegenerateFormationError,
    DimensionError,
    TooFewAgentsError,
)

# Singular values below RANK_TOL * sigma_max are treated as zero.
RANK_TOL = 1e-8


def rotate90(q: NDArray[np.floating]) -> NDArray[np.floating]:
    """Rotate each planar (x, y) block of a stacked vector by +90 degrees.

    Maps (x, y) -> (-y, x) blockwise.  An isometry; applying it twice
    negates the input.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1 or q.size % 2 != 0:
        raise DimensionError(f"expected even-length 1-D vector, got shape {q.shape}")
    out = np.empty_like(q)
    out[0::2] = -q[1::2]
    out[1::2] = q[0::2]
    return out


def translation_vectors(n: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Unit-pattern translation vectors [1,0,1,0,...] and [0,1,0,1,...]."""
    ones = np.zeros(2 * n)
    ones[0::2] = 1.0
    return ones, rotate90(ones)


@dataclass(frozen=True)
class SensingGraph:
    """Undirected sensing topology over ``n`` agents.

    Edges are stored as a frozenset of sorted 1-based index pairs, so the
    graph is symmetric and duplicate-free by construction.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges):
        if n < 1:
            raise DimensionError("agent count must be positive")
        normalized = set()
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise DimensionError(f"self-loop ({i},{j}) not allowed")
            if not (1 <= i <= n and 1 <= j <= n):
                raise DimensionError(f"edge ({i},{j}) out of range 1..{n}")
            normalized.add((min(i, j), max(i, j)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(normalized))

    @property
    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def neighbors(self, i: int) -> frozenset[int]:
        return frozenset(
            b if a == i else a for a, b in self.edges if i in (a, b)
        )

    def degree_sequence(self) -> list[int]:
        return [len(self.neighbors(i)) for i in range(1, self.n + 1)]

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        seen = {1}
        stack = [1]
        while stack:
            i = stack.pop()
            for j in self.neighbors(i):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == self.n


@dataclass(frozen=True)
class GraphReport:
    """Sanity-check summary of a sensing graph (rigidity is not certified)."""

    n: int
    edge_count: int
    connected: bool
    degree_sequence: tuple[int, ...]


def validate_graph(g: SensingGraph) -> GraphReport:
    """Report connectivity, degrees, and edge count of a sensing graph.

    This is a sanity check only; whether a stabilizing gain matrix exists
    for a given formation is decided by the solver, not by a graph test.
    """
    if g.n < 3:
        raise TooFewAgentsError(f"need at least 3 agents, got {g.n}")
    return GraphReport(
        n=g.n,
        edge_count=len(g.edges),
        connected=g.is_connected(),
        degree_sequence=tuple(g.degree_sequence()),
    )


@dataclass(frozen=True)
class FormationSpec:
    """Desired planar coordinates and their 90-degree rotated copy."""

    q_star: NDArray[np.float64]
    q_bar_star: NDArray[np.float64] = field(repr=False)
    centered: bool = True

    @classmethod
    def from_coordinates(cls, coords, center: bool = True) -> "FormationSpec":
        """Build from an (n, 2) array or flat 2n-vector of desired positions."""
        q = np.asarray(coords, dtype=np.float64).reshape(-1)
        if q.size % 2 != 0:
            raise DimensionError("coordinate vector must have even length")
        if center:
            q = q.copy()
            q[0::2] -= q[0::2].mean()
            q[1::2] -= q[1::2].mean()
        return cls(q_star=q, q_bar_star=rotate90(q), centered=center)

    @property
    def n(self) -> int:
        return self.q_star.size // 2

    def points(self) -> NDArray[np.float64]:
        return self.q_star.reshape(-1, 2)


@dataclass(frozen=True)
class KernelBasis:
    """Basis of the invariant subspace and its orthonormal complement.

    ``N`` stacks [q*, rot90(q*), ones, rot90(ones)].  ``N_hat`` is an
    orthonormal basis of range(N); ``Q`` spans the orthogonal complement
    and carries the nonzero spectrum of any valid gain matrix.
    """

    N: NDArray[np.float64]
    N_hat: NDArray[np.float64]
    Q: NDArray[np.float64]

    @property
    def n(self) -> int:
        return self.N.shape[0] // 2


def build_kernel_basis(spec: FormationSpec) -> KernelBasis:
    """Construct the 4-column kernel matrix and complete it to an orthonormal frame.

    Uses a full SVD of N; raises if the desired formation is degenerate
    (rank below 4, e.g. all agents coincide).
    """
    n = spec.n
    if n < 3:
        raise TooFewAgentsError(f"need at least 3 agents, got {n}")
    ones, ones_bar = translation_vectors(n)
    N = np.column_stack([spec.q_star, spec.q_bar_star, ones, ones_bar])
    U, S, _ = np.linalg.svd(N, full_matrices=True)
    rank = int(np.sum(S > RANK_TOL * S[0]))
    if rank < 4:
        raise DegenerateFormationError(
            f"kernel matrix has rank {rank} < 4; desired formation is degenerate"
        )
    return KernelBasis(N=N, N_hat=U[:, :4], Q=U[:, 4:])


def row_dot(a, b) -> NDArray[np.float64]:
    """Dot products along the last axis, rounded like ``a_row @ b_row``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def row_norms(v) -> NDArray[np.float64]:
    """Euclidean norms along the last axis, rounded like ``np.linalg.norm(row)``."""
    return np.sqrt(row_dot(v, v))


def formation_error(q: NDArray[np.floating], basis: KernelBasis):
    """Relative distance of ``q`` from the invariant subspace, in [0, 1].

    Zero exactly when the configuration is a translated/rotated/scaled copy
    of the desired formation (including the all-coincident case).  ``q`` is
    one stacked 2n-vector or an array of them along the last axis.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape[-1:] != (basis.N.shape[0],):
        raise DimensionError(
            f"state shape {q.shape} does not match basis dimension {basis.N.shape[0]}"
        )
    norm = row_norms(q)
    if np.any(norm == 0.0):
        raise DimensionError("formation error undefined for the zero vector")
    projection = np.matmul(basis.N_hat, np.matmul(basis.N_hat.T, q[..., None]))[..., 0]
    residual = np.subtract(q, projection, out=projection)
    return np.minimum(row_norms(residual) / norm, 1.0)[()]


def lyapunov_value(q: NDArray[np.floating], A: NDArray[np.floating]):
    """V = -1/2 q^T A q, nonnegative for a verified (negative-semidefinite) gain.

    ``q`` is one stacked 2n-vector or an array of them along the last axis.
    """
    q = np.asarray(q, dtype=np.float64)
    return row_dot(-0.5 * q, np.matmul(A, q[..., None])[..., 0])[()]


def min_pairwise_distance(points: NDArray[np.floating]):
    """Smallest inter-agent distance of (n, 2) positions, or of each (n, 2)
    configuration in a stack; reduced one agent at a time to bound memory."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 2)
    best = np.full(pts.shape[:-2], np.inf)
    for i in range(pts.shape[-2] - 1):
        dx = pts[..., i + 1 :, 0] - pts[..., i : i + 1, 0]
        dy = pts[..., i + 1 :, 1] - pts[..., i : i + 1, 1]
        dx *= dx
        dy *= dy
        dx += dy
        best = np.minimum(best, np.min(dx, axis=-1))
    return np.sqrt(best)[()]
