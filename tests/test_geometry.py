"""Formation geometry, sensing graphs, and kernel basis construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcbform.errors import (
    DegenerateFormationError,
    DimensionError,
    TooFewAgentsError,
)
from bcbform.geometry import (
    FormationSpec,
    SensingGraph,
    build_kernel_basis,
    formation_error,
    lyapunov_value,
    min_pairwise_distance,
    rotate90,
    translation_vectors,
    validate_graph,
)

HEX_POINTS = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]


def gram_schmidt_kernel_oracle(q_star):
    """Independent orthonormal basis of span{q*, rot90(q*), 1x, 1y}.

    Classical Gram-Schmidt on the raw spanning vectors; used to cross-check
    the SVD-based construction.
    """
    q_star = np.asarray(q_star, dtype=np.float64)
    n2 = q_star.size
    ones_x = np.zeros(n2)
    ones_x[0::2] = 1.0
    ones_y = np.zeros(n2)
    ones_y[1::2] = 1.0
    vecs = [q_star, rotate90(q_star), ones_x, ones_y]
    basis = []
    for v in vecs:
        w = v.copy()
        for b in basis:
            w = w - (b @ w) * b
        basis.append(w / np.linalg.norm(w))
    return np.column_stack(basis)


class TestRotate90:
    def test_blockwise_quarter_turn(self):
        assert np.array_equal(rotate90(np.array([1.0, 0.0])), [0.0, 1.0])
        assert np.array_equal(rotate90(np.array([0.0, 1.0])), [-1.0, 0.0])

    def test_double_application_negates(self):
        v = np.array([1.0, 2.0, -3.0, 0.5])
        assert np.allclose(rotate90(rotate90(v)), -v)

    def test_odd_length_rejected(self):
        with pytest.raises(DimensionError):
            rotate90(np.array([1.0, 2.0, 3.0]))

    @settings(max_examples=200)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=20).filter(
        lambda v: len(v) % 2 == 0))
    def test_isometry(self, vals):
        v = np.array(vals)
        assert np.linalg.norm(rotate90(v)) == pytest.approx(np.linalg.norm(v))


class TestSensingGraph:
    def test_edges_normalized_and_deduplicated(self):
        g = SensingGraph(4, [(2, 1), (1, 2), (3, 4)])
        assert g.edges == frozenset({(1, 2), (3, 4)})

    def test_self_loop_rejected(self):
        with pytest.raises(DimensionError):
            SensingGraph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(DimensionError):
            SensingGraph(3, [(1, 4)])

    def test_neighbors(self):
        g = SensingGraph(4, [(1, 2), (2, 3), (2, 4)])
        assert g.neighbors(2) == {1, 3, 4}
        assert g.neighbors(4) == {2}

    def test_edge_arrays_built_once_and_read_only(self):
        g = SensingGraph(4, [(3, 1), (1, 2), (2, 4)])
        first, second = g.directed_edges(), g.directed_edges()
        assert all(a is b for a, b in zip(first, second))
        for a in first:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0
        src, dst, edge = first
        assert src.tolist() == [0, 0, 1, 1, 2, 3]
        assert dst.tolist() == [1, 2, 0, 3, 0, 1]
        assert [g.edge_list[e] for e in edge] == [(1, 2), (1, 3), (1, 2), (2, 4), (1, 3), (2, 4)]

    def test_connectivity(self):
        assert SensingGraph(3, [(1, 2), (2, 3)]).is_connected()
        assert not SensingGraph(4, [(1, 2), (3, 4)]).is_connected()

    def test_validate_too_few_agents(self):
        with pytest.raises(TooFewAgentsError):
            validate_graph(SensingGraph(2, [(1, 2)]))

    def test_validate_reports_degrees(self):
        g = SensingGraph(3, [(1, 2), (2, 3), (1, 3)])
        report = validate_graph(g)
        assert report.connected
        assert report.degree_sequence == (2, 2, 2)


class TestFormationSpec:
    def test_centering_removes_mean(self):
        spec = FormationSpec.from_coordinates([(1, 1), (3, 1), (2, 4)])
        pts = spec.points()
        assert np.allclose(pts.mean(axis=0), 0.0)

    def test_q_bar_is_rotated_q(self):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        assert np.array_equal(spec.q_bar_star, rotate90(spec.q_star))

    def test_odd_coordinate_count_rejected(self):
        with pytest.raises(DimensionError):
            FormationSpec.from_coordinates(np.arange(5.0))


class TestKernelBasis:
    def test_matches_gram_schmidt_oracle_on_hexagon(self):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        basis = build_kernel_basis(spec)
        oracle = gram_schmidt_kernel_oracle(spec.q_star)
        # Same subspace: projectors agree even if individual vectors differ.
        p_ours = basis.N_hat @ basis.N_hat.T
        p_oracle = oracle @ oracle.T
        assert np.linalg.norm(p_ours - p_oracle, 2) < 1e-12

    def test_complement_is_orthogonal(self):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        basis = build_kernel_basis(spec)
        assert basis.Q.shape == (12, 8)
        assert np.allclose(basis.Q.T @ basis.N_hat, 0.0, atol=1e-12)
        assert np.allclose(basis.Q.T @ basis.Q, np.eye(8), atol=1e-12)

    def test_coincident_formation_rejected(self):
        spec = FormationSpec.from_coordinates([(1, 1)] * 4, center=False)
        with pytest.raises(DegenerateFormationError):
            build_kernel_basis(spec)

    def test_translation_vectors_in_kernel_span(self):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        basis = build_kernel_basis(spec)
        tx, ty = translation_vectors(spec.n)
        for t in (tx, ty):
            proj = basis.N_hat @ (basis.N_hat.T @ t)
            assert np.allclose(proj, t, atol=1e-12)


class TestMetrics:
    def test_formation_error_zero_on_kernel_elements(self):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        basis = build_kernel_basis(spec)
        # A rotated, scaled, translated copy of the target lies in the kernel.
        c, s = math.cos(0.7), math.sin(0.7)
        R = np.array([[c, -s], [s, c]])
        q = (2.5 * spec.points() @ R.T + np.array([3.0, -1.0])).reshape(-1)
        assert formation_error(q, basis) < 1e-12

    def test_formation_error_positive_off_subspace(self):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        basis = build_kernel_basis(spec)
        rng = np.random.default_rng(1)
        q = rng.normal(size=12)
        assert formation_error(q, basis) > 1e-3

    def test_formation_error_zero_vector_rejected(self):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        basis = build_kernel_basis(spec)
        with pytest.raises(DimensionError):
            formation_error(np.zeros(12), basis)

    def test_lyapunov_value_nonnegative_for_designed_gains(self):
        # V = -q^T A q / 2 with A negative semidefinite.
        A = -np.eye(4)
        q = np.array([1.0, 2.0, 3.0, 4.0])
        assert lyapunov_value(q, A) == pytest.approx(0.5 * q @ q)

    def test_min_pairwise_distance(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
        assert min_pairwise_distance(pts) == pytest.approx(1.0)
