"""Gain design solver, spectrum verification, and chain-gain root checks."""

import math

import numpy as np
import pytest

from bcbform.errors import (
    DimensionError,
    InfeasibleTopologyError,
)
from bcbform.gains import (
    GainMatrix,
    SolverOptions,
    chain_characteristic,
    chain_closed_loop_matrix,
    design_gains,
    design_joint_gains,
    reduced_matrix,
    verify_gains,
    verify_higher_order_gains,
)
from bcbform.geometry import FormationSpec, SensingGraph, build_kernel_basis

HEX_POINTS = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]


def complete_graph(n):
    return SensingGraph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def projector_gain_oracle(spec):
    """Independent optimum for complete graphs: -(I - N_hat N_hat^T).

    Built directly from an orthonormalized kernel basis via numpy QR, with no
    use of the solver machinery.
    """
    q = spec.q_star
    n2 = q.size
    qbar = np.empty_like(q)
    qbar[0::2] = -q[1::2]
    qbar[1::2] = q[0::2]
    ones_x = np.zeros(n2)
    ones_x[0::2] = 1.0
    ones_y = np.zeros(n2)
    ones_y[1::2] = 1.0
    raw = np.column_stack([q, qbar, ones_x, ones_y])
    Qo, _ = np.linalg.qr(raw)
    return -(np.eye(n2) - Qo @ Qo.T)


class TestStructure:
    def test_translations_in_kernel_for_any_edge_params(self):
        g = SensingGraph(3, [(1, 2), (2, 3), (1, 3)])
        gm = GainMatrix.from_edge_params(
            g, {(1, 2): (1.0, 0.5), (2, 3): (2.0, -0.25), (1, 3): (0.5, 0.0)}
        )
        # Block rows sum to zero: translations are in the kernel.
        for shift in (0, 1):
            ones = np.zeros(6)
            ones[shift::2] = 1.0
            assert np.allclose(gm.assembled @ ones, 0.0, atol=1e-14)

    def test_designed_matrix_is_symmetric(self):
        spec = FormationSpec.from_coordinates([(0, 0), (2, 0), (1, 2)])
        gm, _ = design_gains(complete_graph(3), spec)
        A = gm.assembled
        assert np.max(np.abs(A - A.T)) < 1e-12

    def test_block_row_contains_neighbor_blocks(self):
        g = SensingGraph(3, [(1, 2), (1, 3)])
        gm = GainMatrix.from_edge_params(g, {(1, 2): (2.0, -1.0), (1, 3): (-1.0, 3.0)})
        blocks = gm.block_row(1)
        assert set(blocks) == {2, 3}
        assert np.array_equal(blocks[2], [[2.0, -1.0], [1.0, 2.0]])
        assert np.array_equal(blocks[3], [[-1.0, 3.0], [-3.0, -1.0]])


class TestDesign:
    def test_triangle_complete_matches_projector_oracle(self):
        spec = FormationSpec.from_coordinates([(0, 0), (2, 0), (1, 2)])
        gm, info = design_gains(complete_graph(3), spec)
        oracle = projector_gain_oracle(spec)
        scale = np.trace(oracle) / np.trace(gm.assembled)
        assert np.linalg.norm(gm.assembled * scale - oracle, 2) < 1e-6
        assert info.converged

    @pytest.mark.parametrize("n", range(3, 9))
    def test_complete_graphs_match_projector_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        spec = FormationSpec.from_coordinates(rng.uniform(-5, 5, size=(n, 2)))
        gm, _ = design_gains(complete_graph(n), spec)
        oracle = projector_gain_oracle(spec)
        scale = np.trace(oracle) / np.trace(gm.assembled)
        assert np.linalg.norm(gm.assembled * scale - oracle, 2) < 1e-4

    def test_hexagon_cycle_satisfies_spectrum_contract(self):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        g = SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)])
        gm, _ = design_gains(g, spec)
        report = verify_gains(gm, build_kernel_basis(spec))
        assert report.passed
        assert report.zero_count == 4
        assert report.kernel_residual <= 1e-7

    def test_trace_budget_respected(self):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        g = SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)])
        gm, _ = design_gains(g, spec, SolverOptions(trace_budget=-3.0))
        assert np.trace(gm.assembled) == pytest.approx(-3.0, abs=1e-6)

    def test_path_graph_infeasible(self):
        spec = FormationSpec.from_coordinates([(0, 0), (1, 0), (1, 1)])
        g = SensingGraph(3, [(1, 2), (2, 3)])
        with pytest.raises(InfeasibleTopologyError):
            design_gains(g, spec)

    def test_disconnected_graph_refused_before_constraints(self, monkeypatch):
        import bcbform.gains as gains_mod

        def no_constraints(*args):
            raise AssertionError("constraints built for a disconnected graph")

        monkeypatch.setattr(gains_mod, "_constraints", no_constraints)
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        two_triangles = SensingGraph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        with pytest.raises(InfeasibleTopologyError, match="disconnected"):
            design_gains(two_triangles, spec)
        with pytest.raises(InfeasibleTopologyError, match="disconnected"):
            design_joint_gains([complete_graph(6), two_triangles], spec)

    def test_subgradient_fallback_agrees_with_admm(self):
        spec = FormationSpec.from_coordinates([(0, 0), (2, 0), (1, 2)])
        opts = SolverOptions(algorithm="projected_subgradient")
        gm, info = design_gains(complete_graph(3), spec, opts)
        report = verify_gains(gm, build_kernel_basis(spec))
        assert report.passed
        oracle = projector_gain_oracle(spec)
        scale = np.trace(oracle) / np.trace(gm.assembled)
        assert np.linalg.norm(gm.assembled * scale - oracle, 2) < 1e-3

    def test_gain_kernel_contains_formation(self):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        g = SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)])
        gm, _ = design_gains(g, spec)
        assert np.linalg.norm(gm.assembled @ spec.q_star) < 1e-7
        assert np.linalg.norm(gm.assembled @ spec.q_bar_star) < 1e-7


class TestJointDesign:
    def setup_method(self):
        self.spec = FormationSpec.from_coordinates(
            [(c, -r) for r in range(3) for c in range(3)]
        )
        grid = [(1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9),
                (1, 4), (4, 7), (2, 5), (5, 8), (3, 6), (6, 9)]
        self.topos = [
            SensingGraph(9, grid + [(1, 5), (2, 6), (4, 8), (5, 9)]),
            SensingGraph(9, grid + [(2, 4), (3, 5), (5, 7), (6, 8)]),
        ]

    def test_all_topologies_verified(self):
        mats, info = design_joint_gains(self.topos, self.spec)
        basis = build_kernel_basis(self.spec)
        assert info.converged
        for gm in mats:
            assert verify_gains(gm, basis).passed

    def test_tie_rule_shares_identical_neighbor_sets(self):
        mats, _ = design_joint_gains(self.topos, self.spec)
        shared = set(self.topos[0].edges) & set(self.topos[1].edges)
        tied0 = {i for i in range(1, 10)
                 if self.topos[0].neighbors(i) == self.topos[1].neighbors(i)}
        for (i, j) in shared:
            if i in tied0 and j in tied0:
                assert mats[0].blocks[(i, j)] == mats[1].blocks[(i, j)]


class TestReducedMatrix:
    def test_carries_nonzero_spectrum(self):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        basis = build_kernel_basis(spec)
        gm, _ = design_gains(SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)]),
                             spec)
        red = reduced_matrix(gm.assembled, basis)
        full = np.sort(np.linalg.eigvalsh(gm.assembled))
        sub = np.sort(np.linalg.eigvalsh(red))
        assert np.allclose(sub, full[:8], atol=1e-9)

    def test_dimension_mismatch_rejected(self):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        basis = build_kernel_basis(spec)
        with pytest.raises(DimensionError):
            reduced_matrix(np.eye(10), basis)


class TestVerify:
    def test_corrupted_gain_fails(self):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        g = SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)])
        gm, _ = design_gains(g, spec)
        params = {(i, j): gm.blocks[(i, j)] for (i, j) in g.edge_list}
        i, j = g.edge_list[0]
        a, b = params[(i, j)]
        params[(i, j)] = (a + 0.5, b)
        corrupted = GainMatrix.from_edge_params(g, params)
        report = verify_gains(corrupted, build_kernel_basis(spec))
        assert not report.passed


class TestChainCharacteristic:
    def test_first_order_matches_quadratic_formula(self):
        # m=1, identity variant: lambda^2 + k1 lambda - k0 mu = 0.
        k = [2.0, 3.0]
        mu = -0.4
        coeffs = chain_characteristic(mu, k, "identity_derivatives")
        roots = np.sort_complex(np.roots(coeffs))
        disc = k[1] ** 2 + 4.0 * k[0] * mu
        expected = np.sort_complex(np.array(
            [(-k[1] - np.emath.sqrt(disc)) / 2.0, (-k[1] + np.emath.sqrt(disc)) / 2.0]
        ))
        assert np.allclose(roots, expected, atol=1e-12)

    def test_full_variant_couples_all_orders(self):
        # m=1, full coupling: lambda^2 - k1 mu lambda - k0 mu = 0.
        k = [2.0, 3.0]
        mu = -0.4
        coeffs = chain_characteristic(mu, k, "full_A")
        assert np.allclose(coeffs, [1.0, -k[1] * mu, -k[0] * mu])

    def test_quadrotor_gains_stable_on_reference_spectrum(self):
        report = verify_higher_order_gains(
            [-0.035, -0.497], [2.0, 2.0, 3.0, 3.0], "identity_derivatives"
        )
        assert report.passed
        assert all(m < 0 for m in report.max_real_parts)

    def test_unstable_gains_detected(self):
        report = verify_higher_order_gains([-0.5], [1.0, -1.0], "identity_derivatives")
        assert not report.passed
        mu, worst = report.worst
        assert worst > 0
        assert mu == -0.5

    def test_roots_match_block_companion_spectrum(self):
        spec = FormationSpec.from_coordinates([(0, 0), (2, 0), (1, 2)])
        gm, _ = design_gains(complete_graph(3), spec)
        k = [2.0, 2.0, 3.0, 3.0]
        for variant in ("identity_derivatives", "full_A"):
            M = chain_closed_loop_matrix(gm.assembled, k, variant)
            eig_M = np.linalg.eigvals(M)
            # Every root of the per-eigenvalue factor appears in the big matrix.
            mus = np.linalg.eigvalsh(gm.assembled)
            for mu in mus:
                if mu > -1e-8:
                    continue  # numerical-kernel factors are ill-conditioned
                for root in np.roots(chain_characteristic(mu, k, variant)):
                    assert np.min(np.abs(eig_M - root)) < 1e-6
