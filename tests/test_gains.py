"""Gain design solver, spectrum verification, and chain-gain root checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_laws import (admm_dense, assemble, chain_closed_loop_matrix, constraint_rows,
                            kkt_x_update, reduced_matrix)

import bcbform.gains as gains_mod
from bcbform.cli import EXIT_INFEASIBLE, demo_scenario, main

from bcbform.errors import (
    DimensionError,
    InfeasibleTopologyError,
    JointInfeasibilityError,
    SolverFailureError,
)
from bcbform.gains import (
    GainMatrix,
    SolverOptions,
    chain_characteristic,
    design_gains,
    design_joint_gains,
    verify_gains,
    verify_higher_order_gains,
)
from bcbform.geometry import FormationSpec, SensingGraph, build_kernel_basis
from bcbform.io import save_scenario
from bcbform.sim import Scenario

HEX_POINTS = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]


def complete_graph(n):
    return SensingGraph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def edge_params(gm, edge):
    """(a, b) of ``edge`` (i < j) in ``gm``."""
    return tuple(gm.params[gm.graph.edge_list.index(edge)])


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
        params = {(1, 2): (1.0, 0.5), (2, 3): (2.0, -0.25), (1, 3): (0.5, 0.0)}
        gm = GainMatrix(g, [params[e] for e in g.edge_list])
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
        gm = GainMatrix(g, [(2.0, -1.0), (-1.0, 3.0)])
        src, dst, _ = g.directed_edges()
        blocks = gm.directed_blocks()[src == 0]
        assert dst[src == 0].tolist() == [1, 2]
        assert np.array_equal(blocks[0], [[2.0, -1.0], [1.0, 2.0]])
        assert np.array_equal(blocks[1], [[-1.0, 3.0], [-3.0, -1.0]])
        # Block row 1 of the assembled matrix holds them, and agent 2 weighs
        # agent 1 through the transpose.
        assert np.array_equal(gm.assembled[0:2, 2:6], np.hstack([blocks[0], blocks[1]]))
        assert np.array_equal(gm.assembled[2:4, 0:2], blocks[0].T)

    def test_params_are_one_row_per_edge(self):
        g = SensingGraph(3, [(1, 2), (1, 3)])
        with pytest.raises(DimensionError, match="one \\(a, b\\) row per edge"):
            GainMatrix(g, [(2.0, -1.0)])
        gm = GainMatrix(g, [(2.0, -1.0), (-1.0, 3.0)])
        with pytest.raises(ValueError):
            gm.params[0, 0] = 5.0


class TestArrayForm:
    """The assembly and the constraint rows are bitwise the edge-by-edge loops
    of reference_laws, on the demos' topologies and on complete50."""

    def test_assembly_matches_edge_loop(self, array_form_case):
        _, _, mats = array_form_case
        for gm in mats:
            assert gm.assembled.tobytes() == assemble(gm).tobytes()

    def test_constraints_match_entry_loop(self, array_form_case):
        graphs, spec, _ = array_form_case
        pool = gains_mod._VariablePool(graphs)
        trace = SolverOptions().resolved_trace(spec.n) * len(graphs)
        G, h = gains_mod._constraints(pool, spec, trace)
        G_ref, h_ref = constraint_rows(pool, spec, trace)
        assert G.tobytes() == G_ref.tobytes()
        assert h.tobytes() == h_ref.tobytes()


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
        def no_constraints(*args):
            raise AssertionError("constraints built for a disconnected graph")

        monkeypatch.setattr(gains_mod, "_constraints", no_constraints)
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        two_triangles = SensingGraph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        with pytest.raises(InfeasibleTopologyError, match="disconnected"):
            design_gains(two_triangles, spec)
        with pytest.raises(InfeasibleTopologyError, match="disconnected"):
            design_joint_gains([complete_graph(6), two_triangles], spec)

    @pytest.mark.parametrize("case", ["hexagon_cycle", "circulant"])
    def test_duality_gap_certificate(self, case):
        if case == "hexagon_cycle":
            spec = FormationSpec.from_coordinates(HEX_POINTS)
            graph = SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)])
        else:
            rng = np.random.default_rng(10)
            spec = FormationSpec.from_coordinates(rng.uniform(-1, 1, size=(10, 2)))
            graph = circulant_graph(10)
        _, info = design_gains(graph, spec)
        assert info.converged
        assert abs(info.upper_bound - info.gamma) < 1e-6 * info.gamma
        assert 0.0 <= info.bound_residual < 1e-6

    def test_gain_kernel_contains_formation(self):
        spec = FormationSpec.from_coordinates(HEX_POINTS)
        g = SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)])
        gm, _ = design_gains(g, spec)
        assert np.linalg.norm(gm.assembled @ spec.q_star) < 1e-7
        assert np.linalg.norm(gm.assembled @ spec.q_bar_star) < 1e-7


def circulant_graph(n, reach=3):
    return SensingGraph(n, sorted({(min(i, (i + s - 1) % n + 1), max(i, (i + s - 1) % n + 1))
                                   for i in range(1, n + 1) for s in range(1, reach + 1)}))


def trilateration_graph(n):
    """Triangle 1-2-3, then each agent sensing three earlier ones."""
    edges = [(1, 2), (2, 3), (1, 3)]
    for j in range(4, n + 1):
        edges += [(j - 3, j), (j - 2, j), (j - 1, j)]
    return SensingGraph(n, edges)


def hermitian_of(A):
    """n x n complex H with entry a - ib wherever A has block a I + b K."""
    return A[0::2, 0::2] - 1j * A[0::2, 1::2]


def realify(M):
    """2p x 2q real matrix of z -> M z in interleaved (Re, Im) coordinates."""
    R = np.empty((2 * M.shape[0], 2 * M.shape[1]))
    R[0::2, 0::2] = R[1::2, 1::2] = M.real
    R[0::2, 1::2] = -M.imag
    R[1::2, 0::2] = M.imag
    return R


def dense_operator(pool, k, Qc):
    """Reference r^2 x dim complex matrix of x -> vec(Q_c^H H^k(x) Q_c), one
    column per unit vector, each assembled by GainMatrix."""
    cols = []
    for u in range(pool.dim):
        x = np.zeros(pool.dim)
        x[u] = 1.0
        gm = GainMatrix(pool.graphs[k], x.reshape(-1, 2)[pool.classes[k]])
        cols.append((Qc.conj().T @ hermitian_of(gm.assembled) @ Qc).reshape(-1))
    return np.array(cols).T


def admm_design(graphs, spec, trace=None):
    """The ADMM path of design_joint_gains, run whether or not the flat
    optimum fits the graphs."""
    trace = SolverOptions(trace).resolved_trace(spec.n)
    pool = gains_mod._VariablePool(graphs)
    G, h = gains_mod._constraints(pool, spec, trace * len(graphs))
    op = gains_mod._EdgeOperator(pool, build_kernel_basis(spec).Qc)
    x, info = gains_mod._admm_solve(op, *gains_mod._independent_constraints(G, h))
    mats = [GainMatrix(g, x.reshape(-1, 2)[pool.classes[k]]) for k, g in enumerate(graphs)]
    return mats, info


def constraint_system(case):
    """Pool, formation, G and h of circulant18 or of the switching9 joint design."""
    if case == "switching9":
        scenario, _, _ = demo_scenario("switching9")
        graphs, spec = list(scenario.topologies), scenario.formation
    else:
        rng = np.random.default_rng(18)
        graphs = [circulant_graph(18)]
        spec = FormationSpec.from_coordinates(rng.uniform(-1, 1, size=(18, 2)))
    pool = gains_mod._VariablePool(graphs)
    trace = SolverOptions().resolved_trace(spec.n) * len(graphs)
    G, h = gains_mod._constraints(pool, spec, trace)
    return pool, spec, G, h


def independent_rows(G):
    """Rows of G picked in order while each raises the rank."""
    rows = []
    for i in range(G.shape[0]):
        if np.linalg.matrix_rank(G[rows + [i]]) > len(rows):
            rows.append(i)
    return rows


def random_hermitian_stack(rng, m, r):
    M = rng.normal(size=(m, r, r)) + 1j * rng.normal(size=(m, r, r))
    return M + M.conj().swapaxes(1, 2)


class TestConstraintSpace:
    """x0 + N y spans the solutions of G x = h, and the x-update on it is
    the KKT solve of the constrained least squares."""

    @pytest.mark.parametrize("case", ["circulant18", "switching9"])
    def test_null_space_and_particular_solution(self, case):
        _, _, G, h = constraint_system(case)
        x0, N = gains_mod._independent_constraints(G, h)
        scale = np.max(np.abs(G))
        assert np.max(np.abs(G @ N)) <= 1e-12 * scale
        assert np.max(np.abs(N.T @ N - np.eye(N.shape[1]))) <= 1e-12
        assert np.max(np.abs(G @ x0 - h)) <= 1e-12 * np.max(np.abs(h))
        assert N.shape == (G.shape[1], G.shape[1] - len(independent_rows(G)))

    def test_redundant_rows_change_nothing(self):
        _, _, G, h = constraint_system("circulant18")
        x0, N = gains_mod._independent_constraints(G, h)
        G2 = np.vstack([G, G[:10], 2.0 * G[3:4] - G[5:6]])
        h2 = np.concatenate([h, h[:10], 2.0 * h[3:4] - h[5:6]])
        x0_2, N2 = gains_mod._independent_constraints(G2, h2)
        assert N2.shape == N.shape
        assert np.max(np.abs(N2 @ N2.T - N @ N.T)) <= 1e-12
        assert np.max(np.abs(x0_2 - x0)) <= 1e-12 * np.max(np.abs(x0))

    def test_inconsistent_constraints_refused(self):
        _, _, G, h = constraint_system("circulant18")
        G2, h2 = np.vstack([G, G[:1]]), np.append(h, h[0] + 1.0)
        with pytest.raises(InfeasibleTopologyError,
                           match="gain constraints admit no solution for this "
                                 "graph/formation pair; the sensing graph is likely "
                                 "not universally rigid"):
            gains_mod._independent_constraints(G2, h2)

    @pytest.mark.parametrize("case", ["circulant18", "switching9"])
    def test_x_update_matches_dense_kkt_solve(self, case):
        pool, spec, G, h = constraint_system(case)
        x0, N = gains_mod._independent_constraints(G, h)
        Qc = build_kernel_basis(spec).Qc
        op = gains_mod._EdgeOperator(pool, Qc)
        pack = op.pack
        U, f0, a, S = gains_mod._null_space_map(op, x0, N)
        # The KKT system of the constrained least squares on the dense
        # operator, bordered by independent rows of G.
        rows = independent_rows(G)
        kkt = kkt_x_update([dense_operator(pool, k, Qc) for k in range(op.m)],
                           G[rows], h[rows], op.r)
        rng = np.random.default_rng(5)
        for _ in range(4):
            c = random_hermitian_stack(rng, op.m, op.r)
            ref, ref_shifted = kkt(c)
            w = a - S @ (U.T @ pack.pack(c))
            got = np.append(x0 + N @ w[:-1], w[-1])
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
            shifted = pack.unpack_lower(f0 + U @ w, np.zeros_like(c))
            assert (np.max(np.abs(shifted - np.tril(ref_shifted)))
                    <= 1e-10 * np.max(np.abs(ref_shifted)))


class TestHermitianPacking:
    def test_packing_is_an_isometry(self):
        rng = np.random.default_rng(21)
        pack = gains_mod._HermitianPacking(5)
        W, M = random_hermitian_stack(rng, 3, 5), random_hermitian_stack(rng, 3, 5)
        v, u = pack.pack(W), pack.pack(M)
        assert v.shape == (3 * 25,)
        inner = 2.0 * np.trace(W.conj().swapaxes(1, 2) @ M, axis1=1, axis2=2).real.sum()
        assert abs(2.0 * (v @ u) - inner) <= 1e-12 * abs(inner)
        assert abs(2.0 * (v @ v) - 2.0 * np.vdot(W, W).real) <= 1e-12 * np.vdot(W, W).real

    def test_unpacked_lower_triangle_round_trips(self):
        rng = np.random.default_rng(22)
        pack = gains_mod._HermitianPacking(6)
        M = random_hermitian_stack(rng, 4, 6)
        v = pack.pack(M)
        # Only the lower triangle is written, and only it is read.
        out = np.triu(random_hermitian_stack(rng, 4, 6), 1)
        upper = out.copy()
        assert pack.unpack_lower(v, out) is out
        assert np.max(np.abs(np.tril(out) - np.tril(M))) <= 1e-12 * np.max(np.abs(M))
        assert np.array_equal(np.triu(out, 1), upper)
        assert np.max(np.abs(pack.pack(out) - v)) <= 1e-12 * np.max(np.abs(v))
        assert np.array_equal(pack.pack(out), pack.pack(np.tril(out)))


@pytest.mark.parametrize("case", ["hexagon", "switching9"])
def test_admm_matches_dense_reference_loop(case):
    """The packed iteration is the ADMM on full Hermitian iterates with a KKT
    solve per update: the same iterates up to rounding."""
    if case == "switching9":
        scenario, _, _ = demo_scenario("switching9")
        graphs, spec = list(scenario.topologies), scenario.formation
    else:
        graphs = [SensingGraph(6, [(i, i % 6 + 1) for i in range(1, 7)])]
        spec = FormationSpec.from_coordinates(HEX_POINTS)
    pool = gains_mod._VariablePool(graphs)
    G, h = gains_mod._constraints(pool, spec, SolverOptions().resolved_trace(spec.n) * len(graphs))
    Qc = build_kernel_basis(spec).Qc
    op = gains_mod._EdgeOperator(pool, Qc)
    x, info = gains_mod._admm_solve(op, *gains_mod._independent_constraints(G, h))
    rows = independent_rows(G)
    x_ref, gamma_ref, iterations = admm_dense(
        [dense_operator(pool, k, Qc) for k in range(len(graphs))], G[rows], h[rows], op.r,
        gains_mod.MAX_ITERATIONS, gains_mod.PRIMAL_TOL)
    assert info.converged and info.iterations == iterations
    assert info.gamma == pytest.approx(gamma_ref, rel=1e-10)
    assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)


# Draw 27 of a stream of random joint designs (default_rng(1); per draw n in
# [6, 9), points in [-1, 1]^2, a base graph keeping each pair with
# probability 0.55, and a second topology with 3 pairs toggled).  Each
# topology designs alone, but no gains shared as the tie rule requires
# serve both.
JOINT_POINTS = [(-0.962467594985102, 0.7313269237402913), (0.9249462204860888, 0.08465300296829481),
                (0.9357669168957639, 0.40956487303500766), (0.09045041605869919, -0.07264996421001135),
                (-0.0672019861326203, 0.363993454148257), (-0.5309892624480994, 0.4308022490072039)]
JOINT_EDGES = ([(1, 2), (1, 5), (1, 6), (2, 3), (2, 4), (3, 6), (4, 6), (5, 6)],
               [(1, 2), (1, 5), (1, 6), (2, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 6)])


class TestRefusals:
    """Designs that return no gains raise, and ``bcbform design`` exits 2
    without writing a gains file."""

    def design_exit(self, tmp_path, capsys, scenario, names=None):
        save_scenario(str(tmp_path / "s.yaml"), scenario, names)
        capsys.readouterr()
        code = main(["design", str(tmp_path / "s.yaml"), "-o", str(tmp_path / "g.json"),
                     "--quiet"])
        assert not (tmp_path / "g.json").exists()
        return code, capsys.readouterr().err

    def test_certified_joint_infeasibility(self, tmp_path, capsys):
        spec = FormationSpec.from_coordinates(JOINT_POINTS)
        graphs = [SensingGraph(6, edges) for edges in JOINT_EDGES]
        for g in graphs:
            assert design_gains(g, spec)[1].converged
        pool = gains_mod._VariablePool(graphs)
        G, h = gains_mod._constraints(pool, spec, SolverOptions().resolved_trace(6) * 2)
        op = gains_mod._EdgeOperator(pool, build_kernel_basis(spec).Qc)
        _, info = gains_mod._admm_solve(op, *gains_mod._independent_constraints(G, h))
        # The multiplier is dual feasible to 1e-13, so no shared gains have a
        # gap above the bound, far below the 1e-6 floor.
        assert info.converged
        assert info.upper_bound <= 1e-13
        assert 0.0 <= info.bound_residual <= 1e-13
        with pytest.raises(JointInfeasibilityError,
                           match="5 shared-gain groups bind the topologies") as exc:
            design_joint_gains(graphs, spec)
        # Each group ties one edge's gains across both topologies.
        assert len(exc.value.tie_groups) == 5
        assert all(sorted(k for k, _ in group) == [0, 1] for group in exc.value.tie_groups)
        scenario = Scenario(formation=spec, topologies=tuple(graphs),
                            schedule=((0.0, 0), (1.0, 1)))
        code, err = self.design_exit(tmp_path, capsys, scenario)
        assert code == EXIT_INFEASIBLE
        assert err.startswith("error: joint gain design infeasible")
        assert "5 shared-gain groups bind the topologies" in err

    def test_iteration_cap_is_solver_failure(self, tmp_path, capsys, monkeypatch):
        # The triangle demo converges in 127 iterations; after 50 its gamma
        # is above the floor but its residuals are not below tolerance.
        monkeypatch.setattr(gains_mod, "MAX_ITERATIONS", 50)
        scenario, names, opts = demo_scenario("triangle")
        with pytest.raises(SolverFailureError,
                           match="^ADMM did not converge in 50 iterations$") as exc:
            design_joint_gains(list(scenario.topologies), scenario.formation, opts)
        assert exc.value.primal_residual > gains_mod.PRIMAL_TOL
        code, err = self.design_exit(tmp_path, capsys, scenario, names)
        assert code == EXIT_INFEASIBLE
        assert err == "error: ADMM did not converge in 50 iterations\n"


def flat_bound(n, trace=None):
    """|tau|/(2n-4), the largest gap of any graph at trace tau."""
    return abs(SolverOptions(trace).resolved_trace(n)) / (2 * n - 4)


SQUARE = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]


class TestFlatOptimum:
    """Graphs that carry (tau/(2n-4)) Q Q^T take it in closed form."""

    @pytest.mark.parametrize("n", [9, 20, 50])
    def test_closed_form_matches_admm_on_complete_graphs(self, n):
        rng = np.random.default_rng(200 + n)
        spec = FormationSpec.from_coordinates(rng.uniform(-5, 5, size=(n, 2)))
        gm, info = design_gains(complete_graph(n), spec)
        (ref,), ref_info = admm_design([complete_graph(n)], spec)
        assert info.algorithm == "closed_form" and ref_info.algorithm == "admm"
        assert ref_info.converged and ref_info.iterations > 0
        got, want = gm.params, ref.params
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert ref_info.gamma == pytest.approx(info.gamma, rel=1e-12)

    @pytest.mark.parametrize("n, trace", [(3, None), (6, -3.0), (12, None), (12, -50.0)])
    def test_complete_graph_gap_is_the_bound(self, n, trace):
        rng = np.random.default_rng(n)
        spec = FormationSpec.from_coordinates(rng.uniform(-1, 1, size=(n, 2)))
        gm, info = design_gains(complete_graph(n), spec, SolverOptions(trace))
        bound = flat_bound(n, trace)
        assert info.iterations == 0 and info.converged
        assert info.gamma == info.upper_bound == bound
        assert info.primal_residual == info.dual_residual == info.bound_residual == 0.0
        report = verify_gains(gm, build_kernel_basis(spec))
        assert report.passed
        assert report.spectral_gap == pytest.approx(bound, rel=1e-12)
        assert np.trace(gm.assembled) == pytest.approx(-2 * (n - 2) * bound, rel=1e-12)

    def test_square_cycle_carries_the_flat_optimum(self):
        # For the square, A* has zero blocks between opposite corners, so the
        # 4-cycle reaches the bound without its diagonals.
        spec = FormationSpec.from_coordinates(SQUARE)
        cycle = SensingGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        gm, info = design_gains(cycle, spec)
        (ref,), ref_info = admm_design([cycle], spec)
        assert info.algorithm == "closed_form"
        assert ref_info.gamma == pytest.approx(flat_bound(4), rel=1e-8)
        assert np.max(np.abs(gm.assembled - ref.assembled)) <= 1e-8
        # For a rhombus the cycle carries no gain matrix at all.
        rhombus = FormationSpec.from_coordinates([(2.0, 0.0), (0.0, 1.0), (-2.0, 0.0),
                                                  (0.0, -1.0)])
        with pytest.raises(InfeasibleTopologyError, match="admit no solution"):
            design_gains(cycle, rhombus)

    def test_complete_graph_minus_an_edge_runs_admm(self):
        rng = np.random.default_rng(7)
        spec = FormationSpec.from_coordinates(rng.uniform(-1, 1, size=(7, 2)))
        graph = SensingGraph(7, complete_graph(7).edges - {(2, 5)})
        gm, info = design_gains(graph, spec)
        assert info.algorithm == "admm" and info.iterations > 0
        assert verify_gains(gm, build_kernel_basis(spec)).passed
        assert info.gamma < flat_bound(7)

    def test_switching9_joint_design_runs_admm(self):
        scenario, _, _ = demo_scenario("switching9")
        _, info = design_joint_gains(list(scenario.topologies), scenario.formation)
        assert info.algorithm == "admm" and info.iterations > 0

    def test_joint_design_over_complete_topologies_agrees(self):
        rng = np.random.default_rng(8)
        spec = FormationSpec.from_coordinates(rng.uniform(-1, 1, size=(8, 2)))
        (first, second), info = design_joint_gains([complete_graph(8)] * 2, spec)
        assert info.iterations == 0
        assert first.assembled.tobytes() == second.assembled.tobytes()
        single, _ = design_gains(complete_graph(8), spec)
        assert first.assembled.tobytes() == single.assembled.tobytes()

    def test_mixed_joint_design_runs_admm(self):
        # The flat optimum must fit every topology of a joint design.
        rng = np.random.default_rng(9)
        spec = FormationSpec.from_coordinates(rng.uniform(-1, 1, size=(7, 2)))
        graphs = [complete_graph(7), SensingGraph(7, complete_graph(7).edges - {(2, 5)})]
        mats, info = design_joint_gains(graphs, spec)
        assert info.algorithm == "admm" and info.iterations > 0
        basis = build_kernel_basis(spec)
        assert all(verify_gains(gm, basis).passed for gm in mats)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(n=st.integers(4, 8), seed=st.integers(0, 2**32 - 1),
       trace=st.one_of(st.none(), st.floats(-40.0, -0.5)))
def test_design_gap_within_flat_bound(n, seed, trace):
    points = spread_points(n, np.random.default_rng(seed))
    spec = FormationSpec.from_coordinates(points)
    gm, info = design_gains(nearest_trilateration_graph(points), spec, SolverOptions(trace))
    report = verify_gains(gm, build_kernel_basis(spec))
    assert report.passed
    bound = flat_bound(n, trace)
    assert info.gamma <= bound * (1 + 1e-9)
    assert report.spectral_gap <= bound * (1 + 1e-9)


class TestEdgeOperator:
    def check_against_dense(self, graphs, spec, monkeypatch):
        Qc = build_kernel_basis(spec).Qc
        r = Qc.shape[1]
        pool = gains_mod._VariablePool(graphs)
        op = gains_mod._EdgeOperator(pool, Qc)
        Bs = [dense_operator(pool, k, Qc) for k in range(len(graphs))]
        rng = np.random.default_rng(7)
        # Column t of the packed matrix on a basis is svec of the dense stack
        # B_k basis[:, t], in one or in several blocks of rows.  The basis is
        # every unit vector, which gives the whole map, then 5 random columns.
        basis = np.hstack([np.eye(pool.dim), rng.normal(size=(pool.dim, 5))])
        want = np.column_stack([op.pack.pack(np.stack([(Bk @ col).reshape(r, r) for Bk in Bs]))
                                for col in basis.T])
        for chunk in (gains_mod.CHUNK_ROWS, 7):
            monkeypatch.setattr(gains_mod, "CHUNK_ROWS", chunk)
            got = op.packed(basis)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # Under <W, M> = 2 Re tr(W^H M), B^T W is sum_k 2 Re(B_k^H vec W_k).
        # On null(G) every B(x) is Hermitian, so for Hermitian W,
        # N^T B^T W = 2 packed(N)^T svec W: the certificate's identity.
        G, h = gains_mod._constraints(pool, spec, -1.0)
        _, N = gains_mod._independent_constraints(G, h)
        W = random_hermitian_stack(rng, len(graphs), r)
        adjoint = N.T @ sum(2.0 * (Bk.conj().T @ W[k].reshape(-1)).real
                            for k, Bk in enumerate(Bs))
        got = 2.0 * (op.packed(N).T @ op.pack.pack(W))
        assert np.max(np.abs(got - adjoint)) <= 1e-12 * np.max(np.abs(adjoint))

    @pytest.mark.parametrize("graph", [circulant_graph(10), trilateration_graph(9),
                                       complete_graph(7)],
                             ids=["circulant", "trilateration", "complete"])
    def test_matches_dense_reference(self, graph, monkeypatch):
        rng = np.random.default_rng(graph.n)
        spec = FormationSpec.from_coordinates(rng.uniform(-1, 1, size=(graph.n, 2)))
        self.check_against_dense([graph], spec, monkeypatch)

    def test_joint_pool_with_shared_variables(self, monkeypatch):
        scenario, _, _ = demo_scenario("switching9")
        pool = gains_mod._VariablePool(list(scenario.topologies))
        assert pool.n_classes < sum(len(g.edges) for g in scenario.topologies)
        self.check_against_dense(list(scenario.topologies), scenario.formation, monkeypatch)

    def test_realified_complex_basis_spans_kernel_complement(self):
        rng = np.random.default_rng(11)
        basis = build_kernel_basis(FormationSpec.from_coordinates(rng.uniform(-1, 1, (9, 2))))
        Qr = realify(basis.Qc)
        assert Qr.shape == (18, 14)
        assert np.max(np.abs(Qr.T @ Qr - np.eye(14))) <= 1e-12
        assert np.max(np.abs(Qr.T @ basis.N)) <= 1e-12
        # Same subspace as the real basis: Q^T Qr is orthogonal.
        O = basis.Q.T @ Qr
        assert np.max(np.abs(O.T @ O - np.eye(14))) <= 1e-12

    def test_real_reduction_is_realified_hermitian_reduction(self):
        rng = np.random.default_rng(12)
        graph = trilateration_graph(9)
        basis = build_kernel_basis(FormationSpec.from_coordinates(rng.uniform(-1, 1, (9, 2))))
        A = GainMatrix(graph, rng.normal(size=(len(graph.edge_list), 2))).assembled
        Qr = realify(basis.Qc)
        H = hermitian_of(A)
        assert np.max(np.abs(realify(H) - A)) == 0.0
        expected = realify(basis.Qc.conj().T @ H @ basis.Qc)
        assert np.max(np.abs(Qr.T @ A @ Qr - expected)) <= 1e-12 * np.max(np.abs(A))

    def test_complete30_peak_memory(self):
        # A dense r^2 x dim operator, with F = B Zn and F^T F built from it,
        # peaks near 75 MiB here; the packed null-space map stays near 21 MiB.
        # design_gains takes the closed form here, so ADMM is called directly.
        rng = np.random.default_rng(30)
        spec = FormationSpec.from_coordinates(rng.uniform(-1, 1, size=(30, 2)))
        tracemalloc.start()
        try:
            _, info = admm_design([complete_graph(30)], spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.converged
        assert peak < 40 * 2**20


@pytest.mark.parametrize("case", ["circulant", "trilateration", "complete", "switching9"])
def test_gamma_matches_real_spectrum(case):
    """The gamma solved over Hermitian matrices is the smallest spectral gap
    of the assembled real 2n x 2n gain matrices, whose nonzero eigenvalues
    come in equal pairs (one per complex eigenvalue)."""
    if case == "switching9":
        scenario, _, _ = demo_scenario("switching9")
        graphs, spec = list(scenario.topologies), scenario.formation
    else:
        graph = {"circulant": circulant_graph(10), "trilateration": trilateration_graph(9),
                 "complete": complete_graph(7)}[case]
        rng = np.random.default_rng(graph.n)
        spec = FormationSpec.from_coordinates(rng.uniform(-1, 1, size=(graph.n, 2)))
        graphs = [graph]
    mats, info = design_joint_gains(graphs, spec)
    basis = build_kernel_basis(spec)
    reports = [verify_gains(gm, basis) for gm in mats]
    assert min(rep.spectral_gap for rep in reports) == pytest.approx(info.gamma, rel=1e-9)
    for rep in reports:
        nonzero = np.array(rep.eigenvalues[4:])
        assert np.max(np.abs(nonzero[0::2] - nonzero[1::2])) <= 1e-9 * np.max(np.abs(nonzero))


def similar(points, graph, angle, shift, scale, perm):
    """Rotate, translate, scale and relabel a formation with its graph; agent
    k + 1 gets label perm[k] + 1."""
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    moved = (points @ rot.T + shift) * scale
    relabelled = np.empty_like(moved)
    relabelled[perm] = moved
    edges = [tuple(sorted((int(perm[i - 1]) + 1, int(perm[j - 1]) + 1)))
             for i, j in graph.edge_list]
    return relabelled, SensingGraph(graph.n, edges)


@pytest.mark.parametrize("n", [8, 10, 12])
def test_design_invariant_under_similarity_and_relabelling(n):
    rng = np.random.default_rng(n)
    points = rng.uniform(-1.0, 1.0, size=(n, 2))
    graph = trilateration_graph(n)
    _, base = design_gains(graph, FormationSpec.from_coordinates(points))
    for _ in range(3):
        moved, relabelled = similar(points, graph, rng.uniform(0.0, 2.0 * math.pi),
                                    rng.uniform(-5.0, 5.0, size=2), rng.uniform(0.5, 2.0),
                                    rng.permutation(n))
        _, info = design_gains(relabelled, FormationSpec.from_coordinates(moved))
        assert info.iterations == base.iterations
        assert info.gamma == pytest.approx(base.gamma, rel=1e-10)


def spread_points(n, rng):
    """``n`` points in [-1, 1]^2, no two closer than 1.2 / sqrt(n)."""
    pts = []
    while len(pts) < n:
        p = rng.uniform(-1.0, 1.0, size=2)
        if all(np.hypot(*(p - q)) >= 1.2 / math.sqrt(n) for q in pts):
            pts.append(p)
    return np.array(pts)


def nearest_trilateration_graph(points):
    """Triangle 1-2-3, then each agent sensing the three nearest earlier ones."""
    edges = [(1, 2), (1, 3), (2, 3)]
    for v in range(3, len(points)):
        near = np.argsort(np.hypot(*(points[:v] - points[v]).T))[:3]
        edges += [(int(u) + 1, v + 1) for u in sorted(near)]
    return SensingGraph(len(points), edges)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(n=st.integers(6, 10), seed=st.integers(0, 2**32 - 1),
       angle=st.floats(0.0, 2.0 * math.pi), shift=st.tuples(st.floats(-5.0, 5.0),
                                                           st.floats(-5.0, 5.0)),
       scale=st.floats(0.5, 2.0), data=st.data())
def test_design_invariant_under_drawn_similarity(n, seed, angle, shift, scale, data):
    points = spread_points(n, np.random.default_rng(seed))
    graph = nearest_trilateration_graph(points)
    perm = np.array(data.draw(st.permutations(range(n))))
    moved, relabelled = similar(points, graph, angle, np.array(shift), scale, perm)
    _, base = design_gains(graph, FormationSpec.from_coordinates(points))
    _, info = design_gains(relabelled, FormationSpec.from_coordinates(moved))
    assert info.iterations == base.iterations
    assert info.gamma == pytest.approx(base.gamma, rel=1e-10)


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

    def test_design_is_bitwise_deterministic(self):
        first, _ = design_joint_gains(self.topos, self.spec)
        second, _ = design_joint_gains(self.topos, self.spec)
        for a, b in zip(first, second):
            assert a.assembled.tobytes() == b.assembled.tobytes()

    def test_tie_rule_shares_identical_neighbor_sets(self):
        mats, _ = design_joint_gains(self.topos, self.spec)
        shared = set(self.topos[0].edges) & set(self.topos[1].edges)
        tied0 = {i for i in range(1, 10)
                 if self.topos[0].neighbors(i) == self.topos[1].neighbors(i)}
        for (i, j) in shared:
            if i in tied0 and j in tied0:
                assert edge_params(mats[0], (i, j)) == edge_params(mats[1], (i, j))


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
        params = gm.params.copy()
        params[0, 0] += 0.5
        corrupted = GainMatrix(g, params)
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
