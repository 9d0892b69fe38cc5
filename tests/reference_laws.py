"""Per-agent control laws, as the paper states them: one agent's command from
its own (neighbor j, relative measurement) pairs and its gain blocks A_ij.

``bcbform.controllers`` evaluates each law for the whole team at once; the
tests compare it with these, and build small star graphs for cases that can
be checked by hand.
"""

from dataclasses import dataclass, field

import numpy as np

from bcbform.controllers import _edge_arrays
from bcbform.gains import GainMatrix
from bcbform.geometry import SensingGraph


def star_edges(blocks, scale=None, orders=1):
    """Edge arrays of a star: agent 1 senses each agent j of ``blocks``
    through the rotation-scaled block ``blocks[j]``."""
    graph = SensingGraph(max(blocks), [(1, j) for j in blocks])
    params = {(1, j): (float(B[0][0]), float(B[0][1])) for j, B in blocks.items()}
    return _edge_arrays(graph, GainMatrix.from_edge_params(graph, params), scale, orders)


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
