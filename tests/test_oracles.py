"""Exact-value oracles: families whose squashed entanglement is known.

The erasure broadcast channel is covariant and its flags are local, so each
of its bounds is gated on both sides of the exact value.  Entanglement-
breaking channels and separable states have value 0 on every cut; their
bounds are variational, so only validity (bound >= 0) is gated, and how far
above 0 they land is the looseness the squash leaves.
"""

import math

import numpy as np
import pytest

from qbcbound import MultipartiteState, Partition, QuantumChannel, two_receiver_report
from qbcbound.sampling import random_unitary
from qbcbound.squash import esq_upper_variational


def erasure_channel(eps: float) -> QuantumChannel:
    """The qubit input goes to B with probability 1 - eps and to C
    otherwise; the other receiver gets the flag, level 2 of its qutrit."""
    keep = np.zeros((9, 2))
    erase = np.zeros((9, 2))
    for i in range(2):
        keep[3 * i + 2, i] = math.sqrt(1 - eps)  # |i>_B |2>_C
        erase[3 * 2 + i, i] = math.sqrt(eps)  # |2>_B |i>_C
    return QuantumChannel((keep, erase), 2, ("B", "C"), (3, 3))


@pytest.mark.parametrize("eps", [0.0, 0.1, 0.3, 0.5])
def test_erasure_broadcast_bounds_are_exact(eps):
    # one ebit goes to B or to C with a local flag, so each value is the flag
    # average of log2 d = 1 bit
    exact = {"b_cut": 1 - eps, "c_cut": eps, "bc_cut": 1.0, "tripartite": 1.0}
    report = two_receiver_report(erasure_channel(eps))
    for name, value in exact.items():
        bound = report[name]["bound_bits"]
        assert value - 1e-9 <= bound <= value + 1e-8, (name, bound, value)


def _qubit(rng) -> np.ndarray:
    return random_unitary(rng, 2)[:, 0]


def entanglement_breaking_channel(seed: int) -> QuantumChannel:
    """Measure the qubit input with the 3-outcome rank-1 POVM whose elements
    are the rows m_k of the first two columns of a Haar 3 x 3 unitary, and
    prepare a random product state |b_k>|c_k> on B and C for outcome k."""
    rng = np.random.default_rng(seed)
    rows = random_unitary(rng, 3)[:, :2]
    kraus = tuple(np.outer(np.kron(_qubit(rng), _qubit(rng)), m) for m in rows)
    return QuantumChannel(kraus, 2, ("B", "C"), (2, 2))


@pytest.mark.parametrize("seed", range(6))
def test_entanglement_breaking_bounds_are_valid(seed):
    # every output is fully separable, so every cut's value is 0
    report = two_receiver_report(entanglement_breaking_channel(seed))
    for name, row in report.items():
        assert row["bound_bits"] >= -1e-9, (name, row["bound_bits"])


def separable_state(seed: int) -> MultipartiteState:
    """A mix of 3 pure product two-qubit terms with Dirichlet weights."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(3))
    rho = sum(
        w * np.outer(v, v.conj())
        for w, v in ((w, np.kron(_qubit(rng), _qubit(rng))) for w in weights)
    )
    return MultipartiteState(rho, ("A", "B"), (2, 2))


@pytest.mark.parametrize("seed", range(10))
def test_separable_state_bounds_are_valid(seed):
    result = esq_upper_variational(separable_state(seed), Partition((("A",), ("B",))))
    assert result.value_bits >= -1e-9, result.value_bits
