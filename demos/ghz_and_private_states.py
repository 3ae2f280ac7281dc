"""GHZ states, private states, and the exact pure-state values.

Shows that the GHZ state on m parties with Schmidt rank d carries exactly
(m/2) log2 d bits of multipartite squashed entanglement, that twisted
private states pass the secret-key check, and that products of GHZ
factors reproduce the partition coefficient formula.
"""

import numpy as np

from qbcbound import (
    Measure,
    Partition,
    PrivateStateSpec,
    check_private_state,
    constraint_coefficients,
    esq_exact_pure,
    make_ghz,
    make_private_state,
    nontrivial_partitions,
    tensor,
)
from qbcbound.sampling import random_unitary

print("== GHZ values ==")
for m, d in ((2, 2), (3, 2), (3, 3)):
    labels = tuple(f"P{i}" for i in range(m))
    ghz = make_ghz(labels, d)
    part = Partition(tuple((x,) for x in labels))
    v = esq_exact_pure(ghz, part, Measure.E_SQ)
    print(f"m={m} d={d}: {v:.6f} bits  (expect {(m / 2) * np.log2(d):.6f})")

print("\n== private state check ==")
rng = np.random.default_rng(1)
twists = tuple(random_unitary(rng, 2) for _ in range(4))
spec = PrivateStateSpec(2, 2, (2, 1), twists)
gamma = make_private_state(spec, ("kA", "kB"), ("sA", "sB"))
ok, dev = check_private_state(gamma, ("kA", "kB"), ("sA", "sB"), 2)
print(f"twisted state passes the key condition: {ok} (deviation {dev:.2e})")

print("\n== product of GHZ factors vs. coefficient formula ==")
psi = tensor(
    [
        make_ghz(("A_ab", "B_ab"), 2),  # one ebit between A and B
        make_ghz(("A_abc", "B_abc", "C_abc"), 2),  # one GHZ bit among all three
    ]
)
rates = {("A", "B"): 1, ("A", "B", "C"): 1}
for g in nontrivial_partitions(("A", "B", "C")):
    blocks = tuple(
        tuple(x for x in psi.labels if x[0] in blk)
        for blk in g.blocks
        if any(x[0] in blk for x in psi.labels)
    )
    got = esq_exact_pure(psi, Partition(blocks), Measure.E_SQ)
    expect = sum(
        0.5 * coeff * rates.get(m_set, 0)
        for m_set, coeff in constraint_coefficients(g).items()
    )
    print(f"partition {str(g):10s}: computed {got:.4f}, formula {expect:.4f}")
