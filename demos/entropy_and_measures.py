"""Walk through the entropic building blocks.

Builds a few small states, computes entropies, conditional mutual
information and the two multipartite generalizations, and checks a couple
of the identities that make them trustworthy.
"""

import numpy as np

from qbcbound import (
    Partition,
    cmi_dual_measure,
    cmi_total,
    entropy,
    make_ghz,
    purify,
    qcmi,
)
from qbcbound.sampling import random_state

print("== GHZ entropies ==")
ghz = make_ghz(("A", "B", "C"), 2)
print(f"H(A)      = {entropy(ghz, {'A'}):.6f} bits  (marginal is maximally mixed)")
print(f"H(ABC)    = {entropy(ghz, {'A', 'B', 'C'}):.6f} bits  (globally pure)")
print(f"I(A;B|C)  = {qcmi(ghz, {'A'}, {'B'}, {'C'}):.6f} bits")

print("\n== the two multipartite informations ==")
spec = Partition((("A",), ("B",), ("C",)))
print(f"total-correlation form on GHZ: {cmi_total(ghz, spec):.6f}")
print(f"dual form on GHZ:              {cmi_dual_measure(ghz, spec):.6f}")

print("\n== identities on a random state ==")
rng = np.random.default_rng(0)
rho = random_state(rng, ("A", "B", "C", "E"), (2, 2, 2, 2))
lhs = cmi_total(rho, spec, {"E"}) + cmi_dual_measure(rho, spec, {"E"})
rhs = (
    qcmi(rho, {"A"}, {"B", "C"}, {"E"})
    + qcmi(rho, {"B"}, {"A", "C"}, {"E"})
    + qcmi(rho, {"C"}, {"A", "B"}, {"E"})
)
print(f"I + I~  = {lhs:.9f}")
print(f"sum of pairwise QCMIs = {rhs:.9f}   (should agree)")

print("\n== purification duality ==")
phi = purify(rho, "D")
print(f"I(A;B|CE) on the purification = {qcmi(phi, {'A'}, {'B'}, {'C', 'E'}):.9f}")
print(f"I(A;B|D)  on the purification = {qcmi(phi, {'A'}, {'B'}, {'D'}):.9f}")
