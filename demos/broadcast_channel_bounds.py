"""Rate-region constraints for a finite-dimensional broadcast channel.

Evaluates the four named two-receiver constraints for the qubit copy
channel |i> -> |i>|i> and prints the coefficient vectors over the rate
tuple (E_AB, E_AC, E_BC, E_ABC, K_AB, K_AC, K_BC, K_ABC).
"""

import numpy as np

from qbcbound import QuantumChannel, SquashConfig, two_receiver_report
from qbcbound.rates import RATE_TUPLE

k = np.zeros((4, 2))
k[0, 0] = 1.0
k[3, 1] = 1.0
copy_channel = QuantumChannel((k,), 2, ("B", "C"), (2, 2))

report = two_receiver_report(copy_channel, SquashConfig(restarts=2, max_iters=300, seed=0))

print("rate tuple order:", ", ".join(RATE_TUPLE))
for name, row in report.items():
    coeffs = ", ".join(f"{c:g}" for c in row["coefficients"])
    print(f"\n{name}  (partition {row['partition']})")
    print(f"  ({coeffs}) . rates  <=  {row['bound_bits']:.6f} bits")
    print(f"  measure: {row['measure_used']}, exact: {not row['metadata']['estimate_only']}")
