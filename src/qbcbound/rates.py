"""Rate-region constraints for finite-dimensional broadcast channels.

For each nontrivial partition of {R, receivers}, the achievable
entanglement/key rate combinations obey
(1/2) sum_M |A(M, G)| (K_M + E_M) <= min{E_sq(G), E~_sq(G)} evaluated on
the channel output of the best pure input.  We maximize over parametrized
pure inputs; the inner squashed-entanglement estimate is exact whenever
the channel output is pure (isometric channels) and a variational upper
bound otherwise, so reported numbers for noisy channels are heuristic
estimates of the sup-inf quantity.

The input search itself evaluates a cheap surrogate at every trial point:
the measure on the pure output vector conditioned on the channel
environment, which equals trivial squashing of any purification and is
exact for isometric channels.  A search point is a complex d x d matrix X
(its real and imaginary parts), and the input is phi_RA = X / ||X||, which
reaches every pure input with |R| = |A| = d.  The surrogate depends on the
input only through rho_A = X^T conj(X) / ||X||^2 and is concave in it, so
every local maximum over X is global: at a full-rank X the map X -> rho_A is
locally onto, and a rank-deficient local maximum of a concave f(Y Y^dag) is
global too (Journee, Bach, Absil and Sepulchre, SIAM J. Optim. 20, 2010).
One L-BFGS-B search on the surrogate's exact gradient, from X = I (the
maximally entangled input), therefore runs per partition, and nothing runs
after it.  It stops once the Frank-Wolfe duality gap lambda_max(G) -
tr(G rho_A), G = df/d rho_A, which bounds how far the maximum lies above the
value found, is at most ``GAP_TOL`` bits, or after ``_MAX_ITERS`` iterations.
A search that ends uncertified (its best input is rank-deficient, say, where
G is not defined) reports its point with ``input_gap_bits`` inf.
The full variational squashing optimization runs once, at the best input
found, on the purification of that input's output vector over the support
of the output state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatch, QbcError, SpecError, TooLarge
from .partitions import Partition, constraint_coefficients, nontrivial_partitions
from .squash import DIM_CAP, Measure, SquashConfig, _measure_kernel, _squash_purified, minimize
from .states import MultipartiteState, QuantumChannel, _purification, apply_channel

SENDER_LABEL = "R"
# the variational squash that runs once per partition at the best input
FINAL_SQUASH = SquashConfig(restarts=3)
# the Frank-Wolfe gap, in bits, at which the search from X = I is certified
GAP_TOL = 1e-8
# iteration cap of the input search
_MAX_ITERS = 400


@dataclass(frozen=True)
class RateConstraint:
    partition: Partition
    # M -> |A(M, G)| over C(G), as constraint_coefficients returns it
    coefficients: dict
    bound_bits: float
    measure_used: str
    # the input search's Frank-Wolfe gap: the surrogate's maximum over inputs
    # is at most its best value plus this, at most GAP_TOL when certified and
    # inf when the search is uncertified
    input_gap_bits: float = math.inf
    metadata: dict = field(default_factory=dict)

    def weights(self) -> dict:
        """Per-subset weight |A(M, G)| / 2, the pre-divided presentation."""
        return {m: c / 2.0 for m, c in self.coefficients.items()}


def _input_amplitudes(params: np.ndarray, d: int) -> tuple[np.ndarray, float]:
    """Amplitudes phi[r, a] = X / ||X|| of a pure phi_RA (|R| = |A| = d), with
    X = params[:d*d] + i params[d*d:] as a d x d matrix, and ||X||."""
    x = (params[: d * d] + 1j * params[d * d :]).reshape(d, d)
    norm = float(np.linalg.norm(x))
    return x / norm, norm


# least ratio of the input's smallest to largest singular value at which
# _input_gap inverts it: phi^-1 amplifies the rounding of the gradient by the
# inverse ratio, and at a rank-deficient input G is not defined
_GAP_FLOOR = 1e-4


def _input_gap(params: np.ndarray, grad: np.ndarray, d: int) -> float:
    """The Frank-Wolfe duality gap lambda_max(G) - tr(G rho_A) of the surrogate
    f at the input phi = X / ||X||, G = df/d rho_A and rho_A = phi^T conj(phi).
    f is concave in rho_A, so max f <= f(phi) + gap.  ``grad`` is the projected
    gradient of ``_input_value_and_grad``: as a matrix times ||X|| / 2 it is
    g = phi G^T minus the radial part, a multiple of phi, which shifts G by a
    multiple of I that the gap does not see.  inf below the rank floor."""
    phi, norm = _input_amplitudes(params, d)
    u, s, wh = np.linalg.svd(phi)
    if not s[-1] > _GAP_FLOOR * s[0]:
        return math.inf
    g = (grad[: d * d] + 1j * grad[d * d :]).reshape(d, d) * (norm / 2)
    # phi^-1 g = (G - c I)^T, whose gap is G's, and tr((G - c I) rho_A) = tr(phi^dag g)
    g_t = (wh.conj().T / s) @ (u.conj().T @ g)
    top = np.linalg.eigvalsh((g_t + g_t.conj().T) / 2)[-1]
    return float(top - np.vdot(phi, g).real)


def channel_output_state(
    channel: QuantumChannel, input_state: MultipartiteState
) -> MultipartiteState:
    """omega on {R, receivers} from sending the A half of a pure phi_RA."""
    if set(input_state.labels) != {SENDER_LABEL, "A"}:
        raise DimMismatch("input must live on labels {R, A}")
    if not input_state.is_pure():
        raise QbcError("channel input must be pure")
    return apply_channel(channel, input_state, "A")


def _partition_value(est, partition) -> tuple[float, str]:
    if len(partition.blocks) == 2:
        # the two measures coincide on bipartitions
        return est(Measure.E_SQ), "esq"
    return min(est(Measure.E_SQ), est(Measure.E_SQ_TILDE)), "min_of_both"


def _stinespring(channel: QuantumChannel):
    """The Stinespring isometry V[out, env, a] = K_env[out, a], and the shape and
    labels of (1 (x) V)|phi> on R, the receivers and the (unlabeled) environment."""
    stinespring = np.stack(channel.kraus_ops, axis=1)
    shape = (channel.input_dim,) + channel.output_dims + (len(channel.kraus_ops),)
    return stinespring, shape, (SENDER_LABEL,) + channel.output_labels


def _input_value_and_grad(channel: QuantumChannel, partition: Partition, stinespring):
    """params -> (value, gradient) of the partition value of (1 (x) V)|phi>
    conditioned on the environment.  On a 3-block partition the value is the
    smaller of the two measures and the gradient is that measure's.
    ``stinespring`` is ``_stinespring(channel)``."""
    d = channel.input_dim
    stinespring, shape, labels = stinespring
    measures = [Measure.E_SQ] if len(partition.blocks) == 2 else list(Measure)
    evaluate = _measure_kernel(shape, labels, partition, measures)
    # V as matrices: [a, (out, env)] for the output, conj [(out, env), a] for
    # the gradient
    v_rows = stinespring.transpose(2, 0, 1).reshape(d, -1)
    v_conj = stinespring.conj().reshape(-1, d)

    def value_and_grad(params):
        phi, norm = _input_amplitudes(params, d)
        values, grad = evaluate(phi.dot(v_rows).reshape(shape))
        k = int(np.argmin(values))
        g_phi = grad(k).reshape(d, -1).dot(v_conj)
        # phi = X / ||X||: drop the radial part, which leaves phi unchanged
        g_x = (g_phi - np.vdot(phi, g_phi).real * phi) / norm
        return float(values[k]), 2 * np.concatenate([g_x.real.ravel(), g_x.imag.ravel()])

    return value_and_grad


def evaluate_bounds(
    channel: QuantumChannel,
    partitions: list[Partition] | None = None,
    squash_cfg: SquashConfig = FINAL_SQUASH,
) -> list[RateConstraint]:
    """One RateConstraint per partition, maximizing over pure inputs."""
    ground = (SENDER_LABEL,) + channel.output_labels
    if SENDER_LABEL in channel.output_labels:
        raise SpecError(f"{SENDER_LABEL!r} is reserved for the sender system")
    d = channel.input_dim
    # the output state's rank is at most the number of Kraus operators
    rank = min(len(channel.kraus_ops), d * channel.output_dim)
    if d * channel.output_dim * rank > DIM_CAP:
        raise TooLarge(
            f"output state dim {d * channel.output_dim} x squash output dim up to "
            f"{rank} exceeds cap {DIM_CAP}"
        )
    if partitions is None:
        partitions = nontrivial_partitions(ground)
    stinespring = _stinespring(channel)
    iso, shape, labels = stinespring
    # the search starts at X = I, the maximally entangled input
    identity = np.concatenate([np.eye(d).ravel(), np.zeros(d * d)])
    for i, partition in enumerate(partitions):
        if set(partition.ground) != set(ground):
            raise SpecError(f"partition {partition} does not cover {ground}")
        if not partition.nontrivial:
            raise SpecError(f"partition {partition} has one block: it bounds no rate")
        if partition in partitions[:i]:
            raise SpecError(f"partition {partition} is repeated")
    out = []
    for partition in partitions:
        value_and_grad = _input_value_and_grad(channel, partition, stinespring)
        # the search scores every point it evaluates, line-search trials
        # included: near the maximum L-BFGS-B accepts iterates on values that
        # differ only by rounding, and their gaps stall above ones the trials reach
        certified = []

        def certifying(theta):
            value, grad = value_and_grad(theta)
            if not certified:
                gap = _input_gap(theta, grad, d)
                if gap <= GAP_TOL:
                    certified[:] = theta.copy(), gap
            return -value, -grad

        def stop_when_certified(theta):
            if certified:
                raise StopIteration

        # no stop but the gap, the iteration cap or a failed line search; scipy
        # reports success false after a callback stop
        res = minimize(
            certifying,
            identity,
            jac=True,
            method="L-BFGS-B",
            callback=stop_when_certified,
            options={"maxiter": _MAX_ITERS, "ftol": 0.0, "gtol": 0.0},
        )
        best_params, gap = certified or (res.x, math.inf)
        # the output vector at the best input, M[(r, out), env]; its
        # purification over the support of omega = M M^dag feeds the squash
        phi = _input_amplitudes(best_params, d)[0]
        m = np.tensordot(phi, iso, axes=(1, 2)).reshape(-1, shape[-1])
        psi = _purification(m @ m.conj().T)
        value, measure_used = _partition_value(
            lambda measure: _squash_purified(
                psi, shape[:-1], labels, partition, measure, squash_cfg
            ).value_bits,
            partition,
        )
        out.append(
            RateConstraint(
                partition=partition,
                coefficients=constraint_coefficients(partition),
                bound_bits=value,
                measure_used=measure_used,
                input_gap_bits=gap,
                metadata={
                    "schmidt": [float(s) ** 2 for s in np.linalg.svd(phi, compute_uv=False)],
                    "seed": squash_cfg.seed,
                    "estimate_only": psi.shape[1] > 1,
                },
            )
        )
    return out


# ordering of the two-receiver rate tuple
RATE_TUPLE = ("E_AB", "E_AC", "E_BC", "E_ABC", "K_AB", "K_AC", "K_BC", "K_ABC")


def two_receiver_report(
    channel: QuantumChannel, squash_cfg: SquashConfig = FINAL_SQUASH
) -> dict[str, dict]:
    """The four named two-receiver inequalities with explicit coefficient
    vectors over (E_AB, E_AC, E_BC, E_ABC, K_AB, K_AC, K_BC, K_ABC)."""
    if len(channel.output_labels) != 2:
        raise SpecError("two_receiver_report needs exactly two receivers")
    b, c = channel.output_labels
    subset_name = {
        tuple(sorted((SENDER_LABEL, b))): "AB",
        tuple(sorted((SENDER_LABEL, c))): "AC",
        tuple(sorted((b, c))): "BC",
        tuple(sorted((SENDER_LABEL, b, c))): "ABC",
    }
    named = {
        "b_cut": Partition(((SENDER_LABEL, c), (b,))),
        "c_cut": Partition(((SENDER_LABEL, b), (c,))),
        "bc_cut": Partition(((SENDER_LABEL,), (b, c))),
        "tripartite": Partition(((SENDER_LABEL,), (b,), (c,))),
    }
    constraints = evaluate_bounds(channel, list(named.values()), squash_cfg)
    by_partition = {rc.partition: rc for rc in constraints}
    report = {}
    for name, partition in named.items():
        rc = by_partition[partition]
        vec = {f"E_{s}": 0.0 for s in ("AB", "AC", "BC", "ABC")}
        vec.update({f"K_{s}": 0.0 for s in ("AB", "AC", "BC", "ABC")})
        for m, w in rc.weights().items():
            s = subset_name[m]
            vec[f"E_{s}"] = w
            vec[f"K_{s}"] = w
        report[name] = {
            "partition": str(rc.partition),
            "coefficients": tuple(vec[k] for k in RATE_TUPLE),
            "bound_bits": rc.bound_bits,
            "measure_used": rc.measure_used,
            "metadata": rc.metadata,
        }
    return report
