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
One L-BFGS search on the surrogate's exact gradient, from X = I (the
maximally entangled input), therefore runs per partition, and nothing runs
after it.  It stops at the first point it evaluates whose Frank-Wolfe
duality gap lambda_max(G) - tr(G rho_A), G = df/d rho_A, which bounds how far
the maximum lies above the value found, is at most ``GAP_TOL`` bits, or
after ``_MAX_ITERS`` iterations.  A search that ends uncertified (its best
input is rank-deficient, say, where G is not defined) reports its point with
``input_gap_bits`` inf.  The full variational squashing optimization runs
once, at the best input found, on the purification of that input's output
vector over the support of the output state.

``evaluate_bounds`` compiles one input kernel: per partition both half
measures, then the sums of the achievable-rate guard on the same cuts.  It
runs in two phases, each one ``minimize`` batch: every partition's input
search, then every (partition, measure, restart) squash, one batch per
purifier dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatch, QbcError, SpecError, TooLarge
from .measures import _PURIFIER, Measure, _measure_kernel
from .partitions import (
    MAX_PARTIES,
    Partition,
    _instance,
    _read_once,
    constraint_coefficients,
    nontrivial_partitions,
)
from .optimize import complex_point, minimize, real_point
from .squash import SquashConfig, _check_size, _squash_purified
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
    # the coherent information max(H(X), H(Y)) - H(XY) across a bipartite cut
    # X|Y at the reported input, an achievable rate that the bound is checked
    # against; None on a cut of three or more blocks
    achievable_bits: float | None = None
    metadata: dict = field(default_factory=dict)

    def weights(self) -> dict:
        """Per-subset weight |A(M, G)| / 2, the pre-divided presentation."""
        return {m: c / 2.0 for m, c in self.coefficients.items()}


def _input_amplitudes(params: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes phi[..., r, a] = X / ||X|| of pure inputs phi_RA (|R| = |A| =
    d), one per leading index of ``params``, with X the d x d matrix
    ``complex_point(params, (d, d))``, and the norms ||X||."""
    x = complex_point(params, (d, d))
    norm = np.linalg.norm(x, axis=(-2, -1))
    return x / norm[..., None, None], norm


# least ratio of the input's smallest to largest singular value at which
# _input_gap inverts it: phi^-1 amplifies the rounding of the gradient by the
# inverse ratio, and at a rank-deficient input G is not defined
_GAP_FLOOR = 1e-4


def _input_gap(params: np.ndarray, grad: np.ndarray, d: int) -> np.ndarray:
    """The Frank-Wolfe duality gaps lambda_max(G) - tr(G rho_A) of the
    surrogate f at the inputs phi = X / ||X||, one per leading index of
    ``params``, G = df/d rho_A and rho_A = phi^T conj(phi).  f is concave in
    rho_A, so max f <= f(phi) + gap.  ``grad`` is ``minimize``'s: minus it, as
    a matrix times ||X|| / 2, is the projected gradient g = phi G^T of f less
    its radial part, a multiple of phi, which shifts G by a multiple of I that
    the gap does not see.  inf below the rank floor."""
    phi, norm = _input_amplitudes(params, d)
    u, s, wh = np.linalg.svd(phi)
    full = s[..., -1] > _GAP_FLOOR * s[..., 0]
    g = -complex_point(grad, (d, d))
    g *= (norm / 2)[..., None, None]
    # phi^-1 g = (G - c I)^T, whose gap is G's, and tr((G - c I) rho_A) = tr(phi^dag g);
    # an input below the floor divides by 1 instead, and its gap is inf
    inv_s = 1.0 / np.where(full[..., None], s, 1.0)
    g_t = (wh.conj().swapaxes(-1, -2) * inv_s[..., None, :]) @ (u.conj().swapaxes(-1, -2) @ g)
    top = np.linalg.eigvalsh((g_t + g_t.conj().swapaxes(-1, -2)) / 2)[..., -1]
    return np.where(full, top - (phi.conj() * g).real.sum(axis=(-2, -1)), np.inf)


def channel_output_state(
    channel: QuantumChannel, input_state: MultipartiteState
) -> MultipartiteState:
    """omega on {R, receivers} from sending the A half of a pure phi_RA."""
    if set(input_state.labels) != {SENDER_LABEL, "A"}:
        raise DimMismatch("input must live on labels {R, A}")
    if not input_state.is_pure():
        raise QbcError("channel input must be pure")
    return apply_channel(channel, input_state, "A")


def _measures(partition: Partition) -> list[Measure]:
    """The measures whose smaller value bounds a cut: E_sq alone on a
    bipartition, where the two coincide, and both on three or more blocks."""
    return [Measure.E_SQ] if len(partition.blocks) == 2 else list(Measure)


def _stinespring(channel: QuantumChannel):
    """The Stinespring isometry as one matrix V[a, (out, env)] = K_env[out, a],
    and the shape and labels of (1 (x) V)|phi> = phi V on R, the receivers and
    the (unlabeled) environment."""
    v = np.stack(channel.kraus_ops, axis=-1).transpose(1, 0, 2).reshape(channel.input_dim, -1)
    shape = (channel.input_dim,) + channel.output_dims + (len(channel.kraus_ops),)
    return v, shape, (SENDER_LABEL,) + channel.output_labels


def _ground(channel: QuantumChannel) -> tuple[str, ...]:
    """The parties (R, receivers...) of the channel's rate constraints; a
    value that is no ``QuantumChannel``, a receiver named R, or more than
    ``MAX_PARTIES`` parties, is refused."""
    if SENDER_LABEL in _instance(channel, QuantumChannel, "channel").output_labels:
        raise SpecError(f"{SENDER_LABEL!r} is reserved for the sender system")
    ground = (SENDER_LABEL,) + channel.output_labels
    if len(ground) > MAX_PARTIES:
        raise TooLarge(f"{len(ground)} parties exceed the rate-constraint cap of {MAX_PARTIES}")
    return ground


def _guard(partition: Partition) -> list[dict]:
    """The sums H(X), H(Y) and H(E) of the coherent information
    max(H(X), H(Y)) - H(E) across a bipartition X|Y, E the environment, as
    subset -> coefficient maps; empty maps on three or more blocks."""
    if len(partition.blocks) != 2:
        return [{}, {}, {}]
    return [{frozenset(x): 1.0} for x in partition.blocks] + [{frozenset((_PURIFIER,)): 1.0}]


def _input_value_and_grad(evaluate, v):
    """(params, rows) -> (values, gradients) that ``minimize`` minimizes: row
    i of ``params`` is an input of problem ``rows[i]`` of ``evaluate``, the
    input kernel, and its value is minus the smaller of the problem's first
    two sums, its measures of (1 (x) V)|phi> conditioned on the environment,
    and the gradient is that measure's (the first on a bipartition, where the
    two coincide).  ``v`` is the isometry of ``_stinespring(channel)``."""
    d = len(v)
    # conj V^T [(out, env), a] for the gradient
    v_conj = v.conj().T

    def value_and_grad(params, rows):
        count = len(rows)
        phi, norm = _input_amplitudes(params, d)
        values, grad = evaluate((phi @ v).reshape(count, -1), rows)
        k = np.argmin(values[:, :2], axis=1)
        g_phi = grad(k).reshape(count, d, -1) @ v_conj
        # phi = X / ||X||: drop the radial part, which leaves phi unchanged
        radial = (phi.conj() * g_phi).real.sum(axis=(1, 2))
        g_x = (g_phi - radial[:, None, None] * phi) / norm[:, None, None]
        return -values[np.arange(count), k], -2 * real_point(g_x)

    return value_and_grad


def evaluate_bounds(
    channel: QuantumChannel,
    partitions: list[Partition] | None = None,
    squash_cfg: SquashConfig = FINAL_SQUASH,
) -> list[RateConstraint]:
    """One RateConstraint per partition, in the order of ``partitions``, any
    iterable, read once (an empty one, a repeated partition, more than
    ``MAX_PARTIES`` parties, or a channel or config of the wrong type, is
    refused before any work), maximizing over pure inputs.

    Every partition's input search runs as one row of one ``minimize`` batch,
    and then every (partition, measure, restart) squash as one row of one
    batch per purifier dimension; each row's result is the one it would have
    alone.  A bipartite cut's bound is checked against the coherent
    information at the reported input, an achievable rate that every valid
    bound reaches; a bound below it raises ``QbcError``."""
    ground = _ground(channel)
    _instance(squash_cfg, SquashConfig, "squash_cfg")
    d = channel.input_dim
    # the squash's worst case: the output state's rank is at most #Kraus
    _check_size(d * channel.output_dim, min(len(channel.kraus_ops), d * channel.output_dim))
    if partitions is None:
        partitions = nontrivial_partitions(ground)
    partitions = _read_once(partitions, "partitions", Partition)
    seen = set()
    for partition in partitions:
        if set(partition.ground) != set(ground):
            raise SpecError(f"partition {partition} does not cover {ground}")
        if not partition.nontrivial:
            raise SpecError(f"partition {partition} has one block: it bounds no rate")
        if partition in seen:
            raise SpecError(f"partition {partition} is repeated")
        seen.add(partition)
    if not seen:
        raise SpecError("no partitions to bound")
    v, shape, labels = _stinespring(channel)
    # per partition both half measures, then the guard's sums
    evaluate = _measure_kernel(shape, labels, [(p, list(Measure) + _guard(p)) for p in partitions])
    # every search starts at X = I, the maximally entangled input, and stops
    # at the first point it evaluates, line-search trials included, whose gap
    # is certified: near the maximum iterates differ only by rounding in
    # value, and their gaps stall above ones the trials reach
    res = minimize(
        _input_value_and_grad(evaluate, v),
        np.tile(real_point(np.eye(d)), (len(partitions), 1)),
        max_iters=_MAX_ITERS,
        stop=lambda params, grads, rows: _input_gap(params, grads, d) <= GAP_TOL,
    )
    gaps = _input_gap(res.x, res.jac, d)
    # the output vector at each best input, M[(r, out), env]; its
    # purification over the support of omega = M M^dag feeds the squash
    phis = _input_amplitudes(res.x, d)[0]
    outputs = (phis @ v).reshape(len(partitions), -1, shape[-1])
    psis = [_purification(m @ m.conj().T) for m in outputs]
    problems = [(psi, p, m) for psi, p in zip(psis, partitions) for m in _measures(p)]
    squashed = _squash_purified(problems, shape[:-1], labels, squash_cfg)
    value = {(p, r.measure): r.value_bits for (_, p, _), r in zip(problems, squashed)}
    # the guard's sums at each best input, on the search's own cuts
    sums = evaluate(outputs.reshape(len(partitions), -1), np.arange(len(partitions)))[0]
    achievable = (np.maximum(sums[:, 2], sums[:, 3]) - sums[:, 4]).tolist()
    svs = np.linalg.svd(phis, compute_uv=False).tolist()
    out = []
    for sv, psi, gap, partition, rate in zip(svs, psis, gaps.tolist(), partitions, achievable):
        measures = _measures(partition)
        bound = min(value[partition, m] for m in measures)
        rate = rate if len(partition.blocks) == 2 else None
        if rate is not None and bound < rate - 1e-9:
            raise QbcError(
                f"cut {partition}: bound {bound!r} bits lies below the achievable {rate!r} bits"
            )
        out.append(
            RateConstraint(
                partition=partition,
                coefficients=constraint_coefficients(partition),
                bound_bits=bound,
                measure_used=measures[0].value if len(measures) == 1 else "min_of_both",
                # a search that ended uncertified has no gap
                input_gap_bits=gap if gap <= GAP_TOL else math.inf,
                achievable_bits=rate,
                metadata={
                    "schmidt": [x**2 for x in sv],
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
    vectors over (E_AB, E_AC, E_BC, E_ABC, K_AB, K_AC, K_BC, K_ABC): a cut's
    ``weights()`` at AB, AC, BC and ABC, once for E and once for K."""
    _ground(channel)
    if len(channel.output_labels) != 2:
        raise SpecError("two_receiver_report needs exactly two receivers")
    b, c = channel.output_labels
    named = {
        "b_cut": Partition(((SENDER_LABEL, c), (b,))),
        "c_cut": Partition(((SENDER_LABEL, b), (c,))),
        "bc_cut": Partition(((SENDER_LABEL,), (b, c))),
        "tripartite": Partition(((SENDER_LABEL,), (b,), (c,))),
    }
    # RATE_TUPLE's subsets, A the sender and B, C the receivers
    label = dict(zip("ABC", (SENDER_LABEL, b, c)))
    subsets = [tuple(sorted(label[x] for x in key[2:])) for key in RATE_TUPLE]
    report = {}
    for name, rc in zip(named, evaluate_bounds(channel, list(named.values()), squash_cfg)):
        weights = rc.weights()
        report[name] = {
            "partition": str(rc.partition),
            "coefficients": tuple(weights.get(m, 0.0) for m in subsets),
            "bound_bits": rc.bound_bits,
            "measure_used": rc.measure_used,
            "metadata": rc.metadata,
        }
    return report
