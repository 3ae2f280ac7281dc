"""Squashed-entanglement evaluation.

The state is reduced to the partition's labels and purified once; labels
the partition leaves out join the purifier.  A pure reduction has its exact
value (every extension of a pure state is product with it, so the infimum
is attained without conditioning), a mixed one a variational upper bound
from a parametrized squashing channel on the purifier.  Both come from
``_squash_purified``, whose entropies are read off state vectors by
``measures._pure_entropy_sums``, never off a density matrix.

Each trial squashing isometry is applied to the purifier with one
contraction, and the same pass returns the exact gradient with respect to a
free complex Kraus matrix K, whose polar factor K (K^dag K)^(-1/2) is the
isometry, into a copy of the purifier and a traced-out qubit ancilla.  That
gradient drives ``optimize.minimize``, an L-BFGS that advances a batch of
independent searches in lockstep: every random restart of every squash
problem that shares a purifier dimension is one row of one batch.

Variational results are upper bounds only: any feasible squashing channel
gives one, and we cannot certify convergence to the true infimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotPure, QbcError, SpecError, TooLarge
from .measures import Measure, _measure_kernel, _nonnegative
from .optimize import complex_point, minimize, real_point
from .partitions import Partition, _instance, _read_once
from .states import MultipartiteState, _check_count, _check_real, _marginal, _purification


# largest state dim x purifier dim the variational squash takes on
DIM_CAP = 64
# the squash's relative-decrease stop
_FTOL = 1e-8
# the squash's iteration cap per restart; no search has come near it
_MAX_ITERS = 2000
# rows per squash batch: the restarts run in slices of as many as fit, but
# at least one restart of every problem, so memory grows with the number of
# problems but not with the number of restarts
_BATCH_ROWS = 256
# the most restarts: at the size cap (n * d_e = 64) one costs 64-80 ms on a
# 2-core VM, so a squash takes at most about a minute per measure
MAX_RESTARTS = 1000


def _check_size(n: int, d_e: int) -> None:
    """The size rule: refuse, before any work, to squash an n-dim state
    whose purifier has dimension d_e when n * d_e exceeds ``DIM_CAP``."""
    if n * d_e > DIM_CAP:
        raise TooLarge(f"state dim {n} x squash output dim {d_e} exceeds cap {DIM_CAP}")


@dataclass(frozen=True)
class SquashConfig:
    restarts: int = 20
    seed: int = 0

    def __post_init__(self):
        restarts = _check_count("restarts", self.restarts, 1, MAX_RESTARTS)
        object.__setattr__(self, "restarts", restarts)
        object.__setattr__(self, "seed", _check_count("seed", self.seed, 0))


@dataclass(frozen=True)
class SquashResult:
    value_bits: float
    measure: Measure
    converged: bool
    extension_description: dict = field(default_factory=dict)


def _reduced_purification(state: MultipartiteState, partition: Partition):
    """The labels and dims of ``partition`` on the state (``LabelNotFound`` if
    one is missing) and the purification amplitudes of its marginal there:
    the other labels join the purifier.  A one-block partition, whose
    measure is identically 0, or an argument of the wrong type, is refused
    before any work."""
    _instance(state, MultipartiteState, "state")
    if not _instance(partition, Partition, "partition").nontrivial:
        raise SpecError(f"partition {partition} has one block: it measures no entanglement")
    matrix, labels, dims = _marginal(state, partition.ground)
    return labels, dims, _purification(matrix)


def esq_exact_pure(state: MultipartiteState, partition: Partition, measure=Measure.E_SQ) -> float:
    """Exact squashed entanglement for the given grouping of a state that is
    pure on the partition's labels, by ``is_pure``'s rule: its purification
    through ``_purification`` has one column."""
    measure = Measure(measure)
    labels, dims, psi = _reduced_purification(state, partition)
    if psi.shape[1] > 1:
        raise NotPure("exact evaluation requires a pure state on the partition's labels")
    (res,) = _squash_purified([(psi, partition, measure)], dims, labels, SquashConfig())
    return res.value_bits


def esq_cq_average(flagged_states, partition: Partition, measure=Measure.E_SQ) -> float:
    """Exact value for a flagged ensemble of pure states: the probability-
    weighted average of the per-component pure-state values;
    ``flagged_states`` may be any iterable of (probability, state) pairs,
    read once, each probability a real number and each state a
    ``MultipartiteState``."""
    measure = Measure(measure)
    ensemble = []
    for i, entry in enumerate(_read_once(flagged_states, "ensemble")):
        pair = _read_once(entry, f"ensemble entry {i}")
        if len(pair) != 2:
            raise QbcError(f"ensemble entry {i} is not a (probability, state) pair")
        state = _instance(pair[1], MultipartiteState, f"state of ensemble entry {i}")
        ensemble.append((_check_real(f"probability of ensemble entry {i}", pair[0]), state))
    probs = [p for p, _ in ensemble]
    # written so that NaN, for which every comparison is false, fails it
    if not all(p >= 0 for p in probs):
        raise QbcError("probabilities must be non-negative")
    if abs(sum(probs) - 1.0) > 1e-9:
        raise QbcError("probabilities must sum to 1")
    total = 0.0
    for p, st in ensemble:
        total += p * esq_exact_pure(st, partition, measure)
    return total


# least ratio of a Kraus matrix's smallest to largest singular value; V^dag V
# then misses 1 by at most about machine epsilon / floor^2, 2e-8
_RANK_FLOOR = 1e-4
# the squash's gradient stop: gradients in K are about 1/sigma(K), 1/3 to
# 1/17 at the draws, of those on the isometries, so 1e-5 would stop too early
_GTOL = 1e-6


def _isometry_and_pullback(params: np.ndarray, d_e: int):
    """The polar factors V = K (K^dag K)^(-1/2) of the 2d_e x d_e Kraus
    matrices K = ``complex_point(params, (2 d_e, d_e))`` (rows over E' and
    then a qubit ancilla), one per leading index of ``params``, and the map
    from gradients with respect to conj(V) to ones with respect to params.

    Both come from one eigendecomposition S = K^dag K = Q diag(r^2) Q^dag:
    P = S^(-1/2) = Q diag(1/r) Q^dag, and dP = Q (F o (Q^dag dS Q)) Q^dag with
    the divided differences F_jk = -1 / (r_j r_k (r_j + r_k)) of s^(-1/2),
    exact at ties.  A K below the rank floor raises QbcError, so V is never
    NaN and always an isometry.
    """
    k = complex_point(params, (2 * d_e, d_e))
    s, q = np.linalg.eigh(k.conj().swapaxes(-1, -2) @ k)
    # written so that NaN, for which every comparison is false, fails it
    if not np.all(s[..., 0] > _RANK_FLOOR**2 * s[..., -1]):
        raise QbcError("squashing Kraus matrix is (numerically) rank-deficient")
    r = np.sqrt(s)
    qh = q.conj().swapaxes(-1, -2)
    p = (q / r[..., None, :]) @ qh
    v = k @ p

    def pullback(g_v: np.ndarray) -> np.ndarray:
        f = -1.0 / (r[..., :, None] * r[..., None, :] * (r[..., :, None] + r[..., None, :]))
        m = q @ (f * (qh @ g_v.conj().swapaxes(-1, -2) @ k @ q)) @ qh
        return 2 * real_point(g_v @ p + k @ (m + m.conj().swapaxes(-1, -2)))

    return v, pullback


def _squash_value_and_grad(evaluate, psis, owner):
    """(params, rows) -> (values, gradients): row i of ``params`` squashes the
    purification amplitudes ``psis[p]`` of problem p = ``owner[rows[i]]``, and
    its value is half that problem's measure of (1 (x) V) psis[p] conditioned
    on the squash output E', by ``evaluate``, the problems' ``_measure_kernel``
    over the labels' dims + (d_e, 2); V is the isometry of
    ``_isometry_and_pullback`` into E' (x) a traced-out qubit ancilla, E' of
    the purifier's dimension d_e, and K|e> = |e>|0> squashes nothing."""
    d_e = psis.shape[-1]
    psis_conj = psis.conj()

    def value_and_grad(params, rows):
        src = owner[rows]
        v, pullback = _isometry_and_pullback(params, d_e)
        out = psis[src] @ v.swapaxes(-1, -2)
        values, grad = evaluate(out.reshape(len(src), -1), src)
        g = grad(np.zeros(len(src), dtype=int)).reshape(out.shape)
        return values[:, 0], pullback(g.swapaxes(-1, -2) @ psis_conj[src])

    return value_and_grad


def _squash_purified(problems, dims, labels, config) -> list[SquashResult]:
    """Variational squash of each problem (psi, partition, measure), psi[i, e]
    the purification amplitudes of a state (i over ``labels`` of ``dims``, e
    over its support): half the measure conditioned on a squashed purifier,
    minimized by multi-restart L-BFGS.  Restart 0 is the identity squashing
    point, a stationary point scored without a search; restarts 1, 2, ...
    start from the same random Kraus matrices for every problem, drawn from
    ``default_rng(config.seed)``.  Every restart of every problem with the
    same purifier dimension is one row of a ``minimize`` batch: the restarts
    run in successive slices of as many as fit ``_BATCH_ROWS`` rows, but at
    least one, so memory grows with the number of problems but not with the
    restarts.  Exact when e has one value.  The reported value is floored
    at 0 by ``measures._nonnegative``; the searches compare raw ones."""
    out: list = [None] * len(problems)
    by_dim: dict[int, list[int]] = {}
    for i, (psi, _, _) in enumerate(problems):
        by_dim.setdefault(psi.shape[1], []).append(i)
    for d_e, members in by_dim.items():
        psis = np.stack([problems[i][0] for i in members])
        kinds = [(problems[i][1], [problems[i][2]]) for i in members]
        # the untouched purifier (identity squashing)
        every = np.arange(len(members))
        evaluate = _measure_kernel(dims + (d_e,), labels, kinds)
        identity = evaluate(psis.reshape(len(members), -1), every)[0][:, 0].tolist()
        # per problem: the best value, its search point and convergence
        best = [(value, None, True) for value in identity]
        # a pure state, where no extension can lower the objective, searches
        # nothing, and neither does a single restart
        restarts = 1 if d_e == 1 else config.restarts
        per_slice = max(1, _BATCH_ROWS // len(members))
        slices = range(1, restarts, per_slice)
        if slices:
            rng = np.random.default_rng(config.seed)
            search = _measure_kernel(dims + (d_e, 2), labels, kinds)
        for first in slices:
            # the next slice of starts, drawn in restart order
            starts = rng.uniform(-np.pi, np.pi, (min(per_slice, restarts - first), (2 * d_e) ** 2))
            owner = np.repeat(every, len(starts))
            res = minimize(
                _squash_value_and_grad(search, psis, owner),
                np.tile(starts, (len(members), 1)),
                max_iters=_MAX_ITERS,
                ftol=_FTOL,
                gtol=_GTOL,
            )
            for row, (j, value) in enumerate(zip(owner.tolist(), res.fun.tolist())):
                if value < best[j][0]:
                    best[j] = (value, res.x[row].tolist(), bool(res.converged[row]))
        for j, i in enumerate(members):
            best_val, params, converged = best[j]
            kind = {"trivial": True} if d_e == 1 else {"params": params}
            out[i] = SquashResult(_nonnegative(best_val), kinds[j][1][0], converged, kind)
    return out


def esq_upper_variational(
    state: MultipartiteState,
    partition: Partition,
    measure=Measure.E_SQ,
    config: SquashConfig = SquashConfig(),
) -> SquashResult:
    """Variational upper bound on the squashed entanglement of a mixed state.

    The state is purified once, a squashing channel on the purifier is
    parametrized through a Stinespring isometry, and half the conditional
    multipartite information is minimized by multi-restart L-BFGS on its
    exact gradient.  The isometry, the polar factor of a complex 2d_e x d_e
    Kraus matrix K, maps the d_e-dimensional purifier into a space of its own
    dimension and a traced-out qubit ancilla.  Restart 0 is the identity
    squashing point, scored without a search, and ``config.restarts`` counts
    it; the other restarts run as one batch, or past ``_BATCH_ROWS`` as a
    run of batches of that many, so memory does not grow with them.
    Labels the partition leaves out join the purifier.  A state pure on the
    partition's labels (as ``is_pure`` judges it), of any size, gets its
    exact value, with no search and no size cap, described as
    ``{"trivial": True}``.

    Otherwise ``extension_description["params"]`` is the best search point,
    None if none beat identity squashing: the 4 d_e^2 floats of
    ``optimize.real_point(K)``, rows of K over (E', ancilla).
    """
    measure = Measure(measure)
    _instance(config, SquashConfig, "config")
    labels, dims, psi = _reduced_purification(state, partition)
    n, d_e = psi.shape
    if d_e > 1:
        _check_size(n, d_e)
    (res,) = _squash_purified([(psi, partition, measure)], dims, labels, config)
    return res
