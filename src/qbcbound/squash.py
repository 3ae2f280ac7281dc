"""Squashed-entanglement evaluation.

The state is reduced to the partition's labels and purified once; labels
the partition leaves out join the purifier.  A pure reduction has its exact
value (every extension of a pure state is product with it, so the infimum
is attained without conditioning), a mixed one a variational upper bound
from a parametrized squashing channel on the purifier.  Both come from
``_squash_purified``, whose entropies are read off the state vector by
``measures._pure_entropy_sums``, never off a density matrix.

Each trial squashing isometry is applied to the purifier with one
contraction, and the same pass returns the exact gradient with respect to a
free complex Kraus matrix K, whose polar factor K (K^dag K)^(-1/2) is the
isometry, into a copy of the purifier and a traced-out qubit ancilla; that
gradient drives multi-restart L-BFGS-B.

Variational results are upper bounds only: any feasible squashing channel
gives one, and we cannot certify convergence to the true infimum.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import NotPure, QbcError, SpecError, TooLarge
from .measures import _PURIFIER, _cmi_dual, _cmi_total, _pure_entropy_sums
from .partitions import Partition
from .states import MultipartiteState, _purification, partial_trace


class Measure(str, Enum):
    E_SQ = "esq"
    E_SQ_TILDE = "esq-tilde"


def minimize(fun, x0, **kw):
    """``scipy.optimize.minimize``, imported on first use, so the commands
    that never search (closed forms, exact values) do not load scipy."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kw)


def _check_count(name: str, value, least: int):
    """An integer setting, at least ``least``; bools, which would pass as 0
    or 1, and floats are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise QbcError(f"{name} must be an integer")
    if value < least:
        raise QbcError(f"{name} must be at least {least}")


# largest state dim x purifier dim the variational squash takes on
DIM_CAP = 64
# L-BFGS-B's relative-decrease stop for a squash restart
_FTOL = 1e-8
# L-BFGS-B's iteration cap for a squash restart; no search has come near it
_MAX_ITERS = 2000


@dataclass(frozen=True)
class SquashConfig:
    restarts: int = 20
    seed: int = 0

    def __post_init__(self):
        _check_count("restarts", self.restarts, 1)
        _check_count("seed", self.seed, 0)


@dataclass(frozen=True)
class SquashResult:
    value_bits: float
    measure: Measure
    converged: bool
    extension_description: dict = field(default_factory=dict)


def _half_measure(partition: Partition, measure, conditioning=()) -> dict[frozenset, float]:
    """Subset -> entropy coefficient of half the conditional multipartite
    information of ``measure`` over the blocks of ``partition``."""
    fn = _cmi_total if Measure(measure) is Measure.E_SQ else _cmi_dual
    return {s: 0.5 * c for s, c in fn(partition.blocks, conditioning).items()}


def _reduced_purification(state: MultipartiteState, partition: Partition):
    """The state on the labels of ``partition`` (``LabelNotFound`` if one is
    missing) and its purification amplitudes: the other labels join the
    purifier.  A one-block partition, whose measure is identically 0, is
    refused before any work."""
    if not partition.nontrivial:
        raise SpecError(f"partition {partition} has one block: it measures no entanglement")
    reduced = partial_trace(state, partition.ground)
    return reduced, _purification(reduced.matrix)


def esq_exact_pure(state: MultipartiteState, partition: Partition, measure=Measure.E_SQ) -> float:
    """Exact squashed entanglement for the given grouping of a state that is
    pure (as ``is_pure`` judges it) on the partition's labels."""
    reduced, psi = _reduced_purification(state, partition)
    if psi.shape[1] > 1:
        raise NotPure("exact evaluation requires a pure state on the partition's labels")
    res = _squash_purified(psi, reduced.dims, reduced.labels, partition, measure, SquashConfig())
    return res.value_bits


def esq_cq_average(flagged_states, partition: Partition, measure=Measure.E_SQ) -> float:
    """Exact value for a flagged ensemble of pure states: the probability-
    weighted average of the per-component pure-state values."""
    probs = [p for p, _ in flagged_states]
    # written so that NaN, for which every comparison is false, fails it
    if not all(p >= 0 for p in probs):
        raise QbcError("probabilities must be non-negative")
    if abs(sum(probs) - 1.0) > 1e-9:
        raise QbcError("probabilities must sum to 1")
    total = 0.0
    for p, st in flagged_states:
        total += p * esq_exact_pure(st, partition, measure)
    return total


# least ratio of a Kraus matrix's smallest to largest singular value; V^dag V
# then misses 1 by at most about machine epsilon / floor^2, 2e-8
_RANK_FLOOR = 1e-4
# L-BFGS-B's gradient stop: gradients in K are about 1/sigma(K), 1/3 to 1/17 at
# the draws, of those on the isometries, so scipy's 1e-5 would stop too early
_GTOL = 1e-6


def _isometry_and_pullback(params: np.ndarray, d_e: int):
    """The polar factor V = K (K^dag K)^(-1/2) of the 2d_e x d_e Kraus matrix
    K = params[:2d_e^2] + i params[2d_e^2:] (row-major, rows over E' and then
    a qubit ancilla), and the map from a gradient with respect to conj(V) to
    one with respect to params.

    Both come from one eigendecomposition S = K^dag K = Q diag(r^2) Q^dag:
    P = S^(-1/2) = Q diag(1/r) Q^dag, and dP = Q (F o (Q^dag dS Q)) Q^dag with
    the divided differences F_jk = -1 / (r_j r_k (r_j + r_k)) of s^(-1/2),
    exact at ties.  A K below the rank floor raises QbcError, so V is never
    NaN and always an isometry.
    """
    n = 2 * d_e * d_e
    k = (params[:n] + 1j * params[n:]).reshape(2 * d_e, d_e)
    s, q = np.linalg.eigh(k.conj().T @ k)
    # written so that NaN, for which every comparison is false, fails it
    if not s[0] > _RANK_FLOOR**2 * s[-1]:
        raise QbcError("squashing Kraus matrix is (numerically) rank-deficient")
    r = np.sqrt(s)
    qh = q.conj().T
    p = (q / r) @ qh
    v = k @ p

    def pullback(g_v: np.ndarray) -> np.ndarray:
        f = -1.0 / (r[:, None] * r[None, :] * (r[:, None] + r[None, :]))
        m = q @ (f * (qh @ g_v.conj().T @ k @ q)) @ qh
        g_k = g_v @ p + k @ (m + m.conj().T)
        return 2 * np.concatenate([g_k.real.ravel(), g_k.imag.ravel()])

    return v, pullback


def _measure_kernel(shape, labels, partition: Partition, measures):
    """``evaluate(psi) -> (values, grad)`` of half of each of ``measures`` over
    ``partition`` conditioned on a purifier, on a pure tensor of ``shape``: one
    axis per label, the purifier's, then unlabeled axes (``_pure_entropy_sums``)."""
    forms = [_half_measure(partition, m, (_PURIFIER,)) for m in measures]
    return _pure_entropy_sums(shape, labels + (_PURIFIER,), forms)


def _squash_value_and_grad(psi, dims, labels, partition, measure):
    """params -> (value, gradient) of half the measure of (1 (x) V) psi[i, e]
    (i over ``labels`` of ``dims``) conditioned on the squash output E', V the
    isometry of ``_isometry_and_pullback(params)`` into E' (x) a traced-out
    qubit ancilla, E' of the purifier's dimension; K|e> = |e>|0> squashes nothing."""
    d_e = psi.shape[1]
    shape = dims + (d_e, 2)
    evaluate = _measure_kernel(shape, labels, partition, [measure])
    psi_conj = psi.conj()

    def value_and_grad(params):
        v, pullback = _isometry_and_pullback(params, d_e)
        (value,), grad = evaluate(psi.dot(v.T).reshape(shape))
        return float(value), pullback(grad(0).reshape(-1, 2 * d_e).T @ psi_conj)

    return value_and_grad


def _squash_purified(psi: np.ndarray, dims, labels, partition, measure, config) -> SquashResult:
    """Variational squash of the state with purification amplitudes psi[i, e]
    (i over ``labels`` of ``dims``, e over the state's support): half the
    measure conditioned on a squashed purifier, minimized by multi-restart
    L-BFGS-B.  Restart 0 is the identity squashing point, a stationary point
    scored without a search; restarts 1, 2, ... start from random Kraus
    matrices.  Exact when e has one value."""
    measure = Measure(measure)
    d_e = psi.shape[1]
    # the untouched purifier (identity squashing)
    shape = dims + (d_e,)
    evaluate = _measure_kernel(shape, labels, partition, [measure])
    identity = float(evaluate(psi.reshape(shape))[0][0])
    if d_e == 1:
        # pure state: no extension can lower the objective
        return SquashResult(identity, measure, True, {"trivial": True})
    if config.restarts == 1:
        # identity squashing is the only start: no search, no squash kernel
        return SquashResult(identity, measure, True, {"params": None})

    value_and_grad = _squash_value_and_grad(psi, dims, labels, partition, measure)

    rng = np.random.default_rng(config.seed)
    npar = (2 * d_e) ** 2
    best_val, best_params, converged = identity, None, True
    for _ in range(1, config.restarts):
        res = minimize(
            value_and_grad,
            rng.uniform(-np.pi, np.pi, npar),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": _MAX_ITERS, "ftol": _FTOL, "gtol": _GTOL},
        )
        if res.fun < best_val:
            best_val = float(res.fun)
            best_params = res.x
            converged = bool(res.success)
    return SquashResult(
        best_val,
        measure,
        converged,
        {"params": None if best_params is None else best_params.tolist()},
    )


def esq_upper_variational(
    state: MultipartiteState,
    partition: Partition,
    measure=Measure.E_SQ,
    config: SquashConfig = SquashConfig(),
) -> SquashResult:
    """Variational upper bound on the squashed entanglement of a mixed state.

    The state is purified once, a squashing channel on the purifier is
    parametrized through a Stinespring isometry, and half the conditional
    multipartite information is minimized by multi-restart L-BFGS-B on its
    exact gradient.  The isometry, the polar factor of a complex 2d_e x d_e
    Kraus matrix K, maps the d_e-dimensional purifier into a space of its own
    dimension and a traced-out qubit ancilla.  Restart 0 is the identity
    squashing point, scored without a search, and ``config.restarts`` counts
    it.  Labels the partition leaves out join the purifier.  A state pure on
    the partition's labels (as ``is_pure`` judges it), of any size, gets its
    exact value, with no search and no size cap, described as
    ``{"trivial": True}``.

    Otherwise ``extension_description["params"]`` is the best search point,
    None if none beat identity squashing: the 4 d_e^2 floats of the real and
    then the imaginary parts of K, row-major, rows over (E', ancilla).
    """
    reduced, psi = _reduced_purification(state, partition)
    d_e = psi.shape[1]
    if d_e > 1 and reduced.dim * d_e > DIM_CAP:
        raise TooLarge(
            f"state dim {reduced.dim} x squash output dim {d_e} exceeds cap {DIM_CAP}"
        )
    return _squash_purified(psi, reduced.dims, reduced.labels, partition, measure, config)
