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
gradient drives ``minimize``, an L-BFGS that advances a batch of independent
searches in lockstep: every random restart of every squash problem that
shares a purifier dimension is one row of one batch, evaluated together.

Variational results are upper bounds only: any feasible squashing channel
gives one, and we cannot certify convergence to the true infimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import NotPure, QbcError, SpecError, TooLarge
from .measures import _PURIFIER, _cmi_dual, _cmi_total, _pure_entropy_sums
from .partitions import Partition
from .states import MultipartiteState, _check_count, _marginal, _purification


class Measure(str, Enum):
    E_SQ = "esq"
    E_SQ_TILDE = "esq-tilde"


# L-BFGS memory: correction pairs kept per row (scipy's maxcor)
_MEMORY = 10
# the line search's sufficient-decrease and curvature constants, relative
# interval width and trial cap (those of scipy's L-BFGS-B), and its step cap
_C1, _C2, _XTOL, _TRIALS = 1e-3, 0.9, 0.1, 20
_STEP_MAX = 1e10


def _cubic_gamma(theta: float, a: float, b: float) -> float:
    """sqrt(theta^2 - a b), scaled against overflow (0 where rounding makes
    the radicand negative)."""
    s = max(abs(theta), abs(a), abs(b))
    return s * math.sqrt(max(0.0, (theta / s) * (theta / s) - (a / s) * (b / s)))


def _cubic_step(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2's dcstep: a safeguarded cubic or quadratic step from the
    interval [stx, sty] and the trial stp, and the updated interval."""
    opposite = (dp < 0 < dx) or (dx < 0 < dp)
    if fp > fx:
        # higher value: the minimum is bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, dx, dp) * (-1.0 if stp < stx else 1.0)
        r = ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp)
        stpc = stx + r * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) <= abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:
        # lower value, derivatives of opposite sign: bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, dx, dp) * (-1.0 if stp > stx else 1.0)
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx)
        stpc = stp + r * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # lower value, same sign, the derivative falls in magnitude
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, dx, dp) * (-1.0 if stp > stx else 1.0)
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = stpmax if stp > stx else stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            bound = stp + 0.66 * (sty - stp)
            stpf = min(bound, stpf) if stp > stx else max(bound, stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = min(max(stpf, stpmin), stpmax)
    elif brackt:
        # lower value, same sign, the derivative does not fall
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        gamma = _cubic_gamma(theta, dy, dp) * (-1.0 if stp > sty else 1.0)
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy)
        stpf = stp + r * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


class _LineSearch:
    """One Moré-Thuente line search (MINPACK-2's dcsrch, as scipy's L-BFGS-B
    runs it) from value ``f0`` and slope ``g0`` < 0 at step 0: ``next``
    takes the value and slope at the trial step and returns the next trial,
    or None when the trial ends the search.  A trial ends it when it meets
    the strong Wolfe conditions, or when rounding leaves the bracket no room."""

    __slots__ = ("stage", "brackt", "finit", "ginit", "gtest", "width", "width1",
                 "stx", "fx", "gx", "sty", "fy", "gy", "stmin", "stmax")

    def __init__(self, f0: float, g0: float, stp: float):
        self.stage, self.brackt = 1, False
        self.finit = self.fx = self.fy = f0
        self.ginit = self.gx = self.gy = g0
        self.gtest = _C1 * g0
        self.width, self.width1 = _STEP_MAX, 2 * _STEP_MAX
        self.stx = self.sty = 0.0
        self.stmin, self.stmax = 0.0, 5.0 * stp

    def next(self, stp: float, f: float, g: float):
        ftest = self.finit + stp * self.gtest
        if self.stage == 1 and f <= ftest and g >= 0:
            self.stage = 2
        if self.brackt and (
            stp <= self.stmin or stp >= self.stmax or self.stmax - self.stmin <= _XTOL * self.stmax
        ):
            return None
        if stp == _STEP_MAX and f <= ftest and g <= self.gtest:
            return None
        if stp == 0.0 and (f > ftest or g >= self.gtest):
            return None
        if f <= ftest and abs(g) <= _C2 * -self.ginit:
            return None
        args = self.stx, self.fx, self.gx, self.sty, self.fy, self.gy
        if self.stage == 1 and self.fx >= f > ftest:
            # a lower value without sufficient decrease: step on the
            # modified function f(stp) - stp * gtest
            t = self.gtest
            stx, fx, gx, sty, fy, gy = args
            stx, fx, gx, sty, fy, gy, stp, self.brackt = _cubic_step(
                stx, fx - stx * t, gx - t, sty, fy - sty * t, gy - t,
                stp, f - stp * t, g - t, self.brackt, self.stmin, self.stmax,
            )
            fx, fy, gx, gy = fx + stx * t, fy + sty * t, gx + t, gy + t
        else:
            stx, fx, gx, sty, fy, gy, stp, self.brackt = _cubic_step(
                *args, stp, f, g, self.brackt, self.stmin, self.stmax
            )
        self.stx, self.fx, self.gx, self.sty, self.fy, self.gy = stx, fx, gx, sty, fy, gy
        if self.brackt:
            if abs(sty - stx) >= 0.66 * self.width1:
                stp = stx + 0.5 * (sty - stx)
            self.width1, self.width = self.width, abs(sty - stx)
            self.stmin, self.stmax = min(stx, sty), max(stx, sty)
        else:
            self.stmin, self.stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), _STEP_MAX)
        if self.brackt and (
            stp <= self.stmin or stp >= self.stmax or self.stmax - self.stmin <= _XTOL * self.stmax
        ):
            # no further progress: try the best step so far once more
            stp = stx
        return stp


@dataclass(frozen=True)
class SearchResult:
    """Per row: the last point ``x``, its value ``fun`` and gradient ``jac``,
    and whether the row stopped by its own rule (``converged``).  Over all
    rows: ``nfev`` row evaluations, ``nit`` row iterations, and ``success``,
    true when every row converged."""

    x: np.ndarray
    fun: np.ndarray
    jac: np.ndarray
    converged: np.ndarray
    nfev: int
    nit: int
    success: bool


def _two_loop(g, s, y, rho, gamma, depth):
    """The L-BFGS direction -H g of each row, H from the row's correction
    pairs (newest last; unused slots are zero and change nothing) and the
    initial scaling gamma = s.y / y.y of its newest pair."""
    q = g.copy()
    alpha = np.zeros((len(g), _MEMORY))
    for i in range(_MEMORY - 1, _MEMORY - 1 - depth, -1):
        alpha[:, i] = rho[:, i] * (s[:, i] * q).sum(axis=1)
        q -= alpha[:, i, None] * y[:, i]
    q *= gamma[:, None]
    for i in range(_MEMORY - depth, _MEMORY):
        beta = rho[:, i] * (y[:, i] * q).sum(axis=1)
        q += (alpha[:, i] - beta)[:, None] * s[:, i]
    return -q


def minimize(fun, x0, *, max_iters: int, ftol: float = 0.0, gtol: float = 0.0, stop=None):
    """Minimize independent problems, one per row of ``x0``, by L-BFGS in
    lockstep (Liu and Nocedal, Math. Prog. 45, 1989).

    ``fun(x, rows) -> (values, grads)`` evaluates the points ``x[i]`` of
    problems ``rows[i]``; each round calls it once, on every row that needs
    a point.  Each row keeps ``_MEMORY`` correction pairs and runs its own
    Moré-Thuente line search (ACM TOMS 20, 1994) with the constants of
    scipy's L-BFGS-B, the first step along steepest descent of length 1.
    A row converges when ``stop(x, grads, rows)`` holds at a point it
    evaluated (that point is its result), when an iteration lowers its value
    by at most ``ftol`` relative to it, or when its largest gradient entry is
    at most ``gtol``.  It ends unconverged after ``max_iters`` iterations, or
    when a line search from steepest descent fails; a line search that fails
    after a quasi-Newton step drops the row's pairs and starts again.  Each
    row's arithmetic is its own, so its search is the same alone or in a
    batch.  Returns a ``SearchResult``.
    """
    x = np.array(x0, dtype=float)
    n_rows, n = x.shape
    rows = np.arange(n_rows)
    f, g = fun(x, rows)
    nfev = n_rows
    converged = np.zeros(n_rows, dtype=bool)
    if stop is not None:
        converged |= stop(x, g, rows)
    converged |= np.max(np.abs(g), axis=1) <= gtol
    done = converged.copy()
    s_mem = np.zeros((n_rows, _MEMORY, n))
    y_mem = np.zeros((n_rows, _MEMORY, n))
    rho = np.zeros((n_rows, _MEMORY))
    gamma = np.ones(n_rows)
    depth = np.zeros(n_rows, dtype=int)
    iters = np.zeros(n_rows, dtype=int)
    direction = np.zeros((n_rows, n))
    slope0 = np.zeros(n_rows)
    step = np.zeros(n_rows)
    trials = np.zeros(n_rows, dtype=int)
    searches: list = [None] * n_rows
    fresh = ~done

    def forget(r):
        s_mem[r], y_mem[r], rho[r], gamma[r], depth[r] = 0.0, 0.0, 0.0, 1.0, 0

    while True:
        r = np.flatnonzero(fresh)
        if r.size:
            # a new line search on every row that needs one
            d = _two_loop(g[r], s_mem[r], y_mem[r], rho[r], gamma[r], int(depth[r].max()))
            slope = (g[r] * d).sum(axis=1)
            uphill = slope >= 0
            if uphill.any():
                # rounding spoiled the quasi-Newton direction: steepest descent
                forget(r[uphill])
                d[uphill] = -g[r[uphill]]
                slope[uphill] = -(g[r[uphill]] ** 2).sum(axis=1)
            direction[r], slope0[r], trials[r] = d, slope, 0
            step[r] = np.where(depth[r] == 0, 1.0 / np.linalg.norm(d, axis=1), 1.0)
            for i in r.tolist():
                searches[i] = _LineSearch(float(f[i]), float(slope0[i]), float(step[i]))
            fresh[:] = False
        r = np.flatnonzero(~done)
        if not r.size:
            break
        x_try = x[r] + step[r, None] * direction[r]
        f_try, g_try = fun(x_try, r)
        nfev += r.size
        trials[r] += 1
        if stop is not None:
            hit = stop(x_try, g_try, r)
            if hit.any():
                i = r[hit]
                x[i], f[i], g[i] = x_try[hit], f_try[hit], g_try[hit]
                converged[i] = done[i] = True
                keep = ~hit
                r, x_try, f_try, g_try = r[keep], x_try[keep], f_try[keep], g_try[keep]
        slopes = (g_try * direction[r]).sum(axis=1).tolist()
        accept = np.zeros(r.size, dtype=bool)
        for j, (i, value) in enumerate(zip(r.tolist(), f_try.tolist())):
            # Python floats throughout, so a zero divisor raises
            try:
                nxt = searches[i].next(float(step[i]), value, slopes[j])
            except ZeroDivisionError:
                nxt = math.nan
            if nxt is None:
                accept[j] = True
            elif math.isfinite(nxt):
                step[i] = nxt
            else:
                # rounding left the trial step undefined: the search fails
                trials[i] = _TRIALS
        failed = r[~accept & (trials[r] >= _TRIALS)]
        if failed.size:
            # the row keeps its last point: it stops if the search followed
            # steepest descent, and starts afresh from it otherwise
            done[failed[depth[failed] == 0]] = True
            failed = failed[depth[failed] > 0]
            forget(failed)
            fresh[failed] = True
        i = r[accept]
        if i.size:
            s_new = x_try[accept] - x[i]
            y_new = g_try[accept] - g[i]
            f_old = f[i]
            x[i], f[i], g[i] = x_try[accept], f_try[accept], g_try[accept]
            iters[i] += 1
            ok = (f_old - f[i] <= ftol * np.maximum(np.maximum(abs(f_old), abs(f[i])), 1.0)) | (
                np.max(np.abs(g[i]), axis=1) <= gtol
            )
            converged[i] |= ok
            done[i] |= ok | (iters[i] >= max_iters)
            sy = (s_new * y_new).sum(axis=1)
            # skip a pair without positive curvature, as L-BFGS-B does
            keep = (sy > np.finfo(float).eps * -slope0[i] * step[i]) & ~done[i]
            u = i[keep]
            if u.size:
                s_mem[u, :-1], y_mem[u, :-1], rho[u, :-1] = s_mem[u, 1:], y_mem[u, 1:], rho[u, 1:]
                s_mem[u, -1], y_mem[u, -1] = s_new[keep], y_new[keep]
                rho[u, -1] = 1.0 / sy[keep]
                gamma[u] = sy[keep] / (y_new[keep] ** 2).sum(axis=1)
                depth[u] = np.minimum(depth[u] + 1, _MEMORY)
            fresh[i[~done[i]]] = True
    return SearchResult(
        x, f, g, converged, int(nfev), int(iters.sum()), bool(converged.all())
    )


# largest state dim x purifier dim the variational squash takes on
DIM_CAP = 64
# the squash's relative-decrease stop
_FTOL = 1e-8
# the squash's iteration cap per restart; no search has come near it
_MAX_ITERS = 2000
# most rows in one squash batch: larger restart counts run in slices, so
# memory does not grow with the number of restarts
_BATCH_ROWS = 256


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


def _reduced_purification(state: MultipartiteState, partition: Partition):
    """The labels and dims of ``partition`` on the state (``LabelNotFound`` if
    one is missing) and the purification amplitudes of its marginal there:
    the other labels join the purifier.  A one-block partition, whose
    measure is identically 0, is refused before any work."""
    if not partition.nontrivial:
        raise SpecError(f"partition {partition} has one block: it measures no entanglement")
    matrix, labels, dims = _marginal(state, partition.ground)
    return labels, dims, _purification(matrix)


def esq_exact_pure(state: MultipartiteState, partition: Partition, measure=Measure.E_SQ) -> float:
    """Exact squashed entanglement for the given grouping of a state that is
    pure (as ``is_pure`` judges it) on the partition's labels."""
    labels, dims, psi = _reduced_purification(state, partition)
    if psi.shape[1] > 1:
        raise NotPure("exact evaluation requires a pure state on the partition's labels")
    (res,) = _squash_purified([(psi, partition, measure)], dims, labels, SquashConfig())
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
# the squash's gradient stop: gradients in K are about 1/sigma(K), 1/3 to
# 1/17 at the draws, of those on the isometries, so 1e-5 would stop too early
_GTOL = 1e-6


def _isometry_and_pullback(params: np.ndarray, d_e: int):
    """The polar factors V = K (K^dag K)^(-1/2) of 2d_e x d_e Kraus matrices
    K = params[..., :2d_e^2] + i params[..., 2d_e^2:] (row-major, rows over E'
    and then a qubit ancilla), one per leading index of ``params``, and the
    map from gradients with respect to conj(V) to ones with respect to params.

    Both come from one eigendecomposition S = K^dag K = Q diag(r^2) Q^dag:
    P = S^(-1/2) = Q diag(1/r) Q^dag, and dP = Q (F o (Q^dag dS Q)) Q^dag with
    the divided differences F_jk = -1 / (r_j r_k (r_j + r_k)) of s^(-1/2),
    exact at ties.  A K below the rank floor raises QbcError, so V is never
    NaN and always an isometry.
    """
    n = 2 * d_e * d_e
    k = (params[..., :n] + 1j * params[..., n:]).reshape(params.shape[:-1] + (2 * d_e, d_e))
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
        g_k = g_v @ p + k @ (m + m.conj().swapaxes(-1, -2))
        lead = g_k.shape[:-2] + (-1,)
        return 2 * np.concatenate([g_k.real.reshape(lead), g_k.imag.reshape(lead)], axis=-1)

    return v, pullback


def _measure_kernel(shape, labels, problems):
    """``evaluate(psi, rows) -> (values, grad)`` of half of each measure of
    every problem, a (partition, measures) pair, over its partition
    conditioned on a purifier, on flat stacks of pure states over ``shape``
    (one index per label, the purifier's, then unlabeled ones)."""
    fns = {Measure.E_SQ: _cmi_total, Measure.E_SQ_TILDE: _cmi_dual}
    forms = [
        [{s: 0.5 * c for s, c in fns[Measure(m)](p.blocks, (_PURIFIER,)).items()} for m in measures]
        for p, measures in problems
    ]
    return _pure_entropy_sums(shape, labels + (_PURIFIER,), forms)


def _squash_value_and_grad(psis, dims, labels, problems, owner):
    """(params, rows) -> (values, gradients): row i of ``params`` squashes the
    purification amplitudes ``psis[p][j, e]`` (j over ``labels`` of ``dims``)
    of problem p = ``owner[rows[i]]``, a (partition, [measure]) pair, and its
    value is half that measure of (1 (x) V) psis[p] conditioned on the squash
    output E'; V is the isometry of ``_isometry_and_pullback`` into E' (x) a
    traced-out qubit ancilla, E' of the purifier's dimension, and K|e> =
    |e>|0> squashes nothing."""
    d_e = psis.shape[-1]
    evaluate = _measure_kernel(dims + (d_e, 2), labels, problems)
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
    same purifier dimension is one row of one ``minimize`` batch, or, past
    ``_BATCH_ROWS`` rows, of one of a run of batches over successive slices
    of the restarts.  Exact when e has one value."""
    out: list = [None] * len(problems)
    by_dim: dict[int, list[int]] = {}
    for i, (psi, _, _) in enumerate(problems):
        by_dim.setdefault(psi.shape[1], []).append(i)
    for d_e, members in by_dim.items():
        psis = np.stack([problems[i][0] for i in members])
        kinds = [(problems[i][1], [Measure(problems[i][2])]) for i in members]
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
        rng = np.random.default_rng(config.seed) if slices else None
        for first in slices:
            # the next slice of starts, drawn in restart order
            starts = rng.uniform(-np.pi, np.pi, (min(per_slice, restarts - first), (2 * d_e) ** 2))
            owner = np.repeat(every, len(starts))
            res = minimize(
                _squash_value_and_grad(psis, dims, labels, kinds, owner),
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
            out[i] = SquashResult(best_val, kinds[j][1][0], converged, kind)
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
    it; the other restarts run as one batch (in slices of ``_BATCH_ROWS``).
    Labels the partition leaves out join the purifier.  A state pure on the
    partition's labels (as ``is_pure`` judges it), of any size, gets its
    exact value, with no search and no size cap, described as
    ``{"trivial": True}``.

    Otherwise ``extension_description["params"]`` is the best search point,
    None if none beat identity squashing: the 4 d_e^2 floats of the real and
    then the imaginary parts of K, row-major, rows over (E', ancilla).
    """
    labels, dims, psi = _reduced_purification(state, partition)
    n, d_e = psi.shape
    if d_e > 1 and n * d_e > DIM_CAP:
        raise TooLarge(f"state dim {n} x squash output dim {d_e} exceeds cap {DIM_CAP}")
    (res,) = _squash_purified([(psi, partition, measure)], dims, labels, config)
    return res
