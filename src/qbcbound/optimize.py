"""Batched L-BFGS: independent minimizations, one per row, advanced in
lockstep.  Each row keeps its own correction pairs and Moré-Thuente line
search, so its result is the same alone or in a batch.  The squash and the
rates input search both run on ``minimize``, on ``complex_point`` layouts.
"""

import math
from dataclasses import dataclass

import numpy as np

# L-BFGS memory: correction pairs kept per row (scipy's maxcor)
_MEMORY = 10
# the line search's sufficient-decrease and curvature constants, relative
# interval width and trial cap (those of scipy's L-BFGS-B), and its step cap
_C1, _C2, _XTOL, _TRIALS = 1e-3, 0.9, 0.1, 20
_STEP_MAX = 1e10


def complex_point(params: np.ndarray, shape) -> np.ndarray:
    """The complex matrices of ``shape`` at search points ``params``, one per
    leading index: a point is the real parts, then the imaginary, row-major."""
    n = math.prod(shape)
    return (params[..., :n] + 1j * params[..., n:]).reshape(params.shape[:-1] + tuple(shape))


def real_point(z: np.ndarray) -> np.ndarray:
    """The search points of the matrices ``z``: the inverse of ``complex_point``."""
    lead = z.shape[:-2] + (-1,)
    return np.concatenate([z.real.reshape(lead), z.imag.reshape(lead)], axis=-1)


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
