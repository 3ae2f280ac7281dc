"""Closed-form squashed-entanglement bounds for the pure-loss bosonic
broadcast channel.

A beamsplitter network sends a fraction eta_i of the input light to
receiver i and the remainder to the environment.  Squashing the
environment with another beamsplitter of transmissivity x yields bounds
expressed through the thermal-state entropy g; taking the mean photon
number to infinity gives photon-number independent logarithmic bounds,
minimized over x by solving a stationarity equation with bisection.

No covariance-matrix simulation happens here: all entropies come from the
closed forms.

Every photon-number independent formula (the stationarity gap, its
bisection, the asymptotic bound and the bipartite-cut bound) has one
implementation, over arrays of shape (receivers, columns) in which each
column is one channel.  ``theorem3_columns`` evaluates a whole sweep grid
at once: it validates every column before the first bisection step, then
bisects all columns together, each column taking the same steps as a lone
bisection would.  The scalar entry points (``optimal_eta_star``,
``asymptotic_bound``, ``theorem3_report``) are one-column calls into the
same code.  Logarithms and squares are taken per element with Python's
``math.log2`` and ``**``, whose last bits NumPy's vector kernels do not
always reproduce, so a one-column call returns the same bits as a plain
loop over Python floats (the tests keep such a loop as the reference).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, QbcError, RootError

_BISECT_LO = 1e-9
_BISECT_TOL = 1e-12


@dataclass(frozen=True)
class BosonicBroadcastSpec:
    """Transmission coefficients eta_i per receiver, optional photon budget."""

    etas: tuple[float, ...]
    mean_photon: float | None = None

    def __post_init__(self):
        etas = tuple(float(e) for e in self.etas)
        object.__setattr__(self, "etas", etas)
        if not etas:
            raise QbcError("at least one receiver required")
        _check_etas(_column(self))
        if self.mean_photon is not None and not 0 <= self.mean_photon < math.inf:
            raise DomainError("mean photon number must be finite and nonnegative")

    @property
    def eta_total(self) -> float:
        return float(_eta_total(_column(self))[0])


@dataclass(frozen=True)
class BosonicBoundReport:
    bound_b_cut: float
    bound_c_cut: float
    bound_bc_cut: float
    tripartite_bound: float
    tripartite_bound_as_printed: float
    eta_star: float
    finite_ns: dict | None = field(default=None)


def _column(spec: BosonicBroadcastSpec) -> np.ndarray:
    """The spec's transmission coefficients as a (receivers, 1) array."""
    return np.array(spec.etas, dtype=float)[:, None]


def _eta_sum(etas: np.ndarray) -> np.ndarray:
    """Column sums, added in receiver order as Python's ``sum`` adds them."""
    total = np.zeros(etas.shape[1])
    for ei in etas:
        total += ei
    return total


def _eta_total(etas: np.ndarray) -> np.ndarray:
    return np.minimum(1.0, _eta_sum(etas))


def _check_etas(etas: np.ndarray) -> None:
    """Raise the spec's ``DomainError`` for the first out-of-domain column.

    Within a column the sign check comes before the total check; both are
    written so that NaN, for which every comparison is false, fails them.
    """
    negative = ~(etas >= 0).all(axis=0)
    # quiet like Python floats: a sum past the largest float is inf, and
    # inf + -inf (NaN) sits in a column that is already negative
    with np.errstate(over="ignore", invalid="ignore"):
        excess = ~(_eta_sum(etas) <= 1 + 1e-12)
    bad = negative | excess
    if bad.any():
        if negative[np.argmax(bad)]:
            raise DomainError("transmission coefficients must be finite and nonnegative")
        raise DomainError("total transmissivity exceeds 1")


def _log2(a: np.ndarray) -> np.ndarray:
    # math.log2, not np.log2: the two differ in the last ulp on some arguments
    return np.fromiter(map(math.log2, a.tolist()), float, a.size)


def _square(a: np.ndarray) -> np.ndarray:
    # the C library's pow, as Python's ``a ** 2`` takes it, not a * a: they
    # differ in the last ulp on about one argument in a thousand, and a
    # bisection step can turn on that bit
    return np.fromiter(map(math.pow, a.tolist(), itertools.repeat(2.0)), float, a.size)


def g(x: float) -> float:
    """Entropy in bits of a thermal state with mean photon number x."""
    if x < 0:
        raise DomainError("mean photon number must be nonnegative")
    if x == 0:
        return 0.0
    return (x + 1) * math.log2(x + 1) - x * math.log2(x)


def _pairings(x, measure: str):
    """Per-receiver and collective squashing fractions for each measure.

    For the direct measure each receiver is paired with the retained
    environment fraction x and the collective term with 1 - x; the dual
    measure swaps the pairing.  ``x`` is a float or an array.
    """
    if measure in ("esq", "E_sq"):
        return x, 1.0 - x
    if measure in ("esq-tilde", "E_sq_tilde"):
        return 1.0 - x, x
    raise QbcError(f"unknown measure {measure!r}")


def finite_ns_bound(spec: BosonicBroadcastSpec, eta_eprime: float, measure="esq") -> float:
    """Photon-number dependent upper bound (bits) at squashing transmissivity
    eta_eprime, using the g-entropy closed forms."""
    if spec.mean_photon is None:
        raise DomainError("spec has no mean photon number")
    if not 0.0 <= eta_eprime <= 1.0:
        raise DomainError("eta_eprime must lie in [0, 1]")
    ns = spec.mean_photon
    eta = spec.eta_total
    xr, xc = _pairings(eta_eprime, measure)
    total = 0.0
    for ei in spec.etas:
        total += g((ei + (1 - eta) * xr) * ns) - g((1 - eta) * xr * ns)
    total += g((eta + (1 - eta) * xc) * ns) - g((1 - eta) * xc * ns)
    return 0.5 * total


def _asymptotic_bound(etas: np.ndarray, x: np.ndarray, measure: str) -> np.ndarray:
    """Photon-number independent bound of each column at squashing
    transmissivity x[column]; +inf where it diverges."""
    xr, xc = _pairings(x, measure)
    eta = _eta_total(etas)
    diverges = (eta >= 1.0) | ((eta > 0) & (xc == 0))
    for ei in etas:
        diverges |= (ei > 0) & (xr == 0)
    total = np.zeros(etas.shape[1])
    # (1 - eta) * x underflows to 0 for x within a few ulps of 0, where the
    # bound diverges as it does at 0: the quotient's inf is the right answer
    with np.errstate(divide="ignore"):
        for ei in etas:
            on = ~diverges & (ei > 0)
            total[on] += _log2(ei[on] / ((1 - eta[on]) * xr[on]) + 1)
        on = ~diverges & (eta > 0)
        total[on] += _log2(eta[on] / ((1 - eta[on]) * xc[on]) + 1)
    return np.where(diverges, math.inf, 0.5 * total)


def asymptotic_bound(spec: BosonicBroadcastSpec, eta_eprime: float, measure="esq") -> float:
    """Photon-number independent upper bound (bits); +inf when it diverges."""
    if not 0.0 <= eta_eprime <= 1.0:
        raise DomainError("eta_eprime must lie in [0, 1]")
    return float(_asymptotic_bound(_column(spec), np.array([float(eta_eprime)]), measure)[0])


def _stationarity_gap(etas: np.ndarray, eta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Derivative condition of the direct-measure bound, per column at x; a
    receiver with eta_i = 0 adds nothing."""
    lhs = np.zeros(x.shape)
    for ei in etas:
        on = ei > 0
        lhs += np.where(on, 1.0 / (x * x * (1 - eta) / np.where(on, ei, 1.0) + x), 0.0)
    return lhs - 1.0 / (_square(1 - x) * (1 - eta) / eta + (1 - x))


def _bisect_eta_star(etas: np.ndarray) -> np.ndarray:
    """Root of the stationarity gap in each column, by bisection.

    Each column keeps its own bracket and stops on its own width test, so it
    takes the same steps as a bisection of that column alone.  Every column
    needs some eta_i > 0.
    """
    eta = _eta_total(etas)
    lo = np.full(etas.shape[1], _BISECT_LO)
    hi = np.full(etas.shape[1], 1.0 - _BISECT_LO)
    # Python floats overflow to inf without a word; so do these
    with np.errstate(over="ignore"):
        flo = _stationarity_gap(etas, eta, lo)
        if np.any(flo * _stationarity_gap(etas, eta, hi) > 0):
            raise RootError("stationarity equation has no sign change in (0, 1)")
        active = hi - lo > _BISECT_TOL
        while active.any():
            mid = 0.5 * (lo + hi)
            fm = _stationarity_gap(etas, eta, mid)
            left = flo * fm <= 0
            hi = np.where(active & left, mid, hi)
            lo = np.where(active & ~left, mid, lo)
            flo = np.where(active & ~left, fm, flo)
            active = hi - lo > _BISECT_TOL
    return 0.5 * (lo + hi)


def optimal_eta_star(spec: BosonicBroadcastSpec) -> float:
    """Squashing transmissivity minimizing the direct-measure asymptotic
    bound, found by bisection of the stationarity equation."""
    if all(e == 0 for e in spec.etas):
        raise RootError("no light reaches any receiver")
    return float(_bisect_eta_star(_column(spec))[0])


def _bipartite_cut_bound(eta_to: np.ndarray, eta_away: np.ndarray) -> np.ndarray:
    """log2((1 + eta_to - eta_away) / (1 - eta_to - eta_away)), the
    asymptotic bipartite-cut bound at squashing transmissivity 1/2, per
    element; +inf where the denominator is not positive."""
    denom = 1.0 - eta_to - eta_away
    out = np.full(denom.shape, math.inf)
    ok = denom > 0
    out[ok] = _log2((1.0 + eta_to[ok] - eta_away[ok]) / denom[ok])
    return out


def effective_single_receiver(eta_to: float, eta_away: float) -> BosonicBroadcastSpec:
    """Single-receiver spec equivalent to a bipartite cut in which the
    eta_away fraction is held by the trusted sender side."""
    if eta_away >= 1.0:
        raise DomainError("trusted fraction must be below 1")
    return BosonicBroadcastSpec((eta_to / (1.0 - eta_away),))


def _has_stationary_point(etas: np.ndarray) -> np.ndarray:
    """Columns whose tripartite bound is minimised at a root of the
    stationarity gap: light reaches some receiver and the total is below 1.
    Elsewhere the bound is 0 or inf whatever the squashing, and eta* is
    reported as 1/2."""
    return (_eta_total(etas) < 1.0) & (etas != 0).any(axis=0)


def _theorem3_columns(etas: np.ndarray, eta_star: np.ndarray) -> dict[str, np.ndarray]:
    """The bound fields of ``BosonicBoundReport`` for each (eta_b, eta_c)
    column at its squashing transmissivity eta_star[column]."""
    eta_b, eta_c = etas
    return {
        "bound_b_cut": _bipartite_cut_bound(eta_b, eta_c),
        "bound_c_cut": _bipartite_cut_bound(eta_c, eta_b),
        "bound_bc_cut": _bipartite_cut_bound(eta_b + eta_c, np.zeros_like(eta_b)),
        "tripartite_bound": _asymptotic_bound(etas, eta_star, "esq"),
        "tripartite_bound_as_printed": _asymptotic_bound(etas, eta_star, "esq-tilde"),
        "eta_star": eta_star,
    }


def theorem3_columns(eta_b, eta_c) -> dict[str, np.ndarray]:
    """``theorem3_report`` without photon numbers, over arrays of eta_b and
    eta_c that broadcast together (flattened to one dimension): one array
    per bound field of ``BosonicBoundReport``.

    Every pair is validated, with the error ``BosonicBroadcastSpec`` raises
    for the first bad pair, before any bisection starts.
    """
    etas = np.array(np.broadcast_arrays(eta_b, eta_c), dtype=float).reshape(2, -1)
    _check_etas(etas)
    eta_star = np.full(etas.shape[1], 0.5)
    live = _has_stationary_point(etas)
    eta_star[live] = _bisect_eta_star(etas[:, live])
    return _theorem3_columns(etas, eta_star)


def theorem3_report(
    eta_b: float, eta_c: float, mean_photon: float | None = None
) -> BosonicBoundReport:
    """All two-receiver bounds for transmissivities (eta_b, eta_c).

    ``tripartite_bound`` is the true minimum over the squashing
    transmissivity (direct-measure pairing at the stationary point);
    ``tripartite_bound_as_printed`` pairs the same stationary point with the
    mirrored arrangement, which is a larger but still valid bound.  Both are
    reported.
    """
    spec = BosonicBroadcastSpec((eta_b, eta_c), mean_photon)
    etas = _column(spec)
    eta = spec.eta_total
    eta_star = optimal_eta_star(spec) if _has_stationary_point(etas)[0] else 0.5
    bounds = {k: float(v[0]) for k, v in _theorem3_columns(etas, np.array([eta_star])).items()}
    finite = None
    if mean_photon is not None and eta < 1.0:
        def cut_ns(eta_to, eta_away):
            if eta_to == 0:
                return 0.0
            eff = BosonicBroadcastSpec(
                effective_single_receiver(eta_to, eta_away).etas, mean_photon
            )
            return finite_ns_bound(eff, 0.5, "esq")

        finite = {
            "b_cut": cut_ns(eta_b, eta_c),
            "c_cut": cut_ns(eta_c, eta_b),
            "bc_cut": cut_ns(eta_b + eta_c, 0.0),
            "tripartite": (
                0.0
                if eta == 0
                else finite_ns_bound(spec, eta_star, "esq")
            ),
        }
    return BosonicBoundReport(**bounds, finite_ns=finite)
