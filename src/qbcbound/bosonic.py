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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        # written so that NaN, for which every comparison is false, fails them
        if not all(e >= 0 for e in etas):
            raise DomainError("transmission coefficients must be finite and nonnegative")
        if not sum(etas) <= 1 + 1e-12:
            raise DomainError("total transmissivity exceeds 1")
        if self.mean_photon is not None and not 0 <= self.mean_photon < math.inf:
            raise DomainError("mean photon number must be finite and nonnegative")

    @property
    def eta_total(self) -> float:
        return min(1.0, sum(self.etas))


@dataclass(frozen=True)
class BosonicBoundReport:
    bound_b_cut: float
    bound_c_cut: float
    bound_bc_cut: float
    tripartite_bound: float
    tripartite_bound_as_printed: float
    eta_star: float
    finite_ns: dict | None = field(default=None)


def g(x: float) -> float:
    """Entropy in bits of a thermal state with mean photon number x."""
    if x < 0:
        raise DomainError("mean photon number must be nonnegative")
    if x == 0:
        return 0.0
    return (x + 1) * math.log2(x + 1) - x * math.log2(x)


def _pairings(spec: BosonicBroadcastSpec, x: float, measure: str):
    """Per-receiver and collective squashing fractions for each measure.

    For the direct measure each receiver is paired with the retained
    environment fraction x and the collective term with 1 - x; the dual
    measure swaps the pairing.
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
    xr, xc = _pairings(spec, eta_eprime, measure)
    total = 0.0
    for ei in spec.etas:
        total += g((ei + (1 - eta) * xr) * ns) - g((1 - eta) * xr * ns)
    total += g((eta + (1 - eta) * xc) * ns) - g((1 - eta) * xc * ns)
    return 0.5 * total


def asymptotic_bound(spec: BosonicBroadcastSpec, eta_eprime: float, measure="esq") -> float:
    """Photon-number independent upper bound (bits); +inf when it diverges."""
    if not 0.0 <= eta_eprime <= 1.0:
        raise DomainError("eta_eprime must lie in [0, 1]")
    eta = spec.eta_total
    if eta >= 1.0:
        return math.inf
    xr, xc = _pairings(spec, eta_eprime, measure)
    total = 0.0
    for ei in spec.etas:
        if ei > 0 and xr == 0:
            return math.inf
        if ei > 0:
            total += math.log2(ei / ((1 - eta) * xr) + 1)
    if eta > 0 and xc == 0:
        return math.inf
    if eta > 0:
        total += math.log2(eta / ((1 - eta) * xc) + 1)
    return 0.5 * total


def _stationarity_gap(spec: BosonicBroadcastSpec, x: float) -> float:
    eta = spec.eta_total
    lhs = 0.0
    for ei in spec.etas:
        if ei > 0:
            lhs += 1.0 / (x * x * (1 - eta) / ei + x)
    rhs = 1.0 / ((1 - x) ** 2 * (1 - eta) / eta + (1 - x))
    return lhs - rhs


def optimal_eta_star(spec: BosonicBroadcastSpec) -> float:
    """Squashing transmissivity minimizing the direct-measure asymptotic
    bound, found by bisection of the stationarity equation."""
    if all(e == 0 for e in spec.etas):
        raise RootError("no light reaches any receiver")
    lo, hi = _BISECT_LO, 1.0 - _BISECT_LO
    flo, fhi = _stationarity_gap(spec, lo), _stationarity_gap(spec, hi)
    if flo * fhi > 0:
        raise RootError("stationarity equation has no sign change in (0, 1)")
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        fm = _stationarity_gap(spec, mid)
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _bipartite_cut_bound(eta_to: float, eta_away: float) -> float:
    """log2((1 + eta_to - eta_away) / (1 - eta_to - eta_away)), the
    asymptotic bipartite-cut bound at squashing transmissivity 1/2."""
    denom = 1.0 - eta_to - eta_away
    if denom <= 0:
        return math.inf
    return math.log2((1.0 + eta_to - eta_away) / denom)


def effective_single_receiver(eta_to: float, eta_away: float) -> BosonicBroadcastSpec:
    """Single-receiver spec equivalent to a bipartite cut in which the
    eta_away fraction is held by the trusted sender side."""
    if eta_away >= 1.0:
        raise DomainError("trusted fraction must be below 1")
    return BosonicBroadcastSpec((eta_to / (1.0 - eta_away),))


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
    eta = spec.eta_total
    b_cut = _bipartite_cut_bound(eta_b, eta_c)
    c_cut = _bipartite_cut_bound(eta_c, eta_b)
    bc_cut = _bipartite_cut_bound(eta_b + eta_c, 0.0)
    if eta >= 1.0 or (eta_b == 0 and eta_c == 0):
        eta_star = 0.5
        tri = math.inf if eta >= 1.0 else 0.0
        tri_printed = tri
    else:
        eta_star = optimal_eta_star(spec)
        tri = asymptotic_bound(spec, eta_star, "esq")
        tri_printed = asymptotic_bound(spec, eta_star, "esq-tilde")
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
    return BosonicBoundReport(
        bound_b_cut=b_cut,
        bound_c_cut=c_cut,
        bound_bc_cut=bc_cut,
        tripartite_bound=tri,
        tripartite_bound_as_printed=tri_printed,
        eta_star=eta_star,
        finite_ns=finite,
    )
