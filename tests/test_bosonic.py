import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbcbound import (
    BosonicBroadcastSpec,
    DomainError,
    RootError,
    asymptotic_bound,
    finite_ns_bound,
    g,
    optimal_eta_star,
    theorem3_columns,
    theorem3_report,
)
from qbcbound.bosonic import effective_single_receiver

# ---------------------------------------------------------------------------
# scalar reference: the closed forms and the bisection as plain loops over
# Python floats; the library's array code must return the same bits


def _ref_gap(etas, x):
    eta = min(1.0, sum(etas))
    lhs = 0.0
    for ei in etas:
        if ei > 0:
            lhs += 1.0 / (x * x * (1 - eta) / ei + x)
    rhs = 1.0 / ((1 - x) ** 2 * (1 - eta) / eta + (1 - x))
    return lhs - rhs


def _ref_eta_star(etas):
    lo, hi = 1e-9, 1.0 - 1e-9
    flo, fhi = _ref_gap(etas, lo), _ref_gap(etas, hi)
    assert flo * fhi <= 0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        fm = _ref_gap(etas, mid)
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _ref_asymptotic(etas, x, measure):
    eta = min(1.0, sum(etas))
    if eta >= 1.0:
        return math.inf
    xr, xc = (x, 1.0 - x) if measure == "esq" else (1.0 - x, x)
    total = 0.0
    for ei in etas:
        if ei > 0 and xr == 0:
            return math.inf
        if ei > 0:
            total += math.log2(ei / ((1 - eta) * xr) + 1)
    if eta > 0 and xc == 0:
        return math.inf
    if eta > 0:
        total += math.log2(eta / ((1 - eta) * xc) + 1)
    return 0.5 * total


def _ref_cut(eta_to, eta_away):
    denom = 1.0 - eta_to - eta_away
    if denom <= 0:
        return math.inf
    return math.log2((1.0 + eta_to - eta_away) / denom)


def _ref_theorem3(eta_b, eta_c):
    eta = min(1.0, eta_b + eta_c)
    if eta >= 1.0 or (eta_b == 0 and eta_c == 0):
        eta_star = 0.5
        tri = tri_printed = math.inf if eta >= 1.0 else 0.0
    else:
        eta_star = _ref_eta_star((eta_b, eta_c))
        tri = _ref_asymptotic((eta_b, eta_c), eta_star, "esq")
        tri_printed = _ref_asymptotic((eta_b, eta_c), eta_star, "esq-tilde")
    return {
        "bound_b_cut": _ref_cut(eta_b, eta_c),
        "bound_c_cut": _ref_cut(eta_c, eta_b),
        "bound_bc_cut": _ref_cut(eta_b + eta_c, 0.0),
        "tripartite_bound": tri,
        "tripartite_bound_as_printed": tri_printed,
        "eta_star": eta_star,
    }


def _report_fields(rep):
    return {k: v for k, v in asdict(rep).items() if k != "finite_ns"}


_eta = st.floats(min_value=0.0, max_value=1.0, allow_subnormal=True)


@settings(max_examples=100, deadline=None)
@given(_eta, _eta)
def test_theorem3_report_matches_scalar_reference(eta_b, eta_c):
    if eta_b + eta_c > 1 + 1e-12:
        with pytest.raises(DomainError, match="total transmissivity exceeds 1"):
            theorem3_report(eta_b, eta_c)
        return
    expect = _ref_theorem3(eta_b, eta_c)
    assert _report_fields(theorem3_report(eta_b, eta_c)) == expect
    if eta_b + eta_c < 1 and (eta_b, eta_c) != (0, 0):
        spec = BosonicBroadcastSpec((eta_b, eta_c))
        assert optimal_eta_star(spec) == _ref_eta_star((eta_b, eta_c))


@pytest.mark.parametrize("eta_max, eta_c", [(0.8, 0.1), (0.5, 0.3), (0.99, 0.0)])
def test_theorem3_columns_match_scalar_reference(eta_max, eta_c):
    eta_b = eta_max * np.arange(1, 10**4 + 1) / 10**4
    cols = theorem3_columns(eta_b, eta_c)
    # every 4th point keeps the scalar loop's share of the test time small
    for i in range(0, eta_b.size, 4):
        got = {k: v[i] for k, v in cols.items()}
        assert got == _ref_theorem3(float(eta_b[i]), eta_c), i


@pytest.mark.parametrize(
    "etas", [(0.3,), (0.9,), (0.2, 0.3, 0.1), (0.0, 0.25, 0.0, 0.5), (1e-310, 0.4)]
)
def test_optimal_eta_star_matches_scalar_reference(etas):
    spec = BosonicBroadcastSpec(etas)
    assert optimal_eta_star(spec) == _ref_eta_star(etas)
    for x in (0.0, 0.25, 0.5, 0.9, 1.0):
        for measure in ("esq", "esq-tilde"):
            assert asymptotic_bound(spec, x, measure) == _ref_asymptotic(etas, x, measure)


def test_three_receiver_eta_star_value():
    assert optimal_eta_star(BosonicBroadcastSpec((0.2, 0.3, 0.1))) == 0.6171831012023283


def test_theorem3_columns_validate_first_bad_pair():
    # the sign check wins within a pair, the first bad pair across the grid
    with pytest.raises(DomainError, match="total"):
        theorem3_columns([0.3, 0.9, -0.1], 0.2)
    with pytest.raises(DomainError, match="nonnegative"):
        theorem3_columns([0.3, -0.1, 0.9], 0.2)
    with pytest.raises(DomainError, match="nonnegative"):
        theorem3_columns([0.3, math.nan], 0.2)
    with pytest.raises(DomainError, match="total"):
        theorem3_columns([math.inf], 0.0)



def test_g_values():
    assert g(0) == 0.0
    assert abs(g(1) - 2.0) < 1e-12
    # large-x difference tends to log2 of the photon-number ratio
    assert abs((g(1e6) - g(5e5)) - 1.0) < 1e-4
    with pytest.raises(DomainError):
        g(-0.1)


def test_g_strictly_increasing():
    xs = np.linspace(0.01, 20, 50)
    vals = [g(x) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_spec_validation():
    with pytest.raises(DomainError):
        BosonicBroadcastSpec((0.6, 0.6))
    with pytest.raises(DomainError):
        BosonicBroadcastSpec((-0.1,))
    with pytest.raises(DomainError):
        BosonicBroadcastSpec((0.3,), mean_photon=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(bad):
    with pytest.raises(DomainError):
        BosonicBroadcastSpec((bad, 0.1))
    with pytest.raises(DomainError):
        BosonicBroadcastSpec((0.3,), mean_photon=bad)
    with pytest.raises(DomainError):
        theorem3_report(bad, 0.1)
    with pytest.raises(DomainError):
        theorem3_report(0.2, bad)
    with pytest.raises(DomainError):
        theorem3_report(0.2, 0.1, mean_photon=bad)


def test_finite_ns_vacuum_is_zero():
    spec = BosonicBroadcastSpec((0.25, 0.25), mean_photon=0.0)
    assert finite_ns_bound(spec, 0.5) == 0.0


def test_finite_ns_monotone_and_converges():
    asym = asymptotic_bound(BosonicBroadcastSpec((0.25, 0.25)), 0.5)
    prev = -1.0
    for ns in (1.0, 10.0, 1e3, 1e6):
        spec = BosonicBroadcastSpec((0.25, 0.25), mean_photon=ns)
        v = finite_ns_bound(spec, 0.5)
        assert v > prev
        assert v <= asym + 1e-9
        prev = v
    assert asym - prev < 1e-3


def test_asymptotic_point_to_point():
    spec = BosonicBroadcastSpec((0.5,))
    assert abs(asymptotic_bound(spec, 0.5) - math.log2(3)) < 1e-12


def test_asymptotic_known_value_at_root():
    spec = BosonicBroadcastSpec((0.25, 0.25))
    expect = 0.5 * (2 * math.log2(1.875) + math.log2(10 / 3))
    assert abs(asymptotic_bound(spec, 4 / 7) - expect) < 1e-12
    assert abs(expect - 1.7754) < 1e-3


def test_asymptotic_diverges_at_endpoints():
    spec = BosonicBroadcastSpec((0.25, 0.25))
    assert asymptotic_bound(spec, 0.0) == math.inf
    assert asymptotic_bound(spec, 1.0) == math.inf
    # (1 - eta) * x underflows to 0 next to the endpoint
    assert asymptotic_bound(spec, 5e-324) == math.inf


def test_measure_pairing_swap():
    spec = BosonicBroadcastSpec((0.3, 0.2))
    for x in (0.1, 0.37, 0.5, 0.82):
        a = asymptotic_bound(spec, x, "esq")
        b = asymptotic_bound(spec, 1 - x, "esq-tilde")
        assert abs(a - b) < 1e-12


def test_midpoint_convexity():
    spec = BosonicBroadcastSpec((0.3, 0.2))
    for x in np.linspace(0.1, 0.8, 8):
        f = lambda t: asymptotic_bound(spec, t)  # noqa: E731
        assert f(x + 0.05) <= 0.5 * (f(x) + f(x + 0.1)) + 1e-9


def test_optimal_eta_star_single_receiver():
    for eta in (0.1, 0.5, 0.9):
        assert abs(optimal_eta_star(BosonicBroadcastSpec((eta,))) - 0.5) < 1e-9


def test_optimal_eta_star_symmetric_pair():
    assert abs(optimal_eta_star(BosonicBroadcastSpec((0.25, 0.25))) - 4 / 7) < 1e-9


def test_optimal_eta_star_grid_oracle():
    spec = BosonicBroadcastSpec((0.3, 0.15))
    x = optimal_eta_star(spec)
    best = asymptotic_bound(spec, x)
    for t in np.linspace(1e-4, 1 - 1e-4, 10**4):
        assert best <= asymptotic_bound(spec, t) + 1e-9


def test_optimal_eta_star_degenerate():
    with pytest.raises(RootError):
        optimal_eta_star(BosonicBroadcastSpec((0.0, 0.0)))


def test_theorem3_closed_forms():
    rep = theorem3_report(0.25, 0.25)
    assert abs(rep.bound_b_cut - 1.0) < 1e-12
    assert abs(rep.bound_c_cut - 1.0) < 1e-12
    assert abs(rep.bound_bc_cut - math.log2(3)) < 1e-12
    assert abs(rep.eta_star - 4 / 7) < 1e-9
    assert abs(rep.tripartite_bound - 1.7754) < 1e-3
    assert rep.tripartite_bound_as_printed >= rep.tripartite_bound
    assert abs(rep.tripartite_bound_as_printed - 1.8452) < 1e-3


def test_theorem3_single_receiver_reduction():
    for eta_b in np.linspace(0.05, 0.95, 10):
        rep = theorem3_report(eta_b, 0.0)
        assert abs(rep.bound_b_cut - math.log2((1 + eta_b) / (1 - eta_b))) < 1e-12


def test_theorem3_symmetry():
    rep = theorem3_report(0.3, 0.3)
    assert rep.bound_b_cut == rep.bound_c_cut


def test_theorem3_divergent_sentinels():
    rep = theorem3_report(0.5, 0.5)
    assert rep.bound_bc_cut == math.inf
    assert rep.tripartite_bound == math.inf


def test_tripartite_below_feasible_point():
    for etas in ((0.25, 0.25), (0.4, 0.1), (0.05, 0.6)):
        spec = BosonicBroadcastSpec(etas)
        rep = theorem3_report(*etas)
        assert rep.tripartite_bound <= asymptotic_bound(spec, 0.5) + 1e-12


def test_cut_equals_effective_single_receiver():
    for eta_b, eta_c in ((0.25, 0.25), (0.3, 0.1), (0.12, 0.4)):
        rep = theorem3_report(eta_b, eta_c)
        eff = effective_single_receiver(eta_b, eta_c)
        assert abs(rep.bound_b_cut - asymptotic_bound(eff, 0.5)) < 1e-12
        eff_bc = effective_single_receiver(eta_b + eta_c, 0.0)
        assert abs(rep.bound_bc_cut - asymptotic_bound(eff_bc, 0.5)) < 1e-12


def test_finite_ns_report_below_asymptotic():
    rep = theorem3_report(0.25, 0.25, mean_photon=5.0)
    assert rep.finite_ns is not None
    assert rep.finite_ns["b_cut"] <= rep.bound_b_cut + 1e-9
    assert rep.finite_ns["bc_cut"] <= rep.bound_bc_cut + 1e-9
    assert rep.finite_ns["tripartite"] <= rep.tripartite_bound + 1e-9


@pytest.mark.parametrize("eta", [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
def test_cut_bound_lies_above_plob_capacity(eta):
    # -log2(1 - eta): the reverse coherent information of a pure-loss
    # channel, an achievable rate and its capacity (PLOB)
    assert -math.log2(1 - eta) <= theorem3_report(eta, 0).bound_b_cut
