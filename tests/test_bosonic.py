import math

import numpy as np
import pytest

from qbcbound import (
    BosonicBroadcastSpec,
    DomainError,
    RootError,
    asymptotic_bound,
    finite_ns_bound,
    g,
    optimal_eta_star,
    theorem3_report,
)
from qbcbound.bosonic import effective_single_receiver


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
