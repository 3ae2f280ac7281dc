import math
import re
from dataclasses import asdict
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbcbound import (
    BosonicBroadcastSpec,
    DomainError,
    QbcError,
    RootError,
    SpecError,
    asymptotic_bound,
    finite_ns_bound,
    g,
    optimal_eta_star,
    theorem3_columns,
    theorem3_report,
)
from qbcbound import bosonic

# ---------------------------------------------------------------------------
# scalar reference: the closed forms and the bisection as plain loops over
# Python floats; the library's array code must return the same bits


def _ref_gap(etas, x):
    eta = min(1.0, sum(etas))
    lhs = 0.0
    for ei in etas:
        if ei > 0:
            lhs += 1.0 / (x * x * (1 - eta) / ei + x)
    rhs = 1.0 / ((1 - x) * (1 - x) * (1 - eta) / eta + (1 - x))
    return lhs - rhs


def _ref_bisect(f):
    lo, hi = 1e-9, 1.0 - 1e-9
    flo, fhi = f(lo), f(hi)
    assert flo * fhi <= 0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _ref_eta_star(etas):
    return _ref_bisect(lambda x: _ref_gap(etas, x))


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
    if eta_to == 0:
        return 0.0
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
    "etas",
    [(0.3,), (0.9,), (0.2, 0.3, 0.1), (0.0, 0.25, 0.0, 0.5), (1e-310, 0.4),
     # a total of exactly 1 with a dark receiver: 1 - eta_total = 0 and
     # eta_i = 0 make that receiver's term 0 / 0, which the gap masks
     (1.0, 0.0), (0.0, 1.0), (0.3, 0.0, 0.7)],
)
def test_optimal_eta_star_matches_scalar_reference(etas):
    spec = BosonicBroadcastSpec(etas)
    assert optimal_eta_star(spec) == _ref_eta_star(etas)
    for x in (0.0, 0.25, 0.5, 0.9, 1.0):
        for measure in ("esq", "esq-tilde"):
            assert asymptotic_bound(spec, x, measure) == _ref_asymptotic(etas, x, measure)


def test_log2_is_the_c_library_function():
    # the scalar reference takes math.log2; np.log2 differs from it on a few
    # hundred of these arguments
    a = np.random.default_rng(7).uniform(0.0, 1.0, 2 * 10**5)
    assert np.array_equal(bosonic._log2(a), [math.log2(x) for x in a.tolist()])


# ---------------------------------------------------------------------------
# the stacked bisection: every column of a grid takes the scalar reference's
# steps, and the same steps as when it is bisected alone


def _grid(eta_b, eta_c):
    return np.array(np.broadcast_arrays(eta_b, eta_c), dtype=float)


def _receiver_columns(rng, receivers, n):
    """Columns uniform on the simplex of receivers plus environment."""
    return np.ascontiguousarray(rng.dirichlet(np.ones(receivers + 1), n).T[:receivers])


def _sweep_grids():
    rng = np.random.default_rng(23)
    k = np.arange(1, 10**4 + 1) / 10**4
    grids = {f"reference_{m}_{c}": _grid(m * k, c) for m, c in [(0.8, 0.1), (0.5, 0.3), (0.99, 0.0)]}
    grids["simplex"] = _receiver_columns(rng, 2, 2 * 10**4)
    # log-uniform eta_b down into the subnormal range, eta_c up to the rest
    eta_b = 10.0 ** rng.uniform(-320, 0, 10**4)
    grids["log_uniform"] = _grid(eta_b, (1 - eta_b) * 10.0 ** rng.uniform(-320, 0, 10**4))
    grids["three_receivers"] = _receiver_columns(rng, 3, 5000)
    grids["four_receivers"] = _receiver_columns(rng, 4, 5000)
    grids["four_receivers_some_dark"] = grids["four_receivers"] * (rng.random((4, 5000)) < 0.5)
    # 1 - eta_total log-uniform from 1e-16 to 1e-1, split at a uniform point
    total = 1 - 10.0 ** rng.uniform(-16, -1, 10**4)
    share = rng.random(10**4)
    grids["near_total_one"] = _grid(share * total, (1 - share) * total)
    grids["empty"] = np.zeros((2, 0))
    return grids


@pytest.mark.parametrize(
    "etas", [pytest.param(etas, id=name) for name, etas in _sweep_grids().items()]
)
def test_certified_steps_keep_the_exact_gap_bits(etas):
    etas = np.compress(bosonic._has_stationary_point(etas), etas, axis=1)
    stacked = bosonic._bisect(bosonic._stationarity_gap(etas), etas.shape[1])
    assert stacked.shape == (etas.shape[1],)
    for i in range(0, etas.shape[1], max(1, etas.shape[1] // 50)):
        alone = bosonic._bisect(bosonic._stationarity_gap(etas[:, i : i + 1]), 1)
        assert stacked[i : i + 1].tobytes() == alone.tobytes(), i
        assert stacked[i] == _ref_eta_star(etas[:, i].tolist()), i


def test_bisect_reads_only_its_gap():
    # a gap the loop was not written for: roots c of x * x - c * c
    c = np.random.default_rng(27).uniform(0.01, 0.99, 200)
    roots = bosonic._bisect(lambda x: x * x - c * c, c.size)
    assert roots.tolist() == [_ref_bisect(lambda x, ci=ci: x * x - ci * ci) for ci in c.tolist()]


def test_empty_sweep_grid_ends():
    cols = theorem3_columns(np.zeros(3), 0.0)
    assert cols["eta_star"].tolist() == [0.5] * 3
    assert theorem3_columns([], [])["eta_star"].shape == (0,)


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



def _ref_g(x: float) -> Decimal:
    """(x + 1) log2(x + 1) - x log2(x) in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(x)
        return ((d + 1) * (d + 1).ln() - d * d.ln()) / Decimal(2).ln()


def test_g_values():
    assert g(0) == 0.0
    assert abs(g(1) - 2.0) < 1e-12
    # large-x difference tends to log2 of the photon-number ratio
    assert abs((g(1e6) - g(5e5)) - float(_ref_g(1e6) - _ref_g(5e5))) < 1e-13
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            g(bad)


@pytest.mark.parametrize("k", range(-3, 9))
def test_g_matches_decimal_reference(k):
    # the two terms of the textbook form both grow like x log2 x, so their
    # difference cancels digits at large x
    x = 10.0**k
    assert abs(g(x) - float(_ref_g(x))) < 1e-13


def test_g_below_the_reciprocal_overflow():
    # 1 / x is inf here; g stays the tiny positive value x (1 - ln x) / ln 2
    for x in (5e-324, 1e-310):
        assert 0 < g(x) == pytest.approx(x * (1 - math.log(x)) / math.log(2), rel=1e-3)


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


@pytest.mark.parametrize(
    "build, error, fragment",
    [
        (lambda: BosonicBroadcastSpec(()), QbcError, "at least one receiver required"),
        (lambda: asymptotic_bound(BosonicBroadcastSpec((0.3,)), 0.5, "esq-bar"), QbcError,
         "unknown measure 'esq-bar'"),
        (lambda: finite_ns_bound(BosonicBroadcastSpec((0.3,)), 0.5), DomainError,
         "spec has no mean photon number"),
        (lambda: finite_ns_bound(BosonicBroadcastSpec((0.3,), mean_photon=1.0), 1.5),
         DomainError, "eta_eprime must lie in [0, 1]"),
        (lambda: asymptotic_bound(BosonicBroadcastSpec((0.3,)), -0.1), DomainError,
         "eta_eprime must lie in [0, 1]"),
        # the measures' own refusal, as every entry point raises it
        (lambda: finite_ns_bound(BosonicBroadcastSpec((0.3,), 1.0), 0.5, "x"), SpecError,
         "unknown measure 'x'"),
        (lambda: asymptotic_bound(BosonicBroadcastSpec((0.3,)), 0.5, "x"), SpecError,
         "unknown measure 'x'"),
        # the real-number rule: no bool, string or other non-real gets through
        (lambda: BosonicBroadcastSpec(("x",)), QbcError,
         "transmission coefficient must be a real number"),
        (lambda: BosonicBroadcastSpec((0.3,), "1"), QbcError,
         "mean photon number must be a real number"),
        (lambda: BosonicBroadcastSpec((0.3,), True), QbcError,
         "mean photon number must be a real number"),
        (lambda: g("1"), QbcError, "mean photon number must be a real number"),
        (lambda: finite_ns_bound(BosonicBroadcastSpec((0.3,), 1.0), "0.5"), QbcError,
         "eta_eprime must be a real number"),
        (lambda: asymptotic_bound(BosonicBroadcastSpec((0.3,)), "0.5"), QbcError,
         "eta_eprime must be a real number"),
        (lambda: theorem3_report(0.3, 0.2, True), QbcError,
         "mean photon number must be a real number"),
        (lambda: theorem3_report("0.3", 0.2), QbcError,
         "transmission coefficient must be a real number"),
        (lambda: theorem3_columns("a", 0.1), QbcError, "eta_b must hold real numbers"),
        (lambda: theorem3_columns([0.1, 0.2], np.array([True, False])), QbcError,
         "eta_c must hold real numbers"),
        (lambda: theorem3_columns([0.1, 0.2, 0.3], [0.1, 0.2]), QbcError,
         "eta_b of shape (3,) and eta_c of shape (2,) do not broadcast"),
        # a collection of coefficients, and integers within the float range
        (lambda: BosonicBroadcastSpec(0.3), SpecError,
         "transmission coefficients 0.3 is not a collection"),
        (lambda: g(10**400), QbcError, "mean photon number is beyond the float range"),
        (lambda: BosonicBroadcastSpec((10**400,)), QbcError,
         "transmission coefficient is beyond the float range"),
        (lambda: BosonicBroadcastSpec((0.3,), 10**400), QbcError,
         "mean photon number is beyond the float range"),
        (lambda: asymptotic_bound(BosonicBroadcastSpec((0.3,)), 10**400), QbcError,
         "eta_eprime is beyond the float range"),
        (lambda: finite_ns_bound(BosonicBroadcastSpec((0.3,), 1.0), 10**400), QbcError,
         "eta_eprime is beyond the float range"),
        (lambda: theorem3_report(10**400, 0.0), QbcError,
         "transmission coefficient is beyond the float range"),
    ],
    ids=["no-receivers", "unknown-measure", "finite-ns-without-photons",
         "finite-ns-eta-above-1", "asymptotic-eta-below-0", "finite-ns-unknown-measure",
         "asymptotic-unknown-measure", "spec-string-eta", "spec-string-photons",
         "spec-bool-photons", "g-string", "finite-ns-string-eta", "asymptotic-string-eta",
         "report-bool-photons", "report-string-eta", "columns-string", "columns-bool",
         "columns-no-broadcast", "spec-scalar-etas", "g-huge-int", "spec-huge-eta",
         "spec-huge-photons", "asymptotic-huge-eta", "finite-ns-huge-eta", "report-huge-eta"],
)
def test_invalid_arguments_refused(build, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        build()


@pytest.mark.parametrize(
    "eta_b, eta_c",
    [([[0.1, 0.2], [0.3]], 0.1), (0.1, [[0.1, 0.2], [0.3]]), (np.array([0.1, 0.2]), [[0.1], []])],
    ids=["ragged-eta-b", "ragged-eta-c", "array-and-ragged"],
)
def test_ragged_eta_arrays_refused_before_any_bisection(monkeypatch, eta_b, eta_c):
    monkeypatch.setattr(bosonic, "_bisect", lambda *args: pytest.fail("bisection ran"))
    with pytest.raises(QbcError, match="^eta_b and eta_c must be rectangular arrays, not ragged$"):
        theorem3_columns(eta_b, eta_c)


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


@pytest.mark.parametrize("eta_b, eta_c", [(1.0, 0.0), (0.0, 1.0)])
def test_dark_receiver_cut_is_zero(eta_b, eta_c):
    # all the light goes to one receiver: the other holds vacuum, and its
    # cut carries nothing
    dark = "bound_c_cut" if eta_b else "bound_b_cut"
    lit = "bound_b_cut" if eta_b else "bound_c_cut"
    rep = theorem3_report(eta_b, eta_c)
    cols = theorem3_columns([eta_b, 0.5 * eta_b], [eta_c, 0.5 * eta_c])
    for fields in (asdict(rep), {k: v[0] for k, v in cols.items()}):
        assert fields[dark] == 0.0
        assert fields[lit] == fields["bound_bc_cut"] == fields["tripartite_bound"] == math.inf
        assert fields["eta_star"] == 0.5
    assert cols[dark][1] == 0.0


def test_tripartite_below_feasible_point():
    for etas in ((0.25, 0.25), (0.4, 0.1), (0.05, 0.6)):
        spec = BosonicBroadcastSpec(etas)
        rep = theorem3_report(*etas)
        assert rep.tripartite_bound <= asymptotic_bound(spec, 0.5) + 1e-12


def test_cut_equals_effective_single_receiver():
    for eta_b, eta_c in ((0.25, 0.25), (0.3, 0.1), (0.12, 0.4)):
        rep = theorem3_report(eta_b, eta_c)
        eff = BosonicBroadcastSpec((eta_b / (1 - eta_c),))
        assert abs(rep.bound_b_cut - asymptotic_bound(eff, 0.5)) < 1e-12
        eff_bc = BosonicBroadcastSpec((eta_b + eta_c,))
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


# ---------------------------------------------------------------------------
# Gaussian oracle: the pure-loss broadcast channel as covariance matrices, in
# shot-noise units (the vacuum's is the identity), quadratures ordered
# (x_1, p_1, x_2, p_2, ...).  Modes: R, A of a two-mode squeezed vacuum, then
# the vacua that A's beamsplitters and the squash's mix in.  Each entropy is
# sum g((nu - 1) / 2) over the symplectic eigenvalues nu of a marginal
# (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)); nothing below reads
# the closed forms.

R, B, C, E_SQ, F = 0, 1, 2, 3, 4  # E_SQ is E', F takes the rest of E


def _thermal_entropy(n: np.ndarray) -> float:
    # a vacuum mode's nu is 1 up to rounding, and g's slope diverges at 0;
    # every populated mode on the grid below holds more than 1e-3 photons
    n = n[n > 1e-10]
    return float(np.sum((n + 1) * np.log2(n + 1) - n * np.log2(n)))


def _beamsplitter(modes: int, i: int, j: int, t: float) -> np.ndarray:
    """Symplectic matrix sending mode i to sqrt(t) i + sqrt(1 - t) j, and
    mode j to the orthogonal combination."""
    u = np.eye(modes)
    u[[i, i, j, j], [i, j, i, j]] = math.sqrt(t), math.sqrt(1 - t), -math.sqrt(1 - t), math.sqrt(t)
    return np.kron(u, np.eye(2))


def _broadcast_covariance(eta_b, eta_c, ns, x) -> np.ndarray:
    """R, B, C, E', F after A of a two-mode squeezed vacuum of mean photon
    number ns goes to B (eta_b), C (eta_c) and E (the rest), and E through a
    squash beamsplitter of transmissivity x into E' and F."""
    nu = 2 * ns + 1
    cov = np.eye(10)
    cov[:4, :4] = np.block(
        [[nu * np.eye(2), math.sqrt(nu * nu - 1) * np.diag([1.0, -1.0])],
         [math.sqrt(nu * nu - 1) * np.diag([1.0, -1.0]), nu * np.eye(2)]]
    )
    # A (mode 1) keeps the B share; C and then E split off the remainder into
    # modes 2 and 3, and the squash splits E between modes 3 and 4
    s = _beamsplitter(5, B, C, eta_b)
    s = _beamsplitter(5, C, E_SQ, eta_c / (1 - eta_b)) @ s
    s = _beamsplitter(5, E_SQ, F, x) @ s
    return s @ cov @ s.T


def _entropy(cov: np.ndarray, modes) -> float:
    idx = [2 * m + q for m in sorted(modes) for q in (0, 1)]
    v = cov[np.ix_(idx, idx)]
    omega = np.kron(np.eye(len(modes)), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    w, u = np.linalg.eigh(v)
    root = (u * np.sqrt(w)) @ u.T
    # the eigenvalues of i V^1/2 Omega V^1/2 are +-nu
    nu = np.linalg.eigvalsh(1j * root @ omega @ root)[len(modes):]
    return _thermal_entropy((nu - 1) / 2)


def _with_e(cov, e):
    """H(groups... E) as a function of the groups."""
    return lambda *groups: _entropy(cov, set(e).union(*groups))


def _half_cmi(cov, blocks, e=(E_SQ,)) -> float:
    """(1/2) [sum_i H(A_i E) - H(A_1 ... A_m E) - (m - 1) H(E)]."""
    h = _with_e(cov, e)
    return 0.5 * (sum(h(b) for b in blocks) - h(*blocks) - (len(blocks) - 1) * h())


def _half_dual(cov, blocks, e=(E_SQ,)) -> float:
    """(1/2) [sum_i H(A_[m]\\{i} E) - (m - 1) H(A_1 ... A_m E) - H(E)]."""
    h = _with_e(cov, e)
    rest = [[b for b in blocks if b is not a] for a in blocks]
    return 0.5 * (sum(h(*r) for r in rest) - (len(blocks) - 1) * h(*blocks) - h())


_GAUSSIAN_GRID = [
    (eta_b, eta_c, ns)
    for eta_b in (0.1, 0.3, 0.45)
    for eta_c in (0.05, 0.2, 0.4)
    for ns in (0.2, 1.0, 5.0)
]


def test_gaussian_oracle_vacuum_and_thermal_marginals():
    cov = _broadcast_covariance(0.3, 0.2, 1.0, 0.5)
    assert _entropy(cov, {R, B, C, E_SQ, F}) < 1e-12
    assert _entropy(cov, {R}) == pytest.approx(g(1.0), abs=1e-12)
    assert _entropy(cov, {B}) == pytest.approx(g(0.3), abs=1e-12)
    assert _entropy(cov, {E_SQ}) == pytest.approx(g(0.25), abs=1e-12)


@pytest.mark.parametrize("eta_b, eta_c, ns", _GAUSSIAN_GRID)
def test_finite_ns_bound_equals_gaussian_squash(eta_b, eta_c, ns):
    spec = BosonicBroadcastSpec((eta_b, eta_c), ns)
    for x in (0.2, 0.5, 0.8):
        cov = _broadcast_covariance(eta_b, eta_c, ns, x)
        blocks = ({R}, {B}, {C})
        assert abs(finite_ns_bound(spec, x, "esq") - _half_cmi(cov, blocks)) < 1e-12, x
        assert abs(finite_ns_bound(spec, x, "esq-tilde") - _half_dual(cov, blocks)) < 1e-12, x


@pytest.mark.parametrize("eta_b, eta_c, ns", _GAUSSIAN_GRID)
def test_finite_ns_cuts_against_the_beamsplitter_half_squash(eta_b, eta_c, ns):
    finite = theorem3_report(eta_b, eta_c, ns).finite_ns
    cov = _broadcast_covariance(eta_b, eta_c, ns, 0.5)
    # each cut's far side holds the receivers across it; the sender's side
    # holds R and the rest
    cuts = {"b_cut": ({R, C}, {B}), "c_cut": ({R, B}, {C}), "bc_cut": ({R}, {B, C})}
    for name, blocks in cuts.items():
        assert abs(finite[name] - _half_cmi(cov, blocks)) < 1e-12, name
    # a one-receiver finite_ns_bound at the photon number (1 - eta_away) N_s
    # that reaches the cut names the same squash
    for name, eta_to, eta_away in (("b_cut", eta_b, eta_c), ("c_cut", eta_c, eta_b)):
        effective = BosonicBroadcastSpec((eta_to / (1 - eta_away),), (1 - eta_away) * ns)
        assert abs(_half_cmi(cov, cuts[name]) - finite_ns_bound(effective, 0.5, "esq")) < 1e-12, name
