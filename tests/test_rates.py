import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbcbound import (
    DimMismatch,
    Measure,
    MultipartiteState,
    Partition,
    QbcError,
    QuantumChannel,
    SpecError,
    SquashConfig,
    TooLarge,
    channel_output_state,
    cmi_dual_measure,
    cmi_total,
    entropy,
    esq_exact_pure,
    evaluate_bounds,
    make_ghz,
    nontrivial_partitions,
    purify,
    theorem3_report,
    trace_distance,
    two_receiver_report,
)
from qbcbound import measures, rates
from qbcbound.cli import _single_rail_loss_channel as single_rail_loss_channel
from qbcbound.optimize import real_point
from qbcbound.rates import (
    _input_amplitudes,
    _guard,
    _input_gap,
    _input_value_and_grad,
    _measures,
    _stinespring,
)
from qbcbound.sampling import random_channel
from qbcbound.measures import _measure_kernel

FAST_SQUASH = SquashConfig(restarts=2)


def copy_channel():
    k = np.zeros((4, 2))
    k[0, 0] = 1
    k[3, 1] = 1
    return QuantumChannel((k,), 2, ("B", "C"), (2, 2))


def constant_channel():
    # discard the input, output |0><0|_B (x) |0><0|_C
    eye = np.eye(2)
    kraus = tuple(np.outer(np.kron(eye[:, 0], eye[:, 0]), eye[:, i]) for i in range(2))
    return QuantumChannel(kraus, 2, ("B", "C"), (2, 2))


def identity_to_b_channel():
    return QuantumChannel((np.eye(2).reshape(2, 2),), 2, ("B", "C"), (2, 1))


def part(*bs):
    return Partition(tuple(tuple(b) for b in bs))


def test_channel_output_copy_gives_ghz():
    out = channel_output_state(copy_channel(), make_ghz(("R", "A"), 2))
    assert trace_distance(out, make_ghz(("R", "B", "C"), 2)) < 1e-10


def test_channel_output_constant_is_product():
    out = channel_output_state(constant_channel(), make_ghz(("R", "A"), 2))
    red = out.matrix
    # output independent of R: B and C are in |00>
    probs = np.real(np.diag(red)).reshape(2, 4)
    assert np.allclose(probs[:, 1:], 0, atol=1e-12)


def test_channel_output_identity_to_b():
    out = channel_output_state(identity_to_b_channel(), make_ghz(("R", "A"), 2))
    assert out.labels == ("R", "B", "C")
    assert out.dims == (2, 2, 1)
    assert abs(np.trace(out.matrix).real - 1) < 1e-9


def test_constant_channel_bounds_zero():
    constraints = evaluate_bounds(constant_channel(), None, FAST_SQUASH)
    assert len(constraints) == 4
    for rc in constraints:
        assert abs(rc.bound_bits) < 1e-6


def test_copy_channel_r_bc_bound():
    p = part(("R",), ("B", "C"))
    (rc,) = evaluate_bounds(copy_channel(), [p], FAST_SQUASH)
    assert rc.bound_bits >= 1.0 - 1e-6
    assert rc.measure_used == "esq"
    assert rc.weights() == {("B", "C", "R"): 1.0, ("B", "R"): 1.0, ("C", "R"): 1.0}


def test_identity_to_b_cut_bounds():
    ch = identity_to_b_channel()
    rb_c = part(("B", "R"), ("C",))
    rc_b = part(("C", "R"), ("B",))
    constraints = evaluate_bounds(ch, [rb_c, rc_b], FAST_SQUASH)
    by = {rc.partition: rc for rc in constraints}
    assert abs(by[rb_c].bound_bits) < 1e-6  # C is trivial
    assert by[rc_b].bound_bits >= 1.0 - 1e-6  # bipartite identity channel


def test_two_receiver_report_coefficients():
    report = two_receiver_report(copy_channel(), FAST_SQUASH)
    assert set(report) == {"b_cut", "c_cut", "bc_cut", "tripartite"}
    assert report["b_cut"]["coefficients"] == (1, 0, 1, 1, 1, 0, 1, 1)
    assert report["c_cut"]["coefficients"] == (0, 1, 1, 1, 0, 1, 1, 1)
    assert report["bc_cut"]["coefficients"] == (1, 1, 0, 1, 1, 1, 0, 1)
    assert report["tripartite"]["coefficients"] == (1, 1, 1, 1.5, 1, 1, 1, 1.5)
    assert report["bc_cut"]["bound_bits"] >= 1.0 - 1e-6


def test_squash_config_stores_numpy_integers_as_ints():
    # a numpy seed would reach the metadata as np.int64, which json refuses
    config = SquashConfig(restarts=np.int64(2), seed=np.int64(3))
    assert type(config.restarts) is int and type(config.seed) is int
    metadata = two_receiver_report(copy_channel(), config)["b_cut"]["metadata"]
    assert type(metadata["seed"]) is int
    json.dumps(metadata)


def test_two_receiver_report_rejects_wrong_count():
    ch = QuantumChannel((np.eye(2),), 2, ("B",), (2,))
    with pytest.raises(SpecError):
        two_receiver_report(ch, FAST_SQUASH)


def test_receiver_relabeling_symmetry():
    k = np.zeros((4, 2))
    k[0, 0] = 1
    k[3, 1] = 1
    swapped = QuantumChannel((k,), 2, ("C", "B"), (2, 2))
    p1 = part(("R", "C"), ("B",))
    (rc1,) = evaluate_bounds(copy_channel(), [p1], FAST_SQUASH)
    p2 = part(("R", "B"), ("C",))
    (rc2,) = evaluate_bounds(swapped, [p2], FAST_SQUASH)
    assert abs(rc1.bound_bits - rc2.bound_bits) < 1e-6


def test_metadata_reports_exactness():
    p = part(("R",), ("B", "C"))
    (rc,) = evaluate_bounds(copy_channel(), [p], FAST_SQUASH)
    assert rc.metadata["estimate_only"] is False
    assert abs(sum(rc.metadata["schmidt"]) - 1.0) < 1e-9


def test_output_pure_within_is_pure_tolerance_is_exact():
    # a copy channel leaking 5e-10 of its weight: omega has rank 2 but passes is_pure
    eps = 5e-10
    leak = np.zeros((4, 2))
    leak[1, 0] = leak[2, 1] = 1
    copy = copy_channel().kraus_ops[0]
    channel = QuantumChannel((np.sqrt(1 - eps) * copy, np.sqrt(eps) * leak), 2, ("B", "C"), (2, 2))
    (rc,) = evaluate_bounds(channel, [part(("R",), ("B", "C"))], FAST_SQUASH)
    assert rc.metadata["estimate_only"] is False
    assert abs(rc.bound_bits - 1.0) < 1e-6


def _output(channel, params):
    vec = _input_amplitudes(params, channel.input_dim)[0].ravel()
    d = channel.input_dim
    phi = MultipartiteState(np.outer(vec, vec.conj()), ("R", "A"), (d, d))
    return channel_output_state(channel, phi)


def _search_points(d, count, seed):
    rng = np.random.default_rng(seed)
    return [real_point(np.eye(d))] + [rng.uniform(-2, 2, 2 * d * d) for _ in range(count)]


def _surrogate(channel, partition):
    """params -> (value, gradient) of the input search's surrogate on one
    partition: a one-row batch of ``_input_value_and_grad``, whose negation
    ``minimize`` minimizes, negated back."""
    v, shape, labels = _stinespring(channel)
    evaluate = _measure_kernel(shape, labels, [(partition, list(Measure) + _guard(partition))])
    value_and_grad = _input_value_and_grad(evaluate, v)

    def at(params):
        values, grads = value_and_grad(params[None], np.zeros(1, dtype=int))
        return -values[0], -grads[0]

    return at


def test_surrogate_equals_conditioning_on_rank_purifier():
    # four Kraus operators: the environment is larger than the purifier rank
    channel = random_channel(np.random.default_rng(1), 2, ("B", "C"), (2, 2), env_dim=4)
    for partition in nontrivial_partitions(("R", "B", "C")):
        surrogate = _surrogate(channel, partition)
        for params in _search_points(2, 4, 0):
            phi = purify(_output(channel, params), "E")

            def reference(measure):
                cmi = cmi_total if measure is Measure.E_SQ else cmi_dual_measure
                return 0.5 * cmi(phi, partition, {"E"})

            expect = min(reference(m) for m in _measures(partition))
            assert abs(surrogate(params)[0] - expect) < 1e-10


def test_surrogate_is_exact_on_copy_channel():
    channel = copy_channel()
    for partition in nontrivial_partitions(("R", "B", "C")):
        surrogate = _surrogate(channel, partition)
        for params in _search_points(2, 4, 1):
            omega = _output(channel, params)
            expect = min(esq_exact_pure(omega, partition, m) for m in _measures(partition))
            assert abs(surrogate(params)[0] - expect) < 1e-10


def test_size_cap_checked_before_the_search(monkeypatch):
    # 16-dim output state whose rank can reach the 8 Kraus operators
    channel = random_channel(np.random.default_rng(0), 2, ("B", "C"), (2, 4), env_dim=8)

    def no_search(*args, **kwargs):
        raise AssertionError("the input search ran before the size check")

    refused = []
    real_check = rates._check_size

    def spy(n, d_e):
        try:
            real_check(n, d_e)
        except TooLarge as exc:
            refused.append(exc)
            raise

    monkeypatch.setattr(rates, "minimize", no_search)
    monkeypatch.setattr(rates, "_check_size", spy)
    # the squash's worst case, d_e = min(#Kraus, 16) = 8
    message = "^state dim 16 x squash output dim 8 exceeds cap 64$"
    with pytest.raises(TooLarge, match=message) as info:
        evaluate_bounds(channel)
    assert refused == [info.value]


SURROGATE_CHANNELS = {
    "seed0": lambda: random_channel(np.random.default_rng(0), 2, ("B", "C"), (2, 2), env_dim=2),
    # four Kraus operators: the environment is larger than the output rank
    "seed1-4kraus": lambda: random_channel(
        np.random.default_rng(1), 2, ("B", "C"), (2, 2), env_dim=4
    ),
    "copy": copy_channel,
    "qutrit-input": lambda: random_channel(
        np.random.default_rng(2), 3, ("B", "C"), (2, 2), env_dim=2
    ),
}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(SURROGATE_CHANNELS)),
    choice=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_surrogate_gradient_matches_central_differences(name, choice, seed):
    channel = SURROGATE_CHANNELS[name]()
    partition = nontrivial_partitions(("R", "B", "C"))[choice]
    value_and_grad = _surrogate(channel, partition)
    rng = np.random.default_rng(seed)
    d = channel.input_dim
    params = rng.uniform(-2, 2, 2 * d * d)
    value, grad = value_and_grad(params)
    step = 1e-6
    for i in range(len(params)):
        e = np.zeros_like(params)
        e[i] = step
        fd = (value_and_grad(params + e)[0] - value_and_grad(params - e)[0]) / (2 * step)
        assert abs(grad[i] - fd) <= 1e-6 * max(1.0, abs(fd)), (i, grad[i], fd)


def test_input_search_reaches_the_bc_cut_maximum(monkeypatch):
    # the surrogate's maximum over inputs on this cut is 0.81673938
    channel = SURROGATE_CHANNELS["seed0"]()
    seen = []

    def recording(*args):
        value_and_grad = _input_value_and_grad(*args)

        def wrapped(params, rows):
            values, grads = value_and_grad(params, rows)
            seen.extend((-values).tolist())
            return values, grads

        return wrapped

    monkeypatch.setattr(rates, "_input_value_and_grad", recording)
    evaluate_bounds(channel, [part(("R",), ("B", "C"))])
    assert max(seen) >= 0.8167393


def test_seed0_report_values():
    # the seed-0 channel at the default searches, as bounds-finite prints it
    report = two_receiver_report(SURROGATE_CHANNELS["seed0"]())
    expected = {
        "b_cut": 0.70690847,
        "c_cut": 0.76446865,
        "bc_cut": 0.71442039,
        "tripartite": 1.03590234,
    }
    for name, value in expected.items():
        assert abs(report[name]["bound_bits"] - value) < 1e-6, (name, report[name]["bound_bits"])


def test_repeated_partition_rejected(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the input search ran before the partitions were checked")

    monkeypatch.setattr(rates, "minimize", no_search)
    with pytest.raises(SpecError, match=r"partition B\|C\|R is repeated"):
        evaluate_bounds(copy_channel(), [part("R", "B", "C"), part("C", "B", "R")])


def test_evaluate_bounds_reads_a_generator_of_partitions_once():
    parts = [part(("R",), ("B", "C")), part(("R", "B"), ("C",))]
    once = evaluate_bounds(copy_channel(), (p for p in parts), FAST_SQUASH)
    assert once == evaluate_bounds(copy_channel(), parts, FAST_SQUASH)


def test_one_block_partition_rejected_before_the_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the input search ran before the partitions were checked")

    monkeypatch.setattr(rates, "minimize", no_search)
    with pytest.raises(SpecError, match=r"partition B,C,R has one block"):
        evaluate_bounds(copy_channel(), [part("R", "B", "C"), part(("R", "B", "C"))])


@pytest.mark.parametrize(
    "build, error, fragment",
    [
        (lambda: channel_output_state(copy_channel(), make_ghz(("R", "B"), 2)), DimMismatch,
         "input must live on labels {R, A}"),
        (lambda: channel_output_state(
            copy_channel(), MultipartiteState(np.eye(4) / 4, ("R", "A"), (2, 2))
        ), QbcError, "channel input must be pure"),
        (lambda: evaluate_bounds(QuantumChannel((np.eye(2),), 2, ("R",), (2,))), SpecError,
         "'R' is reserved for the sender system"),
        (lambda: evaluate_bounds(copy_channel(), [part(("R",), ("B",))]), SpecError,
         "partition B|R does not cover ('R', 'B', 'C')"),
        # refused before the input search, whose reshape would raise a bare ValueError
        (lambda: evaluate_bounds(copy_channel(), []), SpecError, "no partitions to bound"),
        # refused before the report names its cuts, one of which would repeat R
        (lambda: two_receiver_report(QuantumChannel((np.eye(4),), 4, ("R", "C"), (2, 2))),
         SpecError, "'R' is reserved for the sender system"),
    ],
    ids=["output-state-labels", "output-state-mixed-input", "receiver-named-R",
         "partition-short-of-ground", "no-partitions", "report-receiver-named-R"],
)
def test_invalid_arguments_refused(build, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        build()


def _input_from_rho(rho):
    """Search parameters of the input phi = sqrt(rho)^T, whose rho_A is rho."""
    w, u = np.linalg.eigh(rho)
    phi = ((u * np.sqrt(w)) @ u.conj().T).T
    return real_point(phi)


def _gap_from_full_gradient(channel, partition, params):
    """G = df/d rho_A from the kernel's unprojected gradient with respect to
    conj(phi), which is phi G^T, and the gap lambda_max(G) - tr(G rho_A)."""
    d = channel.input_dim
    v, shape, labels = _stinespring(channel)
    evaluate = _measure_kernel(shape, labels, [(partition, _measures(partition))])
    phi = _input_amplitudes(params, d)[0]
    values, grad = evaluate((phi @ v).reshape((1,) + shape), [0])
    g_phi = grad(np.argmin(values, axis=1))[0].reshape(d, -1) @ v.conj().T
    g = np.linalg.solve(phi, g_phi).T
    rho = phi.T @ phi.conj()
    gap = np.linalg.eigvalsh((g + g.conj().T) / 2)[-1] - np.trace(g @ rho).real
    return g, rho, gap


def test_report_compiles_one_input_kernel(monkeypatch):
    # the input search, the achievable-rate guard, and the squash's identity
    # and search kernels (one purifier dimension): the guard's sums are read
    # off the input kernel's cuts, not a kernel of their own
    compiled = []
    real = measures._pure_entropy_sums

    def counting(*args):
        compiled.append(args[0])
        return real(*args)

    monkeypatch.setattr(measures, "_pure_entropy_sums", counting)
    # any binding rates may hold of its own counts too
    monkeypatch.setattr(rates, "_pure_entropy_sums", counting, raising=False)
    two_receiver_report(SURROGATE_CHANNELS["seed0"]())
    assert compiled == [(2, 2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2, 2)]


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(SURROGATE_CHANNELS)),
    choice=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_input_gap_matches_full_gradient(name, choice, seed):
    channel = SURROGATE_CHANNELS[name]()
    partition = nontrivial_partitions(("R", "B", "C"))[choice]
    value_and_grad = _surrogate(channel, partition)
    rng = np.random.default_rng(seed)
    d = channel.input_dim
    params = rng.uniform(-2, 2, 2 * d * d)
    g, rho, gap = _gap_from_full_gradient(channel, partition, params)
    assume(np.linalg.eigvalsh(rho)[0] > 1e-3)
    # _input_gap reads minimize's gradient, the surrogate's negated
    assert abs(_input_gap(params, -value_and_grad(params)[1], d) - gap) <= 1e-12 * max(1, gap)
    # G against central differences of the surrogate along a traceless
    # Hermitian direction, through inputs with the displaced rho_A
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = h + h.conj().T
    h -= np.trace(h) / d * np.eye(d)
    step = 1e-6
    fd = (
        value_and_grad(_input_from_rho(rho + step * h))[0]
        - value_and_grad(_input_from_rho(rho - step * h))[0]
    ) / (2 * step)
    exact = np.trace(g @ h).real
    assert abs(exact - fd) <= 1e-6 * max(1.0, abs(fd)), (exact, fd)


@pytest.mark.parametrize("name", sorted(SURROGATE_CHANNELS))
def test_certified_gap_bounds_the_surrogate(monkeypatch, name):
    channel = SURROGATE_CHANNELS[name]()
    d = channel.input_dim
    seen = []

    def recording(*args):
        value_and_grad = _input_value_and_grad(*args)

        def wrapped(params, rows):
            values, grads = value_and_grad(params, rows)
            seen.extend((-values).tolist())
            return values, grads

        return wrapped

    monkeypatch.setattr(rates, "_input_value_and_grad", recording)
    rng = np.random.default_rng(7)
    for partition in nontrivial_partitions(("R", "B", "C")):
        seen.clear()
        (rc,) = evaluate_bounds(channel, [partition], squash_cfg=FAST_SQUASH)
        assert rc.input_gap_bits <= rates.GAP_TOL, partition
        best = max(seen)
        surrogate = _surrogate(channel, partition)
        for _ in range(200):
            value = surrogate(rng.uniform(-1, 1, 2 * d * d))[0]
            assert value <= best + rc.input_gap_bits + 1e-12, (partition, value, best)


def test_certified_search_runs_once_per_cut(monkeypatch):
    calls = []
    real_minimize = rates.minimize

    def recording(fun, x0, **kwargs):
        res = real_minimize(fun, x0, **kwargs)
        calls.append((len(x0), res.nfev))
        return res

    monkeypatch.setattr(rates, "minimize", recording)
    constraints = evaluate_bounds(SURROGATE_CHANNELS["seed0"](), None, squash_cfg=FAST_SQUASH)
    # one batch, one row per cut
    ((rows, nfev),) = calls
    assert rows == len(constraints) == 4
    assert all(rc.input_gap_bits <= rates.GAP_TOL for rc in constraints)
    # 152 evaluations in 20 searches without the certificate
    assert nfev <= 40


@pytest.mark.parametrize("seed", range(3))
def test_partition_bound_is_the_same_alone_or_in_the_report(seed):
    # each partition's searches are rows of shared batches, whose arithmetic
    # is each row's own: alone, a partition gets the same numbers, bit for bit
    channel = random_channel(np.random.default_rng(seed), 2, ("B", "C"), (2, 2), env_dim=1 + seed)
    for rc in evaluate_bounds(channel):
        (alone,) = evaluate_bounds(channel, [rc.partition])
        assert alone.bound_bits == rc.bound_bits
        assert alone.input_gap_bits == rc.input_gap_bits
        assert alone.metadata == rc.metadata


def test_rank_deficient_input_has_no_gap():
    grad = np.random.default_rng(0).normal(size=8)
    rank_one = np.array([1.0, 0, 0, 0, 0, 0, 0, 0])
    below_floor = np.array([1.0, 0, 0, 1e-5, 0, 0, 0, 0])
    for params in (rank_one, below_floor):
        assert _input_gap(params, grad, 2) == math.inf
    assert math.isfinite(_input_gap(np.array([1.0, 0, 0, 1e-3, 0, 0, 0, 0]), grad, 2))


def flag_channel():
    # a qubit copy channel on span{|0>, |1>}; |2> goes to |00> with a flag in
    # the environment, so the best input has rank 2 and no gap
    copy = np.zeros((4, 3))
    copy[0, 0] = copy[3, 1] = 1
    flag = np.zeros((4, 3))
    flag[0, 2] = 1
    return QuantumChannel((copy, flag), 3, ("B", "C"), (2, 2))


def test_uncertified_search_runs_once_per_cut(monkeypatch):
    calls = []
    real_minimize = rates.minimize

    def recording(fun, x0, **kwargs):
        res = real_minimize(fun, x0, **kwargs)
        calls.append((x0, kwargs))
        return res

    monkeypatch.setattr(rates, "minimize", recording)
    report = two_receiver_report(flag_channel())
    expected = {"b_cut": 1.0, "c_cut": 1.0, "bc_cut": 1.0, "tripartite": 1.5}
    for name, value in expected.items():
        assert abs(report[name]["bound_bits"] - value) < 1e-9, name
    # one search per cut, the certifying one from X = I, all in one batch,
    # and nothing after it
    ((x0, kwargs),) = calls
    assert np.array_equal(x0, np.tile(real_point(np.eye(3)), (4, 1)))
    assert kwargs["stop"] is not None
    for rc in evaluate_bounds(flag_channel(), None, FAST_SQUASH):
        assert rc.input_gap_bits == math.inf


UNCERTIFIED_CHANNELS = {
    "flag": flag_channel,
    "isometric-seed1": lambda: random_channel(
        np.random.default_rng(1), 2, ("B", "C"), (2, 2), env_dim=1
    ),
    "isometric-seed5": lambda: random_channel(
        np.random.default_rng(5), 2, ("B", "C"), (2, 2), env_dim=1
    ),
}


@pytest.mark.parametrize("name", sorted(UNCERTIFIED_CHANNELS))
def test_uncertified_search_beats_random_inputs(monkeypatch, name):
    # the surrogate is concave in rho_A, so the one search from X = I reaches
    # its maximum even where no gap certifies it: no random input does better
    channel = UNCERTIFIED_CHANNELS[name]()
    d = channel.input_dim
    found = []
    real_minimize = rates.minimize

    def recording(fun, x0, **kwargs):
        res = real_minimize(fun, x0, **kwargs)
        found.extend((-res.fun).tolist())
        return res

    monkeypatch.setattr(rates, "minimize", recording)
    rng = np.random.default_rng(7)
    uncertified = 0
    for partition in nontrivial_partitions(("R", "B", "C")):
        found.clear()
        (rc,) = evaluate_bounds(channel, [partition], squash_cfg=FAST_SQUASH)
        if rc.input_gap_bits != math.inf:
            continue
        uncertified += 1
        # an uncertified cut reports the search's last point, whose value this is
        (best,) = found
        surrogate = _surrogate(channel, partition)
        for _ in range(200):
            value = surrogate(rng.uniform(-1, 1, 2 * d * d))[0]
            assert value <= best + 1e-12, (partition, value, best)
    assert uncertified > 0  # not a vacuous check


_SINGLE_RAIL_POINTS = [(0.3, 0.2), (0.5, 0.1), (0.2, 0.2), (0.45, 0.45), (0.7, 0.05), (0.1, 0.05)]


@pytest.mark.parametrize("eta_b, eta_c", _SINGLE_RAIL_POINTS)
def test_single_rail_loss_bounds_lie_between_hashing_and_closed_forms(eta_b, eta_c):
    # every qubit input has mean photon number at most 1, so each finite-engine
    # bound lies below the paper's beamsplitter-squash bound at N_s = 1, and
    # each cut bound above the coherent information of the maximally
    # entangled input across that cut, an achievable rate
    channel = single_rail_loss_channel(eta_b, eta_c)
    report = two_receiver_report(channel)
    closed = theorem3_report(eta_b, eta_c, 1).finite_ns
    omega = channel_output_state(channel, make_ghz(("R", "A"), 2))
    h_all = entropy(omega, {"R", "B", "C"})
    cuts = {
        "b_cut": ({"R", "C"}, {"B"}),
        "c_cut": ({"R", "B"}, {"C"}),
        "bc_cut": ({"R"}, {"B", "C"}),
    }
    for name, (x, y) in cuts.items():
        hashing = max(entropy(omega, x), entropy(omega, y)) - h_all
        assert hashing <= report[name]["bound_bits"] <= closed[name], name
    assert 0 <= report["tripartite"]["bound_bits"] <= closed["tripartite"]


GUARD_CHANNELS = {
    "seed0": lambda: random_channel(np.random.default_rng(0), 2, ("B", "C"), (2, 2), env_dim=2),
    "seed1": lambda: random_channel(np.random.default_rng(1), 2, ("B", "C"), (2, 2), env_dim=2),
    "copy": copy_channel,
    **{
        f"single-rail-{eta_b}-{eta_c}": (lambda b=eta_b, c=eta_c: single_rail_loss_channel(b, c))
        for eta_b, eta_c in _SINGLE_RAIL_POINTS
    },
}


@pytest.mark.parametrize("name", list(GUARD_CHANNELS))
def test_bipartite_bounds_lie_above_the_coherent_information(name):
    constraints = evaluate_bounds(GUARD_CHANNELS[name]())
    guarded = [rc for rc in constraints if len(rc.partition.blocks) == 2]
    assert len(guarded) == 3
    for rc in guarded:
        assert isinstance(rc.achievable_bits, float)
        assert rc.bound_bits >= rc.achievable_bits - 1e-9, rc.partition
    assert [rc.achievable_bits for rc in constraints if rc not in guarded] == [None]
    # the guard is library state, not printed metadata
    assert all("achievable_bits" not in rc.metadata for rc in constraints)


def test_achievable_bits_is_the_coherent_information_at_the_reported_input(monkeypatch):
    channel = GUARD_CHANNELS["seed0"]()
    found = []
    real_minimize = rates.minimize

    def recording(fun, x0, **kwargs):
        res = real_minimize(fun, x0, **kwargs)
        found.append(res.x)
        return res

    monkeypatch.setattr(rates, "minimize", recording)
    constraints = evaluate_bounds(channel, squash_cfg=FAST_SQUASH)
    (x,) = found
    d = channel.input_dim
    for phi, rc in zip(_input_amplitudes(x, d)[0], constraints):
        if rc.achievable_bits is None:
            continue
        v = phi.reshape(-1)
        omega = channel_output_state(
            channel, MultipartiteState(np.outer(v, v.conj()), ("R", "A"), (d, d))
        )
        x_side, y_side = rc.partition.blocks
        hashing = max(entropy(omega, x_side), entropy(omega, y_side)) - entropy(
            omega, {"R", "B", "C"}
        )
        assert abs(rc.achievable_bits - hashing) < 1e-12, rc.partition


def test_bound_below_the_coherent_information_raises(monkeypatch):
    real_squash = rates._squash_purified

    def squash_to_zero(problems, dims, labels, config):
        return [
            dataclasses.replace(r, value_bits=0.0)
            for r in real_squash(problems, dims, labels, config)
        ]

    monkeypatch.setattr(rates, "_squash_purified", squash_to_zero)
    with pytest.raises(QbcError, match=r"cut B\|C,R: bound 0\.0 bits lies below the achievable"):
        evaluate_bounds(GUARD_CHANNELS["seed0"](), [part(("R", "C"), ("B",))])
    # a cut of three blocks has no guard
    (rc,) = evaluate_bounds(GUARD_CHANNELS["seed0"](), [part("R", "B", "C")])
    assert rc.bound_bits == 0.0


@pytest.mark.parametrize(
    "seed, idle", [(s, 2) for s in range(4)] + [(0, 3), (2, 3)], ids=lambda v: str(v)
)
def test_dimension_one_receivers_leave_no_negative_bound(seed, idle):
    # receivers of dimension 1 carry nothing: a partition with R and B in one
    # block cuts no entanglement, and its subsets that differ only in those
    # receivers share one cut, whose coefficients cancel before they multiply
    # an entropy
    receivers = ("B",) + tuple(f"D{i}" for i in range(idle))
    channel = random_channel(
        np.random.default_rng(seed), 2, receivers, (2,) + (1,) * idle, env_dim=2
    )
    for c in evaluate_bounds(channel):
        assert c.bound_bits >= 0.0, str(c.partition)
        if any({"R", "B"} <= set(block) for block in c.partition.blocks):
            assert c.bound_bits == 0.0, str(c.partition)


def test_input_dimension_one_leaves_receiver_cuts_live():
    # R of dimension 1 is dead, so the cut that holds R alone measures
    # nothing; but omega_BC = sum_k K_k K_k^dag is NPT, so the cuts between
    # the receivers still bound an entangled output: only a cut whose live
    # partition has one block is 0
    channel = random_channel(np.random.default_rng(0), 1, ("B", "C"), (2, 2), env_dim=2)
    omega = sum(k @ k.conj().T for k in channel.kraus_ops)
    transposed = omega.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    assert np.linalg.eigvalsh(transposed)[0] < -0.18
    bounds = {str(c.partition): c for c in evaluate_bounds(channel)}
    assert bounds["B,C|R"].bound_bits == 0.0
    assert bounds["B|C|R"].bound_bits > 0.0
    for cut in ("B|C,R", "B,R|C"):
        assert bounds[cut].bound_bits >= bounds[cut].achievable_bits > 0.0, cut
