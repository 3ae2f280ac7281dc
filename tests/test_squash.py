import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qbcbound import (
    LabelNotFound,
    Measure,
    MultipartiteState,
    NotPure,
    Partition,
    PrivateStateSpec,
    QbcError,
    QuantumChannel,
    SpecError,
    SquashConfig,
    TooLarge,
    apply_channel,
    cmi_dual_measure,
    cmi_total,
    esq_cq_average,
    esq_exact_pure,
    esq_upper_variational,
    make_ghz,
    make_private_state,
    nontrivial_partitions,
    purify,
    tensor,
)
from qbcbound import measures, squash
from qbcbound.optimize import complex_point, real_point
from qbcbound.sampling import random_pure_state, random_state
from qbcbound.squash import (
    _isometry_and_pullback,
    _measure_kernel,
    _squash_value_and_grad,
)
from qbcbound.states import _purification, partial_trace


def part(*bs):
    return Partition(tuple(tuple(b) for b in bs))


def identity_kraus(d_e):
    """K |e> = |e>|0>, rows over (E', ancilla): identity squashing."""
    k = np.zeros((d_e, 2, d_e), dtype=complex)
    k[:, 0, :] = np.eye(d_e)
    return k.reshape(2 * d_e, d_e)


def squash_objective(psi, dims, labels, partition, measure):
    """params -> (value, gradient) of the squash of one problem: a one-row
    batch of ``_squash_value_and_grad``."""
    owner = np.zeros(1, dtype=int)
    evaluate = _measure_kernel(dims + (psi.shape[1], 2), labels, [(partition, [measure])])
    value_and_grad = _squash_value_and_grad(evaluate, psi[None], owner)

    def at(params):
        values, grads = value_and_grad(params[None], owner)
        return values[0], grads[0]

    return at


def entropy_bits(rho):
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-12]
    return float(-(w * np.log2(w)).sum())


def test_ghz_pure_values():
    ghz = make_ghz(("A", "B", "C"), 2)
    p = part(("A",), ("B",), ("C",))
    for m in (Measure.E_SQ, Measure.E_SQ_TILDE):
        assert abs(esq_exact_pure(ghz, p, m) - 1.5) < 1e-9


def test_bell_value():
    bell = make_ghz(("A", "B"), 2)
    assert abs(esq_exact_pure(bell, part(("A",), ("B",))) - 1.0) < 1e-9


def test_product_pure_zero():
    rng = np.random.default_rng(0)
    st = tensor(
        [random_pure_state(rng, ("A",), (2,)), random_pure_state(rng, ("B",), (2,))]
    )
    assert abs(esq_exact_pure(st, part(("A",), ("B",)))) < 1e-9


def test_exact_pure_rejects_mixed():
    mixed = MultipartiteState(np.eye(4) / 4, ("A", "B"), (2, 2))
    with pytest.raises(NotPure):
        esq_exact_pure(mixed, part(("A",), ("B",)))


def test_partition_leaving_a_label_out_squashes_it():
    # GHZ on A, B is mixed and separable: C joins the purifier, and the squash
    # conditions on it
    ghz = make_ghz(("A", "B", "C"), 2)
    p = part(("A",), ("B",))
    with pytest.raises(NotPure):
        esq_exact_pure(ghz, p)
    with pytest.raises(NotPure):
        esq_cq_average([(1.0, ghz)], p)
    res = esq_upper_variational(ghz, p)
    assert -1e-12 <= res.value_bits <= 1e-9
    assert "trivial" not in res.extension_description
    # a pure marginal stays exact, with the other labels discarded
    product = tensor([make_ghz(("A", "B"), 2), make_ghz(("C", "D"), 3)])
    exact = esq_exact_pure(product, p)
    assert exact == esq_upper_variational(product, p).value_bits
    assert abs(exact - 1.0) < 1e-12


def test_partition_label_missing_from_state():
    ghz = make_ghz(("A", "B", "C"), 2)
    for run in (esq_exact_pure, esq_upper_variational):
        with pytest.raises(LabelNotFound):
            run(ghz, part(("A",), ("Z",)))


def _half_measure_by_partial_traces(state, partition, measure):
    """Half of either measure over ``partition`` from partial traces of the
    density matrix: the reference for the exact value on a pure state."""
    labels = set(partition.ground)

    def h(subset):
        return entropy_bits(partial_trace(state, subset).matrix)

    blocks = [set(b) for b in partition.blocks]
    if measure is Measure.E_SQ:
        value = sum(h(b) for b in blocks) - h(labels)
    else:
        value = sum(h(labels - b) for b in blocks) - (len(blocks) - 1) * h(labels)
    return value / 2


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(2, 3), min_size=2, max_size=4),
    noise=st.one_of(st.just(0.0), st.floats(0.0, 9e-10)),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_value_is_the_variational_value(dims, noise, seed):
    # one exact path: esq_exact_pure returns what esq_upper_variational does,
    # bit for bit, also under white noise that is_pure accepts
    labels = ("A", "B", "C", "D")[: len(dims)]
    dim = int(np.prod(dims))
    pure = random_pure_state(np.random.default_rng(seed), labels, dims)
    state = MultipartiteState(
        (1 - noise) * pure.matrix + noise * np.eye(dim) / dim, labels, tuple(dims)
    )
    assert state.is_pure()
    for partition in nontrivial_partitions(labels):
        for measure in Measure:
            exact = esq_exact_pure(state, partition, measure)
            assert exact == esq_upper_variational(state, partition, measure).value_bits
            if noise == 0.0:
                reference = _half_measure_by_partial_traces(state, partition, measure)
                assert abs(exact - reference) <= 1e-12


def test_exact_values_never_reach_the_density_engine(monkeypatch):
    def density_engine(*args, **kwargs):
        raise AssertionError("an exact value went through a density matrix")

    monkeypatch.setattr(measures, "_entropy_sum", density_engine)
    monkeypatch.setattr(measures, "partial_trace", density_engine)
    ghz = make_ghz(("A", "B", "C"), 2)
    p = part(("A",), ("B",), ("C",))
    assert abs(esq_exact_pure(ghz, p) - 1.5) < 1e-12
    assert abs(esq_cq_average([(0.5, ghz), (0.5, ghz)], p) - 1.5) < 1e-12


def test_cq_average():
    ghz = make_ghz(("A", "B", "C"), 2)
    p = part(("A",), ("B",), ("C",))
    assert abs(esq_cq_average([(1.0, ghz)], p) - 1.5) < 1e-9
    rng = np.random.default_rng(1)
    prod = tensor(
        [
            random_pure_state(rng, ("A",), (2,)),
            random_pure_state(rng, ("B",), (2,)),
            random_pure_state(rng, ("C",), (2,)),
        ]
    )
    assert abs(esq_cq_average([(0.5, ghz), (0.5, prod)], p) - 0.75) < 1e-9


def test_cq_average_reads_a_generator_once():
    ghz = make_ghz(("A", "B", "C"), 2)
    p = part(("A",), ("B",), ("C",))
    value = esq_cq_average(((q, s) for q, s in [(1.0, ghz)]), p)
    assert value == esq_cq_average([(1.0, ghz)], p)
    assert abs(value - 1.5) < 1e-9


def test_cq_average_two_bell_flags():
    bell = make_ghz(("A", "B"), 2)
    # phase-flipped Bell state
    v = np.zeros(4, dtype=complex)
    v[0], v[3] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    bell2 = MultipartiteState(np.outer(v, v.conj()), ("A", "B"), (2, 2))
    val = esq_cq_average([(0.5, bell), (0.5, bell2)], part(("A",), ("B",)))
    assert abs(val - 1.0) < 1e-9


def test_grouping_monotone_on_random_pure():
    rng = np.random.default_rng(2)
    fine = part(("A",), ("B",), ("C",))
    for _ in range(10):
        psi = random_pure_state(rng, ("A", "B", "C"), (2, 2, 2))
        vf = esq_exact_pure(psi, fine)
        for coarse in nontrivial_partitions(("A", "B", "C")):
            if len(coarse.blocks) < 3:
                assert esq_exact_pure(psi, coarse) <= vf + 1e-9


def test_product_state_reduction():
    rng = np.random.default_rng(3)
    local = random_pure_state(rng, ("A",), (2,))
    rest = random_pure_state(rng, ("B", "C"), (2, 2))
    joint = tensor([local, rest])
    v_joint = esq_exact_pure(joint, part(("A",), ("B",), ("C",)))
    v_rest = esq_exact_pure(rest, part(("B",), ("C",)))
    assert abs(v_joint - v_rest) < 1e-9


def test_variational_matches_exact_on_pure():
    rng = np.random.default_rng(4)
    cfg = SquashConfig(restarts=2)
    for _ in range(5):
        psi = random_pure_state(rng, ("A", "B"), (2, 2))
        p = part(("A",), ("B",))
        res = esq_upper_variational(psi, p, Measure.E_SQ, cfg)
        assert abs(res.value_bits - esq_exact_pure(psi, p)) < 1e-6


def test_variational_separable_correlated_state():
    m = np.zeros((4, 4))
    m[0, 0] = m[3, 3] = 0.5
    st = MultipartiteState(m, ("A", "B"), (2, 2))
    cfg = SquashConfig(restarts=6, seed=0)
    res = esq_upper_variational(st, part(("A",), ("B",)), Measure.E_SQ, cfg)
    # true value is 0; record the achievable regression level
    assert -1e-9 <= res.value_bits <= 0.25


def test_variational_private_state_sandwich():
    spec = PrivateStateSpec(2, 2, (2, 1))
    st = make_private_state(spec, ("kA", "kB"), ("sA", "sB"))
    p = part(("kA", "sA"), ("kB", "sB"))
    cfg = SquashConfig(restarts=3, seed=0)
    res = esq_upper_variational(st, p, Measure.E_SQ, cfg)
    assert res.value_bits >= 1.0 - 1e-9
    assert res.value_bits <= 1.0 + 1e-3


def test_variational_restart_monotone():
    m = np.zeros((4, 4))
    m[0, 0] = m[3, 3] = 0.5
    st = MultipartiteState(m, ("A", "B"), (2, 2))
    p = part(("A",), ("B",))
    vals = []
    for restarts in (1, 3, 5):
        cfg = SquashConfig(restarts=restarts, seed=1)
        vals.append(esq_upper_variational(st, p, Measure.E_SQ, cfg).value_bits)
    assert vals[1] <= vals[0] + 1e-12
    assert vals[2] <= vals[1] + 1e-12


def test_variational_never_above_trivial_squashing():
    rng = np.random.default_rng(6)
    st = random_state(rng, ("A", "B"), (2, 2), rank=2)
    p = part(("A",), ("B",))
    cfg = SquashConfig(restarts=2, seed=0)
    res = esq_upper_variational(st, p, Measure.E_SQ, cfg)
    trivial = 0.5 * cmi_total(st, p)
    assert res.value_bits <= trivial + 1e-9


def test_dimension_cap():
    ghz = make_ghz(("A", "B", "C"), 4)
    # full rank: 64 x 64 is over the cap of 64
    with pytest.raises(TooLarge):
        esq_upper_variational(
            MultipartiteState(np.eye(64) / 64, ("A", "B", "C"), (4, 4, 4)),
            part(("A",), ("B",), ("C",)),
        )
    # pure states of any size are fine through the exact path
    assert abs(esq_exact_pure(ghz, part(("A",), ("B",), ("C",))) - 3.0) < 1e-9


def refusal_spy(monkeypatch, module):
    """Wrap ``module._check_size``; the returned list collects its refusals."""
    refused = []
    real_check = module._check_size

    def spy(n, d_e):
        try:
            real_check(n, d_e)
        except TooLarge as exc:
            refused.append(exc)
            raise

    monkeypatch.setattr(module, "_check_size", spy)
    return refused


def test_size_cap_checked_before_the_kernel(monkeypatch):
    def no_kernel(*args, **kwargs):
        raise AssertionError("the squash kernel ran before the size check")

    monkeypatch.setattr(squash, "_measure_kernel", no_kernel)
    refused = refusal_spy(monkeypatch, squash)
    mixed = MultipartiteState(np.eye(27) / 27, ("A", "B", "C"), (3, 3, 3))
    message = "^state dim 27 x squash output dim 27 exceeds cap 64$"
    with pytest.raises(TooLarge, match=message) as info:
        esq_upper_variational(mixed, part(("A",), ("B",), ("C",)))
    assert refused == [info.value]


def test_size_cap_admits_its_boundary(monkeypatch):
    # a 3-qubit rank-8 state: n * d_e = 8 * 8 = 64, the cap itself; at one
    # restart no search runs
    def no_search(*args, **kwargs):
        raise AssertionError("a search ran at one restart")

    monkeypatch.setattr(squash, "minimize", no_search)
    refused = refusal_spy(monkeypatch, squash)
    st = random_state(np.random.default_rng(9), ("A", "B", "C"), (2, 2, 2), rank=8)
    p = part(("A",), ("B", "C"))
    res = esq_upper_variational(st, p, Measure.E_SQ, SquashConfig(restarts=1))
    assert refused == []
    assert res.extension_description == {"params": None}
    assert abs(res.value_bits - 0.5 * cmi_total(st, p)) < 1e-12


@pytest.mark.parametrize("run", [esq_exact_pure, esq_upper_variational])
def test_one_block_partition_rejected_before_any_work(monkeypatch, run):
    def no_work(*args, **kwargs):
        raise AssertionError("the squash ran before the partition was checked")

    monkeypatch.setattr(squash, "_marginal", no_work)
    monkeypatch.setattr(squash, "minimize", no_work)
    mixed = random_state(np.random.default_rng(0), ("A", "B", "C"), (2, 2, 2), rank=3)
    for state in (mixed, make_ghz(("A", "B", "C"), 2)):
        with pytest.raises(SpecError, match=r"^partition A,B,C has one block"):
            run(state, part(("A", "B", "C")))


@pytest.mark.parametrize(
    "run",
    [
        lambda state, p: Measure("x"),
        lambda state, p: esq_upper_variational(state, p, "x"),
        lambda state, p: esq_exact_pure(state, p, "x"),
        lambda state, p: esq_cq_average([(1.0, state)], p, "x"),
    ],
    ids=["measure", "variational", "exact-pure", "cq-average"],
)
def test_unknown_measure_refused_before_any_work(monkeypatch, run):
    def no_work(*args, **kwargs):
        raise AssertionError("the squash ran before the measure was checked")

    monkeypatch.setattr(squash, "_reduced_purification", no_work)
    with pytest.raises(SpecError, match=r"^unknown measure 'x'$"):
        run(make_ghz(("A", "B"), 2), part(("A",), ("B",)))


@pytest.mark.parametrize("noise", [0.0, 9e-10])
def test_variational_exact_on_large_pure_state(monkeypatch, noise):
    # 125 dimensions with the default cap of 64: a pure state needs no search,
    # nor a generator for its starts, also when white noise below the is_pure
    # tolerance leaves it full rank
    ghz = make_ghz(("A", "B", "C"), 5)
    noisy = (1 - noise) * ghz.matrix + noise * np.eye(125) / 125
    state = MultipartiteState(noisy, ghz.labels, ghz.dims)

    def no_generator(seed):
        raise AssertionError("a pure state built a generator")

    monkeypatch.setattr(squash.np.random, "default_rng", no_generator)
    res = esq_upper_variational(state, part(("A",), ("B",), ("C",)))
    assert abs(res.value_bits - 1.5 * np.log2(5)) < 1e-9
    assert res.converged
    assert res.extension_description == {"trivial": True}


@pytest.mark.parametrize(
    "make, fragment",
    [
        (lambda: SquashConfig(seed=-1), "seed must be at least 0"),
        (lambda: SquashConfig(seed=True), "seed must be an integer"),
        (lambda: esq_cq_average(
            [(float("nan"), make_ghz(("A", "B"), 2))], part(("A",), ("B",))
        ), "probabilities must be non-negative"),
        (lambda: esq_cq_average(
            [(1.5, make_ghz(("A", "B"), 2)), (-0.5, make_ghz(("A", "B"), 2))],
            part(("A",), ("B",)),
        ), "probabilities must be non-negative"),
        (lambda: esq_cq_average(
            [(0.5, make_ghz(("A", "B"), 2)), (0.25, make_ghz(("A", "B"), 2))],
            part(("A",), ("B",)),
        ), "probabilities must sum to 1"),
        # an ensemble is a collection of (probability, state) pairs, each
        # probability a real number that is not a bool
        (lambda: esq_cq_average(5, part(("A",), ("B",))), "^ensemble 5 is not a collection$"),
        (lambda: esq_cq_average([1.0], part(("A",), ("B",))),
         "^ensemble entry 0 1.0 is not a collection$"),
        (lambda: esq_cq_average([("x", make_ghz(("A", "B"), 2))], part(("A",), ("B",))),
         "^probability of ensemble entry 0 must be a real number$"),
        (lambda: esq_cq_average([(True, make_ghz(("A", "B"), 2))], part(("A",), ("B",))),
         "^probability of ensemble entry 0 must be a real number$"),
        (lambda: esq_cq_average([(1.0, 5)], part(("A",), ("B",))),
         r"^ensemble entry 0 is not a \(probability, state\) pair$"),
        (lambda: esq_cq_average(
            [(0.5, make_ghz(("A", "B"), 2)), (0.5, make_ghz(("A", "B"), 2), 3)],
            part(("A",), ("B",)),
        ), r"^ensemble entry 1 is not a \(probability, state\) pair$"),
    ],
    ids=[
        "squash-seed-negative",
        "squash-seed-bool",
        "cq-average-nan-weight",
        "cq-average-negative-weight",
        "cq-average-sum-below-1",
        "cq-average-not-a-collection",
        "cq-average-entry-not-a-pair",
        "cq-average-string-weight",
        "cq-average-bool-weight",
        "cq-average-state-not-a-state",
        "cq-average-entry-of-three",
    ],
)
def test_invalid_settings_rejected(make, fragment):
    with pytest.raises(QbcError, match=fragment):
        make()


@settings(max_examples=60, deadline=None)
@given(
    n_qubits=st.integers(2, 3),
    rank_fraction=st.floats(0.0, 1.0),
    choice=st.integers(0, 10**6),
    measure=st.sampled_from(list(Measure)),
    seed=st.integers(0, 2**32 - 1),
)
def test_vector_objective_matches_density_reference(n_qubits, rank_fraction, choice, measure, seed):
    rng = np.random.default_rng(seed)
    labels = ("A", "B", "C")[:n_qubits]
    dim = 2**n_qubits
    rank = 1 + int(rank_fraction * (dim - 1))
    state = random_state(rng, labels, (2,) * n_qubits, rank=rank)
    partitions = nontrivial_partitions(labels)
    partition = partitions[choice % len(partitions)]
    psi = _purification(state.matrix)
    d_e = psi.shape[1]
    params = rng.uniform(-np.pi, np.pi, (2 * d_e) ** 2)
    value = squash_objective(psi, state.dims, state.labels, partition, measure)(params)[0]

    # the polar factor V of K, into Eout (x) a qubit ancilla
    iso = _isometry_and_pullback(params, d_e)[0]
    kraus = tuple(iso.reshape(d_e, 2, d_e)[:, a, :] for a in range(2))
    squash = QuantumChannel(kraus, d_e, ("Eout",), (d_e,))
    out = apply_channel(squash, purify(state, "E"), "E")
    cmi = cmi_total if measure is Measure.E_SQ else cmi_dual_measure
    assert abs(value - 0.5 * cmi(out, partition, {"Eout"})) < 1e-10


@pytest.mark.parametrize("d_e", range(1, 9))
def test_isometry_matches_polar(d_e):
    rng = np.random.default_rng(d_e)
    for _ in range(5):
        params = rng.uniform(-np.pi, np.pi, 4 * d_e * d_e)
        k = complex_point(params, (2 * d_e, d_e))
        v = _isometry_and_pullback(params, d_e)[0]
        assert np.max(np.abs(v - scipy.linalg.polar(k)[0])) < 1e-13
        assert np.max(np.abs(v.conj().T @ v - np.eye(d_e))) < 1e-13


@pytest.mark.parametrize(
    "make_kraus",
    [
        lambda rng: np.zeros((6, 3)),
        lambda rng: np.outer(rng.normal(size=6), rng.normal(size=3) + 1j * rng.normal(size=3)),
        lambda rng: identity_kraus(3) @ np.diag([1.0, 1.0, 1e-9]),
    ],
    ids=["zero", "rank-1", "near-rank-2"],
)
def test_rank_deficient_kraus_matrix_rejected(make_kraus):
    # the polar factor of a rank-deficient K is no isometry: refuse it, with
    # no NaN and no RuntimeWarning (Tier-1 makes those errors)
    k = make_kraus(np.random.default_rng(0))
    with pytest.raises(QbcError, match="rank-deficient"):
        _isometry_and_pullback(real_point(k), 3)


@settings(max_examples=40, deadline=None)
@given(
    n_qubits=st.integers(2, 3),
    rank_fraction=st.floats(0.0, 1.0),
    choice=st.integers(0, 10**6),
    measure=st.sampled_from(list(Measure)),
    seed=st.integers(0, 2**32 - 1),
)
def test_squash_gradient_matches_central_differences(n_qubits, rank_fraction, choice, measure, seed):
    rng = np.random.default_rng(seed)
    labels = ("A", "B", "C")[:n_qubits]
    dim = 2**n_qubits
    rank = 1 + int(rank_fraction * (dim - 1))
    state = random_state(rng, labels, (2,) * n_qubits, rank=rank)
    partitions = nontrivial_partitions(labels)
    partition = partitions[choice % len(partitions)]
    psi = _purification(state.matrix)
    d_e = psi.shape[1]
    params = rng.uniform(-np.pi, np.pi, (2 * d_e) ** 2)
    value_and_grad = squash_objective(psi, state.dims, state.labels, partition, measure)
    value, grad = value_and_grad(params)
    # central differences along random directions, relative 1e-6
    step = 1e-6
    for _ in range(4):
        u = rng.normal(size=params.shape)
        u /= np.linalg.norm(u)
        up, down = value_and_grad(params + step * u)[0], value_and_grad(params - step * u)[0]
        fd = (up - down) / (2 * step)
        assert abs(grad @ u - fd) <= 1e-6 * max(1.0, abs(fd)), (grad @ u, fd)


@settings(max_examples=60, deadline=None)
@given(
    n_qubits=st.integers(2, 3),
    rank_fraction=st.floats(0.0, 1.0),
    measure=st.sampled_from(list(Measure)),
    seed=st.integers(0, 2**32 - 1),
)
def test_identity_squashing_is_stationary(n_qubits, rank_fraction, measure, seed):
    # K |e> = |e>|0> reproduces the untouched purifier with a zero gradient, so
    # the search need not start there
    rng = np.random.default_rng(seed)
    labels = ("A", "B", "C")[:n_qubits]
    rank = 2 + int(rank_fraction * (2**n_qubits - 2))
    state = random_state(rng, labels, (2,) * n_qubits, rank=rank)
    psi = _purification(state.matrix)
    d_e = psi.shape[1]
    shape = state.dims + (d_e,)
    for partition in nontrivial_partitions(labels):
        evaluate = _measure_kernel(shape, labels, [(partition, [measure])])
        identity = evaluate(psi.reshape((1,) + shape), [0])[0][0, 0]
        value, grad = squash_objective(psi, state.dims, labels, partition, measure)(
            real_point(identity_kraus(d_e))
        )
        assert abs(value - identity) <= 1e-12
        assert np.max(np.abs(grad)) <= 1e-12


@pytest.mark.parametrize("restarts", [1, 2, 4])
def test_identity_restart_needs_no_search(monkeypatch, restarts):
    calls = []
    real_minimize = squash.minimize

    def counting(fun, x0, **kwargs):
        calls.append(x0)
        return real_minimize(fun, x0, **kwargs)

    monkeypatch.setattr(squash, "minimize", counting)
    st = random_state(np.random.default_rng(7), ("A", "B"), (2, 2), rank=2)
    p = part(("A",), ("B",))
    generators = []
    real_rng = np.random.default_rng

    def counting_rng(seed):
        generators.append(seed)
        return real_rng(seed)

    monkeypatch.setattr(squash.np.random, "default_rng", counting_rng)
    res = esq_upper_variational(st, p, Measure.E_SQ, SquashConfig(restarts=restarts, seed=3))
    # the random starts run as one batch, one row each, from one generator
    # that is built only when a search runs
    assert generators == ([3] if restarts > 1 else [])
    assert len(calls) == (restarts > 1)
    assert sum(len(x0) for x0 in calls) == restarts - 1
    assert all(not np.array_equal(row, real_point(identity_kraus(2))) for x0 in calls for row in x0)
    if restarts == 1:
        trivial = 0.5 * cmi_total(st, p)
        assert abs(res.value_bits - trivial) < 1e-12
        assert res.converged
        assert res.extension_description["params"] is None


def test_restarts_past_the_batch_cap_run_in_slices(monkeypatch):
    # slices of restarts draw the same starts and give the same result as
    # one batch, bit for bit
    st = random_state(np.random.default_rng(8), ("A", "B", "C"), (2, 2, 2), rank=3)
    p = part(("A",), ("B",), ("C",))
    config = SquashConfig(restarts=8, seed=2)
    whole = esq_upper_variational(st, p, Measure.E_SQ, config)
    calls = []
    real_minimize = squash.minimize

    def counting(fun, x0, **kwargs):
        calls.append(len(x0))
        return real_minimize(fun, x0, **kwargs)

    compiled = []
    real_kernel = squash._measure_kernel

    def counting_kernel(shape, labels, problems):
        compiled.append(shape)
        return real_kernel(shape, labels, problems)

    monkeypatch.setattr(squash, "minimize", counting)
    monkeypatch.setattr(squash, "_measure_kernel", counting_kernel)
    monkeypatch.setattr(squash, "_BATCH_ROWS", 3)
    assert esq_upper_variational(st, p, Measure.E_SQ, config) == whole
    assert calls == [3, 3, 1]
    # one identity kernel and one search kernel, shared by every slice
    assert compiled == [(2, 2, 2, 3), (2, 2, 2, 3, 2)]


def test_params_round_trip():
    # extension_description["params"] is the search point of the best squash
    st = random_state(np.random.default_rng(8), ("A", "B", "C"), (2, 2, 2), rank=3)
    p = part(("A",), ("B",), ("C",))
    res = esq_upper_variational(st, p, Measure.E_SQ, SquashConfig(restarts=3, seed=0))
    params = np.array(res.extension_description["params"])
    psi = _purification(st.matrix)
    d_e = psi.shape[1]
    assert params.shape == (4 * d_e * d_e,)
    value = squash_objective(psi, st.dims, st.labels, p, Measure.E_SQ)(params)[0]
    assert abs(value - res.value_bits) <= 1e-12
    v = _isometry_and_pullback(params, d_e)[0]
    assert np.max(np.abs(v.conj().T @ v - np.eye(d_e))) < 1e-12


# the values an exp(iH) parametrisation of the squashing isometry reached at
# these settings: the search on the polar factor must do no worse
_EXP_IH_VALUES = {
    3: 0.5772821628958147,
    4: 0.2553527992287273,
    5: 0.3175096533837534,
    6: 0.15357448256921874,
    7: 0.26327160005587097,
    8: 0.1364224984921844,
}


@pytest.mark.parametrize("rank", range(3, 9))
def test_squash_of_large_purifier_lies_between_hashing_and_identity(rank):
    # a purifier of dimension d_e = rank >= 3, which no benchmark workload
    # squashes; the bounds are computed with numpy alone
    st = random_state(np.random.default_rng(100 + rank), ("A", "B", "C"), (2, 2, 2), rank=rank)
    res = esq_upper_variational(
        st, part(("A",), ("B", "C")), Measure.E_SQ, SquashConfig(restarts=2, seed=0)
    )
    rho = st.matrix.reshape(2, 4, 2, 4)
    h_a = entropy_bits(np.einsum("ijkj->ik", rho))
    h_bc = entropy_bits(np.einsum("ijil->jl", rho))
    h_abc = entropy_bits(st.matrix)
    coherent = max(h_bc - h_abc, h_a - h_abc)
    identity = 0.5 * (h_a + h_bc - h_abc)
    assert res.converged
    assert res.extension_description["params"] is not None  # a search beat identity
    assert coherent - 1e-9 <= res.value_bits <= identity + 1e-12
    assert res.value_bits <= _EXP_IH_VALUES[rank] + 1e-8


def test_search_is_the_same_alone_or_in_a_batch():
    # every row's arithmetic is its own: run alone, a row ends where it ends
    # in the batch, bit for bit, after the same iterations and evaluations
    st = random_state(np.random.default_rng(3), ("A", "B", "C"), (2, 2, 2), rank=3)
    psi = _purification(st.matrix)
    d_e = psi.shape[1]
    problems = [
        (p, [m])
        for p in nontrivial_partitions(st.labels)
        for m in (list(Measure) if len(p.blocks) == 3 else [Measure.E_SQ])
    ]
    owner = np.repeat(np.arange(len(problems)), 2)
    psis = np.stack([psi] * len(problems))
    evaluate = _measure_kernel(st.dims + (d_e, 2), st.labels, problems)
    value_and_grad = _squash_value_and_grad(evaluate, psis, owner)
    x0 = np.random.default_rng(0).uniform(-np.pi, np.pi, (len(owner), 4 * d_e * d_e))
    settings = dict(max_iters=squash._MAX_ITERS, ftol=squash._FTOL, gtol=squash._GTOL)
    batch = squash.minimize(value_and_grad, x0, **settings)
    nit = nfev = 0
    for i in range(len(owner)):
        alone = squash.minimize(
            lambda x, rows: value_and_grad(x, rows + i), x0[i : i + 1], **settings
        )
        assert np.array_equal(alone.x[0], batch.x[i])
        assert np.array_equal(alone.fun[0], batch.fun[i])
        assert np.array_equal(alone.jac[0], batch.jac[i])
        assert alone.converged[0] == batch.converged[i]
        nit, nfev = nit + alone.nit, nfev + alone.nfev
    assert (nit, nfev) == (batch.nit, batch.nfev)


def test_stacked_squash_kernel_matches_one_row():
    # every partition and measure of R|B|C, each on its own purified state,
    # in one stack: each row matches its problem evaluated alone
    rng = np.random.default_rng(11)
    labels, dims = ("R", "B", "C"), (2, 2, 2)
    problems = [(p, [m]) for p in nontrivial_partitions(labels) for m in Measure]
    psis = np.stack(
        [_purification(random_state(rng, labels, dims, rank=2).matrix) for _ in problems]
    )
    owner = np.arange(len(problems))
    params = rng.uniform(-np.pi, np.pi, (len(problems), 16))
    evaluate = _measure_kernel(dims + (psis.shape[-1], 2), labels, problems)
    values, grads = _squash_value_and_grad(evaluate, psis, owner)(params, owner)
    for i, (partition, (measure,)) in enumerate(problems):
        value, grad = squash_objective(psis[i], dims, labels, partition, measure)(params[i])
        assert abs(values[i] - value) <= 1e-13
        assert np.max(np.abs(grads[i] - grad)) <= 1e-13
