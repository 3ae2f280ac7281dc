import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbcbound import (
    DimMismatch,
    LabelCollision,
    LabelNotFound,
    MultipartiteState,
    PrivateStateSpec,
    QbcError,
    QuantumChannel,
    apply_channel,
    channel_from_json,
    channel_to_json,
    check_private_state,
    make_ghz,
    make_private_state,
    measurement_channel,
    partial_trace,
    purify,
    state_from_json,
    state_to_json,
    tensor,
    trace_distance,
)
from qbcbound.sampling import random_channel, random_state, random_unitary


def qubit(vec):
    v = np.array(vec, dtype=complex)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def test_state_validation():
    with pytest.raises(QbcError):
        MultipartiteState(np.array([[0.5, 0.3], [0.1, 0.5]]), ("A",), (2,))
    with pytest.raises(QbcError):
        MultipartiteState(np.eye(2), ("A",), (2,))  # trace 2
    with pytest.raises(DimMismatch):
        MultipartiteState(np.eye(2) / 2, ("A",), (3,))
    with pytest.raises(LabelCollision):
        MultipartiteState(np.eye(4) / 4, ("A", "A"), (2, 2))
    with pytest.raises(QbcError):
        MultipartiteState(np.diag([1.5, -0.5]), ("A",), (2,))


def test_non_finite_entries_rejected():
    nan_diag = np.diag([0.5, np.nan])
    with pytest.raises(QbcError, match="non-finite entries"):
        MultipartiteState(nan_diag, ("A",), (2,))
    with pytest.raises(QbcError, match="non-finite entries"):
        MultipartiteState(np.diag([np.inf, 0.0]), ("A",), (2,))
    with pytest.raises(QbcError, match="non-finite entries"):
        QuantumChannel((np.eye(2), nan_diag), 2, ("B",), (2,))
    with pytest.raises(QbcError, match="non-finite entries"):
        PrivateStateSpec(2, 2, (2, 1), twist_unitaries=(nan_diag,) + (np.eye(2),) * 3)
    with pytest.raises(QbcError, match="non-finite entries"):
        PrivateStateSpec(2, 2, (2, 1), shield_state=nan_diag)


def test_tensor_maximally_mixed():
    a = MultipartiteState(np.eye(2) / 2, ("A",), (2,))
    b = MultipartiteState(np.eye(2) / 2, ("B",), (2,))
    t = tensor([a, b])
    assert np.allclose(t.matrix, np.eye(4) / 4)
    assert t.labels == ("A", "B")


def test_tensor_basis_states():
    t = tensor(
        [
            MultipartiteState(qubit([1, 0]), ("A",), (2,)),
            MultipartiteState(qubit([0, 1]), ("B",), (2,)),
        ]
    )
    expect = np.zeros((4, 4))
    expect[1, 1] = 1.0
    assert np.allclose(t.matrix, expect)


def test_tensor_ghz_with_pure():
    t = tensor(
        [make_ghz(("A", "B"), 2), MultipartiteState(qubit([1, 0]), ("C",), (2,))]
    )
    assert t.dim == 8
    assert abs(np.trace(t.matrix) - 1) < 1e-12
    assert np.linalg.matrix_rank(t.matrix, tol=1e-10) == 1


def test_tensor_rejects_duplicates():
    a = MultipartiteState(np.eye(2) / 2, ("A",), (2,))
    with pytest.raises(LabelCollision):
        tensor([a, a])


def test_partial_trace_ghz_marginal():
    red = partial_trace(make_ghz(("A", "B", "C"), 2), {"A"})
    assert np.allclose(red.matrix, np.eye(2) / 2)


def test_partial_trace_product_marginal():
    rng = np.random.default_rng(1)
    a = random_state(rng, ("A",), (3,))
    b = random_state(rng, ("B",), (2,))
    red = partial_trace(tensor([a, b]), {"A"})
    assert np.max(np.abs(red.matrix - a.matrix)) < 1e-12


def test_partial_trace_bell_marginal():
    red = partial_trace(make_ghz(("A", "B"), 2), {"B"})
    assert np.allclose(red.matrix, np.eye(2) / 2)


def test_partial_trace_unknown_label():
    with pytest.raises(LabelNotFound):
        partial_trace(make_ghz(("A", "B"), 2), {"Z"})


def test_purify_maximally_mixed():
    phi = purify(MultipartiteState(np.eye(2) / 2, ("A",), (2,)), "E")
    assert phi.is_pure()
    assert np.allclose(partial_trace(phi, {"A"}).matrix, np.eye(2) / 2)


def test_purify_pure_state_trivial_purifier():
    psi = MultipartiteState(qubit([1, 1]), ("A",), (2,))
    phi = purify(psi, "E")
    assert phi.dims == (2, 1)


def test_purify_schmidt_coefficients():
    phi = purify(MultipartiteState(np.diag([0.7, 0.3]), ("A",), (2,)), "E")
    ev = np.linalg.eigvalsh(partial_trace(phi, {"E"}).matrix)
    assert np.allclose(sorted(ev), [0.3, 0.7])


def test_purify_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        dims = tuple(rng.choice([2, 3], size=rng.integers(1, 3)))
        if np.prod(dims) > 8:
            continue
        rho = random_state(rng, [f"S{i}" for i in range(len(dims))], dims)
        phi = purify(rho, "E")
        assert trace_distance(partial_trace(phi, set(rho.labels)), rho) < 1e-9


def test_apply_identity_channel():
    ch = QuantumChannel((np.eye(2),), 2, ("B",), (2,))
    st = make_ghz(("R", "A"), 2)
    out = apply_channel(ch, st, "A")
    assert out.labels == ("R", "B")
    assert np.allclose(out.matrix, st.matrix)


def test_apply_copy_isometry_gives_ghz():
    k = np.zeros((4, 2))
    k[0, 0] = 1
    k[3, 1] = 1
    ch = QuantumChannel((k,), 2, ("B", "C"), (2, 2))
    out = apply_channel(ch, make_ghz(("R", "A"), 2), "A")
    assert trace_distance(out, make_ghz(("R", "B", "C"), 2)) < 1e-10


def test_apply_depolarizing():
    eye = np.eye(2)
    kraus = tuple(
        np.outer(eye[:, i], eye[:, j]) / np.sqrt(2) for i in range(2) for j in range(2)
    )
    ch = QuantumChannel(kraus, 2, ("B",), (2,))
    out = apply_channel(ch, MultipartiteState(qubit([1, 0]), ("A",), (2,)), "A")
    assert np.allclose(out.matrix, np.eye(2) / 2)


def test_apply_channel_trace_and_positivity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        ch = random_channel(rng, 2, ("B",), (2,))
        st = random_state(rng, ("R", "A"), (2, 2))
        out = apply_channel(ch, st, "A")
        assert abs(np.trace(out.matrix).real - 1) < 1e-9
        assert np.linalg.eigvalsh(out.matrix)[0] > -1e-9


def test_ghz_values():
    bell = make_ghz(("A", "B"), 2)
    v = np.zeros(4)
    v[0] = v[3] = 1 / np.sqrt(2)
    assert np.allclose(bell.matrix, np.outer(v, v))
    assert np.allclose(
        partial_trace(make_ghz(("A", "B"), 3), {"A"}).matrix, np.eye(3) / 3
    )


def test_private_state_identity_twists_is_product():
    spec = PrivateStateSpec(2, 2, (2, 1))
    st = make_private_state(spec, ("kA", "kB"), ("sA", "sB"))
    ghz = make_ghz(("kA", "kB"), 2)
    assert trace_distance(partial_trace(st, {"kA", "kB"}), ghz) < 1e-10


@pytest.mark.parametrize(
    "shield",
    [np.array([[0.5, 0.1], [0.0, 0.5]]), np.eye(2), np.diag([1.5, -0.5])],
    ids=["non-hermitian", "trace-2", "negative-eigenvalue"],
)
def test_private_state_spec_refuses_a_shield_that_is_not_a_density_operator(shield):
    with pytest.raises(QbcError, match="^shield state "):
        PrivateStateSpec(2, 2, (2, 1), shield_state=shield)


def test_private_state_spec_refuses_non_positive_shield_dims():
    with pytest.raises(DimMismatch, match="positive"):
        PrivateStateSpec(2, 2, (0, 2), shield_state=np.zeros((0, 0)))


def _private_state_product_reference(spec, keys, shields):
    """The matrix of ``make_private_state`` through validated states: a GHZ
    state tensored with the shield state, then each key string's twist on
    its shield block."""
    ds = int(np.prod(spec.shield_dims))
    shield = np.eye(ds) / ds if spec.shield_state is None else spec.shield_state
    prod = tensor([make_ghz(keys, spec.key_dim), MultipartiteState(shield, shields, spec.shield_dims)])
    if spec.twist_unitaries is None:
        return prod.matrix
    dk = spec.key_dim**spec.num_parties
    tw = np.stack(spec.twist_unitaries)
    t = prod.matrix.reshape(dk, ds, dk, ds)
    mat = np.einsum("iab,ibjc,jdc->iajd", tw, t, tw.conj()).reshape(prod.matrix.shape)
    return (mat + mat.conj().T) / 2


def test_private_state_matches_product_reference_bitwise():
    rng = np.random.default_rng(3)
    for m in (2, 3):
        for d in (2, 3):
            for twisted in (False, True):
                for shielded in (False, True):
                    sdims = tuple(int(x) for x in rng.choice([1, 2], size=m))
                    ds = int(np.prod(sdims))
                    keys = tuple(f"k{i}" for i in range(m))
                    shields = tuple(f"s{i}" for i in range(m))
                    tw = tuple(random_unitary(rng, ds) for _ in range(d**m)) if twisted else None
                    sh = random_state(rng, shields, sdims).matrix if shielded else None
                    spec = PrivateStateSpec(m, d, sdims, tw, sh)
                    st = make_private_state(spec, keys, shields)
                    assert st.labels == keys + shields
                    assert st.dims == (d,) * m + sdims
                    ref = _private_state_product_reference(spec, keys, shields)
                    assert np.array_equal(st.matrix, ref)


def test_private_state_check_accepts_construction():
    rng = np.random.default_rng(0)
    for m in (2, 3):
        for _ in range(10):
            sdims = tuple(int(d) for d in rng.choice([1, 2], size=m))
            ds = int(np.prod(sdims))
            tw = tuple(random_unitary(rng, ds) for _ in range(2**m))
            spec = PrivateStateSpec(m, 2, sdims, tw)
            keys = tuple(f"k{i}" for i in range(m))
            shields = tuple(f"s{i}" for i in range(m))
            st = make_private_state(spec, keys, shields)
            ok, dev = check_private_state(st, keys, shields, 2)
            assert ok, dev


def _private_state_deviation_reference(state, key_labels, d):
    """The deviation through density matrices: purify, measure every key,
    trace the shields, compare with the ideal key product with the purifier."""
    phi = purify(state, "&E")
    for lab in key_labels:
        phi = apply_channel(measurement_channel(d, lab), phi, lab)
    red = partial_trace(phi, set(key_labels) | {"&E"})
    de = phi.dims[-1]
    t = red.matrix.reshape((d,) * len(key_labels) + (de,) + (d,) * len(key_labels) + (de,))
    diag = [(i,) * len(key_labels) for i in range(d)]
    sigma = sum(t[k + (slice(None),) + k + (slice(None),)] for k in diag)
    sigma = sigma / np.trace(sigma).real
    ideal = np.zeros_like(t)
    for k in diag:
        ideal[k + (slice(None),) + k + (slice(None),)] = sigma / d
    diff = red.matrix - ideal.reshape(red.matrix.shape)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def test_private_state_check_matches_density_reference():
    rng = np.random.default_rng(5)
    spec = PrivateStateSpec(2, 2, (2, 1), tuple(random_unitary(rng, 2) for _ in range(4)))
    states = [
        make_private_state(spec, ("kA", "kB"), ("sA", "sB")),
        random_state(rng, ("kA", "sA", "kB"), (2, 2, 2)),
        random_state(rng, ("kB", "kA"), (2, 2), rank=2),
    ]
    for st in states:
        _, dev = check_private_state(st, ("kA", "kB"), (), 2)
        assert abs(dev - _private_state_deviation_reference(st, ("kA", "kB"), 2)) < 1e-10


def test_private_state_check_rejects_mixed_junk():
    st = MultipartiteState(np.eye(4) / 4, ("kA", "kB"), (2, 2))
    ok, dev = check_private_state(st, ("kA", "kB"), (), 2)
    assert not ok
    assert dev > 0.1


def test_private_state_check_rejects_unknown_shield():
    st = make_private_state(PrivateStateSpec(2, 2, (2, 1)), ("kA", "kB"), ("sA", "sB"))
    with pytest.raises(LabelNotFound):
        check_private_state(st, ("kA", "kB"), ("nope", "zzz"), 2)


def test_private_state_check_rejects_shield_that_is_a_key():
    st = make_private_state(PrivateStateSpec(2, 2, (2, 1)), ("kA", "kB"), ("sA", "sB"))
    with pytest.raises(LabelCollision):
        check_private_state(st, ("kA", "kB"), ("sA", "kB"), 2)


def test_trace_distance_values():
    z0 = MultipartiteState(qubit([1, 0]), ("A",), (2,))
    z1 = MultipartiteState(qubit([0, 1]), ("A",), (2,))
    mixed = MultipartiteState(np.eye(2) / 2, ("A",), (2,))
    assert trace_distance(z0, z0) == 0
    assert abs(trace_distance(z0, z1) - 1) < 1e-12
    assert abs(trace_distance(z0, mixed) - 0.5) < 1e-12


def test_trace_distance_across_label_orders_past_the_axis_limit():
    # 33 labels: one array axis per row and per column label would need 66
    rho = random_state(np.random.default_rng(12), ("P", "Q"), (2, 2))
    labels = tuple(f"L{i}" for i in range(31)) + ("P", "Q")
    a = MultipartiteState(rho.matrix, labels, (1,) * 31 + (2, 2))
    swap = np.eye(4)[[0, 2, 1, 3]]
    b = MultipartiteState(swap @ rho.matrix @ swap, labels[::-1], (2, 2) + (1,) * 31)
    assert trace_distance(a, b) == 0.0


def test_shield_dims_product_past_int64_rejected():
    # 7 * 7905747460161236407 = 3 * 2**64 + 1, which numpy's int64 product
    # wraps to 1; states and channels are checked through the CLI
    with pytest.raises(DimMismatch, match="shield state has wrong dimension"):
        PrivateStateSpec(2, 2, (7, 7905747460161236407), shield_state=np.eye(1))


def test_json_roundtrip_state_and_channel():
    rng = np.random.default_rng(11)
    st = random_state(rng, ("A", "B"), (2, 3))
    st2 = state_from_json(state_to_json(st))
    assert st2.labels == st.labels and st2.dims == st.dims
    assert np.max(np.abs(st2.matrix - st.matrix)) < 1e-15
    ch = random_channel(rng, 2, ("B", "C"), (2, 2))
    ch2 = channel_from_json(channel_to_json(ch))
    assert ch2.output_labels == ch.output_labels
    for k1, k2 in zip(ch.kraus_ops, ch2.kraus_ops):
        assert np.max(np.abs(k1 - k2)) < 1e-15


@settings(max_examples=40, deadline=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    rank_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_state_json_roundtrip_is_exact(dims, rank_fraction, seed):
    labels = ("A", "B", "C")[: len(dims)]
    dim = int(np.prod(dims))
    rank = 1 + int(rank_fraction * (dim - 1))
    state = random_state(np.random.default_rng(seed), labels, dims, rank=rank)
    back = state_from_json(state_to_json(state))
    assert (back.labels, back.dims) == (state.labels, state.dims)
    assert back.matrix.dtype == state.matrix.dtype
    assert back.matrix.tobytes() == state.matrix.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    input_dim=st.integers(1, 3),
    output_dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    env_dim=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_channel_json_roundtrip_is_exact(input_dim, output_dims, env_dim, seed):
    labels = ("B", "C", "D")[: len(output_dims)]
    if int(np.prod(output_dims)) * env_dim < input_dim:
        env_dim = input_dim  # a Stinespring isometry needs the room
    channel = random_channel(np.random.default_rng(seed), input_dim, labels, output_dims, env_dim)
    back = channel_from_json(channel_to_json(channel))
    assert back.input_dim == channel.input_dim
    assert (back.output_labels, back.output_dims) == (channel.output_labels, channel.output_dims)
    assert len(back.kraus_ops) == len(channel.kraus_ops)
    for k, k_back in zip(channel.kraus_ops, back.kraus_ops):
        assert k_back.dtype == k.dtype
        assert k_back.tobytes() == k.tobytes()
