import re

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
    SpecError,
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
from qbcbound.states import PRIVATE_TOL, PURE_TOL


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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MultipartiteState(np.eye(2) / 2, ("A",), (2.9,)),
         "subsystem dimension must be an integer"),
        (lambda: MultipartiteState(np.eye(1), ("A",), (True,)),
         "subsystem dimension must be an integer"),
        (lambda: QuantumChannel((np.eye(2),), 2, ("B",), (2.7,)),
         "channel output dimension must be an integer"),
        (lambda: QuantumChannel((np.eye(2),), 2.0, ("B",), (2,)),
         "input dimension must be an integer"),
        (lambda: PrivateStateSpec(2, 2.5, (1, 1)), "key dimension must be an integer"),
        (lambda: PrivateStateSpec(2.0, 2, (1, 1)), "party count must be an integer"),
        (lambda: PrivateStateSpec(2, 2, (1.5, 1)), "shield dimension must be an integer"),
        (lambda: make_ghz(("A", "B"), 2.5), "GHZ Schmidt rank must be an integer"),
        (lambda: measurement_channel(2.5, "B"), "measurement dimension must be an integer"),
        (lambda: measurement_channel(2.0, "B"), "measurement dimension must be an integer"),
        (lambda: measurement_channel(True, "B"), "measurement dimension must be an integer"),
        # refused before np.eye, which would raise a bare ValueError
        (lambda: measurement_channel(-1, "B"), "measurement dimension must be at least 1"),
        # refused before the purification, whose reshape would raise a bare TypeError
        (lambda: check_private_state(_GHZ_AB, ("A", "B"), (), 2.0),
         "key dimension must be an integer"),
        (lambda: check_private_state(_GHZ_AB, ("A", "B"), (), True),
         "key dimension must be an integer"),
    ],
    ids=["state-float", "state-bool", "channel-output", "channel-input", "key-dim",
         "parties", "shield", "ghz", "measurement-float", "measurement-whole-float",
         "measurement-bool", "measurement-negative", "check-private-key-dim-float",
         "check-private-key-dim-bool"],
)
def test_constructors_refuse_non_integer_counts(build, message):
    with pytest.raises(QbcError, match=f"^{message}$"):
        build()


_GHZ_AB = make_ghz(("A", "B"), 2)


@pytest.mark.parametrize(
    "build, error, fragment",
    [
        (lambda: MultipartiteState(np.eye(2) / 2, ("A", "B"), (2,)), DimMismatch,
         "labels and dims length mismatch"),
        (lambda: MultipartiteState(np.eye(1), ("A", "B"), (1, 0)), DimMismatch,
         "subsystem dimensions must be positive"),
        (lambda: QuantumChannel((np.eye(4),), 4, ("B", "B"), (2, 2)), LabelCollision,
         "duplicate output labels"),
        (lambda: QuantumChannel((np.eye(2),), 2, ("B", "C"), (2,)), DimMismatch,
         "output labels/dims length mismatch"),
        (lambda: QuantumChannel((), 2, ("B",), (2,)), DimMismatch,
         "at least one Kraus operator"),
        (lambda: QuantumChannel((2 * np.eye(2),), 2, ("B",), (2,)), QbcError,
         "CPTP condition"),
        (lambda: PrivateStateSpec(1, 2, (1,)), QbcError, "at least 2 parties"),
        (lambda: PrivateStateSpec(2, 2, (1, 1), twist_unitaries=(np.eye(1),) * 3), DimMismatch,
         "one twist unitary per key basis tuple"),
        (lambda: PrivateStateSpec(2, 2, (1, 1), twist_unitaries=(np.eye(2),) * 4), DimMismatch,
         "wrong shield dimension"),
        (lambda: PrivateStateSpec(2, 2, (2, 1), twist_unitaries=(2 * np.eye(2),) * 4), QbcError,
         "not unitary"),
        (lambda: QuantumChannel((np.zeros((2, 0)),), 0, ("B",), (2,)), DimMismatch,
         "channel dimensions must be positive"),
        (lambda: measurement_channel(0, "B"), QbcError,
         "measurement dimension must be at least 1"),
        (lambda: tensor([]), QbcError, "tensor of zero states"),
        (lambda: partial_trace(_GHZ_AB, set()), QbcError, "empty label set"),
        (lambda: purify(_GHZ_AB, "A"), LabelCollision, "already present"),
        (lambda: apply_channel(measurement_channel(3, "A"), _GHZ_AB, "A"), DimMismatch,
         "target dim 2 != channel input dim 3"),
        (lambda: apply_channel(measurement_channel(2, "B"), _GHZ_AB, "A"), LabelCollision,
         "collides with spectator"),
        (lambda: make_ghz(("A",), 2), QbcError, "GHZ needs at least 2 parties"),
        (lambda: make_private_state(PrivateStateSpec(2, 2, (1, 1)), ("kA",), ("sA", "sB")),
         DimMismatch, "one key label and one shield label per party"),
        (lambda: check_private_state(_GHZ_AB, ("A", "B"), (), 3), DimMismatch,
         "does not have dimension 3"),
        (lambda: check_private_state(_GHZ_AB, ("A", "A"), (), 2), LabelCollision,
         "duplicate key labels ('A', 'A')"),
        (lambda: check_private_state(_GHZ_AB, (), ("A", "B"), 2), QbcError,
         "at least one key label"),
        (lambda: trace_distance(_GHZ_AB, make_ghz(("A", "C"), 2)), DimMismatch,
         "different label sets"),
        (lambda: trace_distance(_GHZ_AB, make_ghz(("A", "B"), 3)), DimMismatch,
         "different subsystem dimensions"),
        (lambda: state_from_json('{"matrix": [[[1, 0]]], "labels": ["A"], "dims": 1}'),
         QbcError, "JSON field 'dims' is malformed: expected an array of integers"),
        # the label rule of the JSON loaders holds at the constructors too, so
        # every state and channel that builds also survives a JSON round trip
        (lambda: MultipartiteState(np.eye(2) / 2, ("A,B",), (2,)), SpecError,
         "label 'A,B' cannot appear in a partition string"),
        (lambda: MultipartiteState(np.eye(2) / 2, (" A",), (2,)), SpecError,
         "label ' A' cannot appear in a partition string"),
        (lambda: MultipartiteState(np.eye(2) / 2, (1,), (2,)), SpecError,
         "label 1 is not a string"),
        (lambda: QuantumChannel((np.eye(2),), 2, ("B|C",), (2,)), SpecError,
         "label 'B|C' cannot appear in a partition string"),
        (lambda: QuantumChannel((np.eye(2),), 2, ("",), (2,)), SpecError,
         "label '' cannot appear in a partition string"),
    ],
    ids=["state-label-count", "state-dim-0", "channel-duplicate-labels",
         "channel-label-count", "channel-no-kraus", "channel-not-cptp", "spec-one-party",
         "spec-twist-count", "spec-twist-shape", "spec-twist-not-unitary", "channel-dim-0",
         "measurement-dim-0",
         "tensor-empty",
         "partial-trace-empty", "purify-existing-label", "apply-input-dim",
         "apply-spectator-output", "ghz-one-label", "private-state-label-count",
         "check-private-key-dim", "check-private-duplicate-keys", "check-private-no-keys",
         "trace-distance-labels", "trace-distance-dims",
         "json-dims-not-array", "state-comma-label", "state-space-label", "state-int-label",
         "channel-bar-label", "channel-empty-label"],
)
def test_invalid_arguments_refused(build, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        build()


def test_constructors_take_numpy_integers():
    two = np.int64(2)
    assert MultipartiteState(np.eye(2) / 2, ("A",), (two,)).dims == (2,)
    channel = QuantumChannel((np.eye(2),), two, ("B",), (np.int32(2),))
    assert (channel.input_dim, channel.output_dims) == (2, (2,))
    assert type(channel.input_dim) is int
    spec = PrivateStateSpec(two, np.int8(2), (np.int64(1), 1))
    assert (spec.num_parties, spec.key_dim, spec.shield_dims) == (2, 2, (1, 1))
    assert make_ghz(("A", "B"), two).dims == (2, 2)


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


def test_tensor_reads_a_generator_once():
    ghz = make_ghz(("A", "B"), 2)
    assert np.array_equal(tensor(s for s in [ghz]).matrix, ghz.matrix)


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


def test_purify_a_state_is_pure_accepts_by_its_top_eigenvector():
    # rank 2, but within PURE_TOL of pure: purify applies the one purity rule
    rho = MultipartiteState(np.diag([1 - 5e-10, 5e-10]), ("A",), (2,))
    phi = purify(rho, "E")
    assert rho.is_pure()
    assert phi.dims == (2, 1)
    assert trace_distance(partial_trace(phi, {"A"}), rho) <= PURE_TOL


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


def test_private_state_check_among_66_dimension_one_labels():
    # 4 key and shield labels, 66 of dimension 1 and the purifier: 71 axes in
    # a layout of one axis per label, past numpy's 64
    rng = np.random.default_rng(1)
    spec = PrivateStateSpec(2, 2, (2, 2), tuple(random_unitary(rng, 4) for _ in range(4)))
    pad = tuple(f"x{i}" for i in range(66))
    st = tensor(
        [
            make_private_state(spec, ("kA", "kB"), ("sA", "sB")),
            MultipartiteState(np.eye(1), pad, (1,) * 66),
        ]
    )
    ok, dev = check_private_state(st, ("kA", "kB"), ("sA", "sB"), 2)
    assert ok and dev <= PRIVATE_TOL


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
