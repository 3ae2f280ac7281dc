import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbcbound import (
    EmptySubset,
    LabelCollision,
    LabelNotFound,
    MultipartiteState,
    Partition,
    SpecError,
    apply_channel,
    cmi_dual_measure,
    cmi_total,
    conditional_entropy,
    entropy,
    make_ghz,
    partial_trace,
    purify,
    qcmi,
    tensor,
)
from qbcbound.measures import _EIG_FLOOR, _cmi_dual, _cmi_total, _pure_entropy_sums
from qbcbound.sampling import random_channel, random_pure_state, random_state


def blocks(*bs):
    return Partition(tuple(tuple(b) for b in bs))


def test_entropy_examples():
    ghz = make_ghz(("A", "B", "C"), 2)
    assert abs(entropy(ghz, {"A"}) - 1.0) < 1e-12
    assert entropy(ghz, {"A", "B", "C"}) < 1e-10
    mm = MultipartiteState(np.eye(3) / 3, ("A",), (3,))
    assert abs(entropy(mm, {"A"}) - np.log2(3)) < 1e-12


def test_pure_reduction_has_entropy_exactly_zero():
    # eigvalsh puts GHZ's top eigenvalue at 1 - 2.2e-16, which summed as
    # -w log2 w would read 3.2e-16
    ghz = make_ghz(("A", "B", "C"), 2)
    assert entropy(ghz, {"A", "B", "C"}) == 0.0
    # white noise above the eigenvalue floor is still an entropy
    eps = 9e-10
    noisy = MultipartiteState((1 - eps) * ghz.matrix + eps * np.eye(8) / 8, ghz.labels, ghz.dims)
    assert entropy(noisy, {"A", "B", "C"}) > 0


def test_entropy_empty_subset_raises():
    with pytest.raises(EmptySubset):
        entropy(make_ghz(("A", "B"), 2), set())


def test_conditional_entropy_bell():
    bell = make_ghz(("A", "B"), 2)
    assert abs(conditional_entropy(bell, {"A"}, {"B"}) - (-1.0)) < 1e-10


def test_qcmi_ghz():
    assert abs(qcmi(make_ghz(("A", "B", "C"), 2), {"A"}, {"B"}, {"C"}) - 1.0) < 1e-10


def test_qcmi_product_zero():
    rng = np.random.default_rng(5)
    st = tensor([random_state(rng, ("A",), (2,)), random_state(rng, ("B",), (3,))])
    assert abs(qcmi(st, {"A"}, {"B"})) < 1e-10


def test_qcmi_overlap_raises():
    with pytest.raises(LabelCollision):
        qcmi(make_ghz(("A", "B"), 2), {"A"}, {"A"})


def test_strong_subadditivity_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        st = random_state(rng, ("A", "B", "E"), (2, 2, 2))
        assert qcmi(st, {"A"}, {"B"}, {"E"}) >= -1e-9


def test_pure_state_duality():
    rng = np.random.default_rng(4)
    for _ in range(20):
        psi = random_pure_state(rng, ("A", "B", "E", "D"), (2, 2, 2, 2))
        lhs = qcmi(psi, {"A"}, {"B"}, {"E"})
        rhs = qcmi(psi, {"A"}, {"B"}, {"D"})
        assert abs(lhs - rhs) < 1e-9


def test_cmi_total_ghz():
    spec = blocks({"A"}, {"B"}, {"C"})
    assert abs(cmi_total(make_ghz(("A", "B", "C"), 2), spec) - 3.0) < 1e-9


def test_cmi_dual_ghz():
    spec = blocks({"A"}, {"B"}, {"C"})
    assert abs(cmi_dual_measure(make_ghz(("A", "B", "C"), 2), spec) - 3.0) < 1e-9


def test_cmi_product_zero():
    rng = np.random.default_rng(6)
    st = tensor([random_state(rng, (f"S{i}",), (2,)) for i in range(3)])
    spec = blocks({"S0"}, {"S1"}, {"S2"})
    assert abs(cmi_total(st, spec)) < 1e-9
    assert abs(cmi_dual_measure(st, spec)) < 1e-9


def test_bipartite_reduction_to_qcmi():
    rng = np.random.default_rng(8)
    for _ in range(10):
        st = random_state(rng, ("A", "B", "C"), (2, 2, 2))
        spec = blocks({"A"}, {"B"})
        q = qcmi(st, {"A"}, {"B"}, {"C"})
        assert abs(cmi_total(st, spec, {"C"}) - q) < 1e-10
        assert abs(cmi_dual_measure(st, spec, {"C"}) - q) < 1e-10


def test_duality_identity():
    # I + dual = sum_i I(A_i; rest | E)
    rng = np.random.default_rng(9)
    for _ in range(50):
        st = random_state(rng, ("A", "B", "C", "E"), (2, 2, 2, 2))
        spec = blocks({"A"}, {"B"}, {"C"})
        lhs = cmi_total(st, spec, {"E"}) + cmi_dual_measure(st, spec, {"E"})
        rhs = (
            qcmi(st, {"A"}, {"B", "C"}, {"E"})
            + qcmi(st, {"B"}, {"A", "C"}, {"E"})
            + qcmi(st, {"C"}, {"A", "B"}, {"E"})
        )
        assert abs(lhs - rhs) < 1e-9


def test_chain_rule_total():
    rng = np.random.default_rng(10)
    for _ in range(20):
        st = random_state(rng, ("B", "A1", "A2", "E"), (2, 2, 2, 2))
        lhs = cmi_total(st, blocks({"B", "A1"}, {"A2"}), {"E"})
        rhs = cmi_total(st, blocks({"A1"}, {"A2"}), {"B", "E"}) + qcmi(
            st, {"B"}, {"A2"}, {"E"}
        )
        assert abs(lhs - rhs) < 1e-9


def test_chain_rule_dual():
    rng = np.random.default_rng(11)
    for _ in range(20):
        st = random_state(rng, ("B", "A1", "A2", "E"), (2, 2, 2, 2))
        lhs = cmi_dual_measure(st, blocks({"B", "A1"}, {"A2"}), {"E"})
        rhs = cmi_dual_measure(st, blocks({"A1"}, {"A2"}), {"B", "E"}) + qcmi(
            st, {"B"}, {"A2"}, {"E"}
        )
        assert abs(lhs - rhs) < 1e-9


def test_grouping_identity():
    rng = np.random.default_rng(12)
    for _ in range(20):
        st = random_state(rng, ("A1", "A2", "A3", "E"), (2, 2, 2, 2))
        fine = cmi_total(st, blocks({"A1"}, {"A2"}, {"A3"}), {"E"})
        coarse = cmi_total(st, blocks({"A1", "A2"}, {"A3"}), {"E"})
        assert abs(fine - coarse - qcmi(st, {"A1"}, {"A2"}, {"E"})) < 1e-9


def test_grouping_identity_dual():
    # dual analogue: conditioning moves to the remaining blocks
    rng = np.random.default_rng(13)
    for _ in range(20):
        st = random_state(rng, ("A1", "A2", "A3", "E"), (2, 2, 2, 2))
        fine = cmi_dual_measure(st, blocks({"A1"}, {"A2"}, {"A3"}), {"E"})
        coarse = cmi_dual_measure(st, blocks({"A1", "A2"}, {"A3"}), {"E"})
        assert abs(fine - coarse - qcmi(st, {"A1"}, {"A2"}, {"A3", "E"})) < 1e-9


def test_conditioning_overlapping_a_block_rejected():
    ghz = make_ghz(("A", "B", "C"), 2)
    for fn in (cmi_total, cmi_dual_measure):
        with pytest.raises(SpecError, match="conditioning set overlaps a block"):
            fn(ghz, blocks({"A"}, {"B"}), {"B", "C"})


def test_label_repeated_across_blocks_rejected():
    with pytest.raises(SpecError, match="a label is repeated"):
        blocks({"A"}, {"A", "B"})


@pytest.mark.parametrize("fn", [cmi_total, cmi_dual_measure])
@pytest.mark.parametrize(
    "spec, conditioning",
    [(({"A"}, {"Z"}), ()), (({"A"}, {"B"}), {"Z"})],
    ids=["block", "conditioning"],
)
def test_missing_label_rejected_before_any_entropy(monkeypatch, fn, spec, conditioning):
    ghz = make_ghz(("A", "B", "C"), 2)

    def no_entropy(*args):
        raise AssertionError("an entropy was taken")

    monkeypatch.setattr("qbcbound.measures.entropy", no_entropy)
    # the text partial_trace gives a missing label
    with pytest.raises(LabelNotFound, match=r"^label 'Z' not in \('A', 'B', 'C'\)$"):
        fn(ghz, blocks(*spec), conditioning)


def test_one_block_partition_measures_zero():
    ghz = make_ghz(("A", "B", "C"), 2)
    one = blocks({"A", "B"})
    assert not one.nontrivial
    assert cmi_total(ghz, one) == 0.0
    assert cmi_dual_measure(ghz, one, {"C"}) == 0.0


def test_monotone_under_local_channels():
    rng = np.random.default_rng(14)
    for _ in range(20):
        st = random_state(rng, ("A", "B", "C"), (2, 2, 2))
        ch = random_channel(rng, 2, ("A'",), (2,))
        out = apply_channel(ch, st, "A")
        for fn in (cmi_total, cmi_dual_measure):
            before = fn(st, blocks({"A"}, {"B"}, {"C"}))
            after = fn(out, blocks({"A'"}, {"B"}, {"C"}))
            assert after <= before + 1e-8


def test_additivity_over_products():
    rng = np.random.default_rng(15)
    a = random_state(rng, ("A1", "B1"), (2, 2))
    b = random_state(rng, ("A2", "B2"), (2, 2))
    prod = tensor([a, b])
    spec = blocks({"A1", "A2"}, {"B1", "B2"})
    for fn in (cmi_total, cmi_dual_measure):
        joint = fn(prod, spec)
        parts = fn(a, blocks({"A1"}, {"B1"})) + fn(b, blocks({"A2"}, {"B2"}))
        assert abs(joint - parts) < 1e-9


def test_entropy_via_purification_marginals():
    rng = np.random.default_rng(16)
    rho = random_state(rng, ("A", "B"), (2, 2))
    phi = purify(rho, "E")
    # complementary marginals of a pure state have equal entropy
    assert abs(entropy(phi, {"A", "B"}) - entropy(phi, {"E"})) < 1e-9
    assert abs(entropy(phi, {"A", "B"}) - entropy(partial_trace(phi, {"A", "B"}), {"A", "B"})) < 1e-12


def _per_cut_entropy_sums(shape, labels, forms):
    """Reference for ``_pure_entropy_sums``: the same cuts and coefficients,
    with one transpose, Gram product and ``eigh`` per cut."""
    axis = {lab: i for i, lab in enumerate(labels)}
    every = frozenset(range(len(shape)))

    def size(side):
        return math.prod(shape[i] for i in side)

    def cut_of(subset):
        keep = frozenset(axis[lab] for lab in subset)
        return min(tuple(sorted(keep)), tuple(sorted(every - keep)), key=lambda s: (size(s), s))

    cuts, entries = {}, []
    for k, form in enumerate(forms):
        for subset, c in form.items():
            cut = cut_of(subset)
            if size(cut) > 1:
                entries.append((k, cuts.setdefault(cut, len(cuts)), c))
    coeff = np.zeros((len(forms), len(cuts)))
    for k, j, c in entries:
        coeff[k, j] += c
    perms = [cut + tuple(sorted(every - set(cut))) for cut in cuts]
    inverses = [tuple(np.argsort(perm)) for perm in perms]
    moved = [tuple(shape[i] for i in perm) for perm in perms]
    sides = [size(cut) for cut in cuts]

    def evaluate(psi):
        ent = np.zeros(len(perms))
        spectra = []
        for j, perm in enumerate(perms):
            m = psi.transpose(perm).reshape(sides[j], -1)
            w, v = np.linalg.eigh(m @ m.conj().T)
            pos = w > _EIG_FLOOR
            log_w = np.zeros_like(w)
            log_w[pos] = np.log2(w[pos])
            ent[j] = -w[pos] @ log_w[pos]
            log_w[pos] += 1.0 / math.log(2.0)
            spectra.append((m, v, log_w))

        def grad(k):
            g = np.zeros(psi.shape, dtype=complex)
            for j, (m, v, dlog) in enumerate(spectra):
                if coeff[k, j]:
                    gm = (-coeff[k, j] * (v * dlog)) @ (v.conj().T @ m)
                    g += gm.reshape(moved[j]).transpose(inverses[j])
            return g

        return coeff @ ent, grad

    return evaluate


@settings(max_examples=150, deadline=None)
@given(
    dims=st.lists(st.sampled_from((1, 2, 3)), min_size=2, max_size=4),
    trailing=st.lists(st.sampled_from((1, 2, 3)), max_size=2),
    n_blocks=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_kernel_equals_per_cut_loop(dims, trailing, n_blocks, seed):
    # qubit, qutrit and one-dimensional axes, unlabeled trailing axes, and
    # both measures over 2 or 3 blocks with the other labels conditioned on
    rng = np.random.default_rng(seed)
    labels = tuple("ABCD"[: len(dims)])
    shape = tuple(dims) + tuple(trailing)
    order = [labels[i] for i in rng.permutation(len(labels))]
    n_blocks = min(n_blocks, len(labels))
    in_blocks = int(rng.integers(n_blocks, len(labels) + 1))
    bounds = sorted(rng.choice(np.arange(1, in_blocks), n_blocks - 1, replace=False))
    blocks = [frozenset(b) for b in np.split(np.array(order[:in_blocks]), bounds)]
    e = frozenset(order[in_blocks:])
    some = frozenset(order[: int(rng.integers(1, len(labels) + 1))])
    forms = [
        {s: 0.5 * c for s, c in _cmi_total(blocks, e).items()},
        {s: 0.5 * c for s, c in _cmi_dual(blocks, e).items()},
        # a subset and its complement among the labels: the same cut, and a
        # zero coefficient, when there are no unlabeled axes
        {some: 1.5, frozenset(labels) - some: -1.5},
        {},
    ]
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    psi /= np.linalg.norm(psi)
    values, grad = _pure_entropy_sums(shape, labels, forms)(psi)
    ref_values, ref_grad = _per_cut_entropy_sums(shape, labels, forms)(psi)
    assert np.array_equal(values, ref_values)
    for k in range(len(forms)):
        assert np.array_equal(grad(k), ref_grad(k))
