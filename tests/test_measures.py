import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbcbound import (
    EmptySubset,
    LabelCollision,
    LabelNotFound,
    MultipartiteState,
    Partition,
    QbcError,
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
from qbcbound.measures import _PURIFIER, Measure, _pure_entropy_sums
from qbcbound.sampling import random_channel, random_pure_state, random_state
from qbcbound.states import RANK_TOL as _EIG_FLOOR


def _cmi_total(blocks, e) -> dict[frozenset, float]:
    """Reference map of sum_i H(A_i|E) - H(A_1...A_m|E), subset ->
    coefficient, in the key order ``Measure.E_SQ.form`` must keep."""
    if len(blocks) == 1:
        return {}
    e = frozenset(e)
    coeffs = {e: 1.0 - len(blocks)}
    coeffs.update((e | frozenset(b), 1.0) for b in blocks)
    coeffs[e.union(*blocks)] = -1.0
    return coeffs


def _cmi_dual(blocks, e) -> dict[frozenset, float]:
    """Reference map of sum_i H(A_[m]\\{i}|E) - (m-1) H(A_1...A_m|E),
    subset -> coefficient, in the key order ``Measure.E_SQ_TILDE.form`` must
    keep."""
    if len(blocks) == 1:
        return {}
    e = frozenset(e)
    allb = e.union(*blocks)
    coeffs = {e: -1.0, allb: 1.0 - len(blocks)}
    coeffs.update((allb - frozenset(b), 1.0) for b in blocks)
    return coeffs


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

    # every entropy of a measure sum starts with its reduction
    monkeypatch.setattr("qbcbound.measures._marginal", no_entropy)
    # the text partial_trace gives a missing label
    with pytest.raises(LabelNotFound, match=r"^label 'Z' not in \('A', 'B', 'C'\)$"):
        fn(ghz, blocks(*spec), conditioning)


def test_measure_sums_floor_a_marginal_below_the_eigenvalue_tolerance():
    # the state is accepted (eigenvalue -0.9e-10), its marginal on A is not
    # (-1.8e-10): entropy validates that marginal, the sums floor it
    t = 0.9e-10
    state = MultipartiteState(np.diag([0.5 + t, 0.5 + t, -t, -t]), ("A", "B"), (2, 2))
    with pytest.raises(QbcError, match="eigenvalue -1.800e-10 below"):
        entropy(state, {"A"})
    assert conditional_entropy(state, {"A"}, ()) == 0.0
    assert abs(qcmi(state, {"A"}, {"B"})) < 1e-9


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
    """Reference for one problem of ``_pure_entropy_sums``: the same cuts and
    coefficients, with one transpose, Gram product and ``eigh`` per cut, the
    cuts ordered by the dimension of their smaller side."""
    axis = {lab: i for i, lab in enumerate(labels)}
    every = frozenset(i for i, d in enumerate(shape) if d > 1)

    def size(side):
        return math.prod(shape[i] for i in side)

    def cut_of(subset):
        keep = frozenset(axis[lab] for lab in subset) & every
        return min(tuple(sorted(keep)), tuple(sorted(every - keep)), key=lambda s: (size(s), s))

    cuts, entries = {}, []
    for k, form in enumerate(forms):
        for subset, c in form.items():
            cut = cut_of(subset)
            if size(cut) > 1:
                entries.append((k, cuts.setdefault(cut, len(cuts)), c))
    order = sorted(cuts, key=lambda cut: (size(cut), cuts[cut]))
    coeff = np.zeros((len(forms), len(cuts)))
    for k, j, c in entries:
        coeff[k, order.index(list(cuts)[j])] += c
    perms = [cut + tuple(sorted(set(range(len(shape))) - set(cut))) for cut in order]
    inverses = [tuple(np.argsort(perm)) for perm in perms]
    moved = [tuple(shape[i] for i in perm) for perm in perms]
    sides = [size(cut) for cut in order]

    def evaluate(psi):
        ent = np.zeros(len(perms))
        spectra = []
        for j, perm in enumerate(perms):
            m = psi.transpose(perm).reshape(sides[j], -1)
            w, v = np.linalg.eigh(m @ m.conj().T)
            pos = w > _EIG_FLOOR
            log_w = np.zeros_like(w)
            log_w[pos] = np.log2(w[pos])
            ent[j] = -(w * log_w).sum()
            log_w[pos] += 1.0 / math.log(2.0)
            spectra.append((m, v, log_w))

        def grad(k):
            g = np.zeros(psi.shape, dtype=complex)
            for j, (m, v, dlog) in enumerate(spectra):
                if coeff[k, j]:
                    gm = (-coeff[k, j] * (v * dlog)) @ (v.conj().T @ m)
                    g += gm.reshape(moved[j]).transpose(inverses[j])
            return g

        # slot by slot, as the kernel adds them
        values = np.zeros(len(forms))
        for j in range(len(perms)):
            values += coeff[:, j] * ent[j]
        return values, grad

    return evaluate


@settings(max_examples=150, deadline=None)
@given(
    dims=st.lists(st.sampled_from((1, 2, 3)), min_size=2, max_size=4),
    trailing=st.lists(st.sampled_from((1, 2, 3)), max_size=2),
    n_blocks=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
)
# side dimension 3 only in the split problem: every other problem pads it
@example(dims=[3, 2, 2], trailing=[2], n_blocks=2, seed=1)
def test_batched_kernel_equals_per_cut_loop(dims, trailing, n_blocks, seed):
    # qubit, qutrit and one-dimensional axes, unlabeled trailing axes, and
    # both measures over 2 or 3 blocks with the other labels conditioned on,
    # stacked as problems of different cuts; each row matches the per-cut
    # loop on its own problem exactly
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
    total = {s: 0.5 * c for s, c in _cmi_total(blocks, e).items()}
    dual = {s: 0.5 * c for s, c in _cmi_dual(blocks, e).items()}
    # a subset and its complement among the labels: the same cut, and a zero
    # coefficient, when there are no unlabeled axes
    split = {some: 1.5, frozenset(labels) - some: -1.5}
    problems = [[total, dual], [split, {}], [dual, total], [{}, {}]]
    rows = [0, 1, 2, 3, 2, 0]
    psi = rng.normal(size=(len(rows),) + shape) + 1j * rng.normal(size=(len(rows),) + shape)
    psi /= np.linalg.norm(psi.reshape(len(rows), -1), axis=1).reshape((-1,) + (1,) * len(shape))
    evaluate = _pure_entropy_sums(shape, labels, problems)
    values, grad = evaluate(psi, rows)
    for k in range(2):
        grads = grad(np.full(len(rows), k))
        for i, p in enumerate(rows):
            ref_values, ref_grad = _per_cut_entropy_sums(shape, labels, problems[p])(psi[i])
            assert np.array_equal(values[i, k], ref_values[k])
            assert np.array_equal(grads[i], ref_grad(k))
    # a row alone is computed exactly as in the stack
    pick = rng.integers(0, 2, len(rows))
    grads = grad(pick)
    for i, p in enumerate(rows):
        alone_values, alone_grad = evaluate(psi[i : i + 1], [p])
        assert np.array_equal(alone_values[0], values[i])
        assert np.array_equal(alone_grad(pick[i : i + 1])[0], grads[i])


@pytest.mark.parametrize("e", [(), ("E", "F"), (_PURIFIER,)], ids=["no-e", "e", "purifier"])
@pytest.mark.parametrize("n_blocks", range(1, 5))
def test_measure_form_keeps_the_reference_maps(n_blocks, e):
    # key order counts: it fixes each cut's slot in _pure_entropy_sums, and
    # so the order of every running sum
    groups = (("A", "X"), ("B",), ("C", "Y", "Z"), ("D",))[:n_blocks]
    # as Partition.blocks holds them, and as qcmi passes its sets
    for g in (groups, [set(b) for b in groups]):
        for measure, reference in ((Measure.E_SQ, _cmi_total), (Measure.E_SQ_TILDE, _cmi_dual)):
            assert list(measure.form(g, e).items()) == list(reference(g, e).items())


@pytest.mark.parametrize("seed", range(3))
def test_kernel_keeps_every_bit_among_70_dimension_one_labels(seed):
    # 70 labels of dimension 1 after the others: 74 axes in a layout of one
    # axis per label, past numpy's 64; the gathers leave them out, so every
    # value and gradient keeps its bits
    rng = np.random.default_rng(seed)
    labels, shape, trailing = ("A", "B", "C"), (2, 3, 2), (2,)
    pad = tuple(f"X{i}" for i in range(70))
    cut = [frozenset("A"), frozenset("B")]
    total = {s: 0.5 * c for s, c in _cmi_total(cut, frozenset("C")).items()}
    dual = {s: 0.5 * c for s, c in _cmi_dual(cut, frozenset("C")).items()}
    problems = [[total, dual], [{frozenset("AC"): 1.5}, {frozenset("B"): -2.0}]]
    rows = [0, 1, 1, 0]
    n = math.prod(shape + trailing)
    psi = rng.normal(size=(len(rows), n)) + 1j * rng.normal(size=(len(rows), n))
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    values, grad = _pure_entropy_sums(shape + trailing, labels, problems)(psi, rows)
    padded = _pure_entropy_sums(shape + (1,) * 70 + trailing, labels + pad, problems)
    padded_values, padded_grad = padded(psi, rows)
    assert np.array_equal(padded_values, values)
    for pick in (np.zeros(len(rows), dtype=int), rng.integers(0, 2, len(rows))):
        assert np.array_equal(padded_grad(pick), grad(pick))
    # subsets that also name some of the 70 labels key the cuts they key
    # without them; a cut named twice adds its coefficients (here exactly)
    # before they multiply its entropy
    named = [
        {s | {"X0", "X41"}: c for s, c in total.items()},
        {frozenset({"A", "X3"}): 1.0, frozenset("A"): 0.5, frozenset({"B", "X69"}): -2.0,
         frozenset({"C", "X1", "X2"}): 0.25},
    ]
    bare = [total, {frozenset("A"): 1.5, frozenset("B"): -2.0, frozenset("C"): 0.25}]
    rows = [2, 0, 2]
    values, grad = _pure_entropy_sums(shape + trailing, labels, problems + [bare])(psi[:3], rows)
    padded = _pure_entropy_sums(shape + (1,) * 70 + trailing, labels + pad, problems + [named])
    padded_values, padded_grad = padded(psi[:3], rows)
    assert np.array_equal(padded_values, values)
    for pick in (np.zeros(len(rows), dtype=int), rng.integers(0, 2, len(rows))):
        assert np.array_equal(padded_grad(pick), grad(pick))


@pytest.mark.parametrize(
    "call",
    [
        lambda st: qcmi(st, {"A"}, {"Z"}),
        lambda st: qcmi(st, {"A"}, {"B"}, {"Z"}),
        lambda st: conditional_entropy(st, {"A"}, {"Z"}),
        lambda st: conditional_entropy(st, {"Z"}, {"A"}),
    ],
    ids=["qcmi-b", "qcmi-e", "conditional-given", "conditional-subset"],
)
def test_qcmi_checks_labels_before_any_entropy(monkeypatch, call):
    ghz = make_ghz(("A", "B", "C"), 2)

    def no_entropy(*args):
        raise AssertionError("an entropy was taken")

    # every entropy of a measure sum starts with its reduction
    monkeypatch.setattr("qbcbound.measures._marginal", no_entropy)
    with pytest.raises(LabelNotFound, match=r"^label 'Z' not in \('A', 'B', 'C'\)$"):
        call(ghz)
    # the pinned errors come first, in their order
    with pytest.raises(EmptySubset):
        qcmi(ghz, set(), {"Z"})
    with pytest.raises(LabelCollision):
        qcmi(ghz, {"Z"}, {"Z"})
    with pytest.raises(EmptySubset):
        conditional_entropy(ghz, set(), {"Z"})
    with pytest.raises(LabelCollision):
        conditional_entropy(ghz, {"Z"}, {"Z"})


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda st: qcmi(st, ("A",), 5), "b 5 is not a collection"),
        (lambda st: conditional_entropy(st, 5, "A"), "subset 5 is not a collection"),
        (lambda st: entropy(st, 5), "subset 5 is not a collection"),
        (lambda st: cmi_total(st, blocks("A", "B"), 5), "conditioning 5 is not a collection"),
        (lambda st: partial_trace(st, 5), "keep 5 is not a collection"),
    ],
    ids=["qcmi", "conditional-entropy", "entropy", "cmi-total", "partial-trace"],
)
def test_label_set_that_is_not_a_collection_refused(call, fragment):
    with pytest.raises(SpecError, match=f"^{fragment}$"):
        call(make_ghz(("A", "B", "C"), 2))


@pytest.mark.parametrize(
    "call",
    [
        lambda st: qcmi(st, [1], ["B"]),
        lambda st: conditional_entropy(st, ["A"], [1, "B"]),
        lambda st: cmi_total(st, blocks("A", "B"), [1, "C"]),
        lambda st: entropy(st, [1]),
    ],
    ids=["qcmi", "conditional-entropy", "cmi-total", "entropy"],
)
def test_label_of_another_type_not_found(call):
    # labels of mixed types are checked, not sorted into a bare TypeError
    with pytest.raises(LabelNotFound, match=r"^label 1 not in \('A', 'B', 'C'\)$"):
        call(make_ghz(("A", "B", "C"), 2))
