import itertools
import re

import numpy as np
import pytest

from qbcbound import (
    BosonicBroadcastSpec,
    LabelNotFound,
    Measure,
    MultipartiteState,
    Partition,
    PrivateStateSpec,
    QbcError,
    QuantumChannel,
    SpecError,
    a_of,
    c_of,
    check_private_state,
    cmi_dual_measure,
    cmi_total,
    conditional_entropy,
    constraint_coefficients,
    entropy,
    esq_exact_pure,
    esq_upper_variational,
    evaluate_bounds,
    make_ghz,
    make_private_state,
    nontrivial_partitions,
    parse_partition,
    partial_trace,
    purify,
    qcmi,
    subsets_geq2,
    tensor,
)
from qbcbound.sampling import random_channel, random_pure_state, random_state


def part(*bs):
    return Partition(tuple(tuple(b) for b in bs))


def test_partition_canonicalization_and_str():
    p = part(("C", "B"), ("A",))
    assert p.blocks == (("A",), ("B", "C"))
    assert str(p) == "A|B,C"
    assert p.ground == ("A", "B", "C")
    assert p.nontrivial


def test_partition_validation():
    with pytest.raises(SpecError):
        part(("A",), ("A", "B"))
    with pytest.raises(SpecError):
        part(())
    with pytest.raises(SpecError):
        part(("A", "A"), ("B",))
    with pytest.raises(SpecError):
        parse_partition("A,A|B")


@pytest.mark.parametrize(
    "blocks, fragment",
    [
        # a string block is refused, not split into its characters
        (("AB", "C"), "block 'AB' is a string, not a collection"),
        (("kA", "kB"), "block 'kA' is a string"),
        ((("A",), ("B,C",)), "label 'B,C' cannot appear in a partition string"),
        ((("A|B",), ("C",)), "label 'A|B' cannot appear in a partition string"),
        ((("A ",), ("B",)), "label 'A ' cannot appear in a partition string"),
        ((("",), ("B",)), "label '' cannot appear in a partition string"),
        (((1,), ("B",)), "label 1 is not a string"),
        # neither is a block or a partition that is not a collection at all
        ((1, 2), "block 1 is not a collection"),
        (5, "partition 5 is not a collection"),
    ],
    ids=["string-blocks", "string-key-blocks", "comma-label", "bar-label", "space-label",
         "empty-label", "int-label", "int-blocks", "int-partition"],
)
def test_partition_refuses_what_a_partition_string_cannot_name(blocks, fragment):
    with pytest.raises(SpecError, match=re.escape(fragment)):
        Partition(blocks)


_G2 = make_ghz(("A", "B"), 2)
_GK = make_ghz(("kA", "kB"), 2)
_SPEC = PrivateStateSpec(2, 2, (1, 1))
_COPY = QuantumChannel((np.eye(4)[:, [0, 3]],), 2, ("B", "C"), (2, 2))


@pytest.mark.parametrize(
    "call, message",
    [
        # a string is refused, not split into one-character labels
        (lambda: entropy(_G2, "AB"), "subset 'AB' is a string, not a collection"),
        (lambda: entropy(_GK, "kA"), "subset 'kA' is a string, not a collection"),
        (lambda: partial_trace(_GK, "kA"), "keep 'kA' is a string, not a collection"),
        (lambda: qcmi(_GK, "kA", "kB"), "a 'kA' is a string, not a collection"),
        (lambda: conditional_entropy(_G2, ("A",), "B"), "given 'B' is a string, not a collection"),
        (lambda: cmi_total(make_ghz(("A", "B", "C"), 2), parse_partition("A|B"), "C"),
         "conditioning 'C' is a string, not a collection"),
        (lambda: Partition("AB"), "partition 'AB' is a string, not a collection"),
        (lambda: MultipartiteState(np.eye(4) / 4, "AB", (2, 2)),
         "labels 'AB' is a string, not a collection"),
        (lambda: MultipartiteState(np.eye(2) / 2, ("A",), "2"),
         "dims '2' is a string, not a collection"),
        (lambda: QuantumChannel("K", 1, ("B",), (1,)),
         "kraus_ops 'K' is a string, not a collection"),
        (lambda: QuantumChannel((np.eye(4),), 4, "BC", (2, 2)),
         "output_labels 'BC' is a string, not a collection"),
        (lambda: QuantumChannel((np.eye(2),), 2, ("B",), "2"),
         "output_dims '2' is a string, not a collection"),
        (lambda: PrivateStateSpec(2, 2, "11"), "shield_dims '11' is a string, not a collection"),
        (lambda: PrivateStateSpec(2, 2, (1, 1), "U"),
         "twist_unitaries 'U' is a string, not a collection"),
        (lambda: tensor("ab"), "parts 'ab' is a string, not a collection"),
        (lambda: make_ghz("ABC", 2), "labels 'ABC' is a string, not a collection"),
        (lambda: make_private_state(_SPEC, "AB", ("C", "D")),
         "key_labels 'AB' is a string, not a collection"),
        (lambda: make_private_state(_SPEC, ("A", "B"), "CD"),
         "shield_labels 'CD' is a string, not a collection"),
        (lambda: check_private_state(_GK, "kA", (), 2),
         "key_labels 'kA' is a string, not a collection"),
        (lambda: check_private_state(_GK, ("kA", "kB"), "kA", 2),
         "shield_labels 'kA' is a string, not a collection"),
        (lambda: evaluate_bounds(_COPY, "R|B,C"),
         "partitions 'R|B,C' is a string, not a collection"),
        # and so is a value that is no collection at all
        (lambda: MultipartiteState(np.eye(2) / 2, 5, (2,)), "labels 5 is not a collection"),
        (lambda: MultipartiteState(np.eye(2) / 2, ("A",), 2), "dims 2 is not a collection"),
        (lambda: QuantumChannel(5, 2, ("B",), (2,)), "kraus_ops 5 is not a collection"),
        (lambda: QuantumChannel((np.eye(2),), 2, 5, (2,)), "output_labels 5 is not a collection"),
        (lambda: QuantumChannel((np.eye(2),), 2, ("B",), 2), "output_dims 2 is not a collection"),
        (lambda: PrivateStateSpec(2, 2, 2), "shield_dims 2 is not a collection"),
        (lambda: PrivateStateSpec(2, 2, (1, 1), 5), "twist_unitaries 5 is not a collection"),
        (lambda: tensor(5), "parts 5 is not a collection"),
        (lambda: make_ghz(5, 2), "labels 5 is not a collection"),
        (lambda: make_private_state(_SPEC, 5, ("C", "D")), "key_labels 5 is not a collection"),
        (lambda: make_private_state(_SPEC, ("A", "B"), 5), "shield_labels 5 is not a collection"),
        (lambda: check_private_state(_GK, 5, (), 2), "key_labels 5 is not a collection"),
        (lambda: check_private_state(_GK, ("kA", "kB"), 5, 2),
         "shield_labels 5 is not a collection"),
        (lambda: evaluate_bounds(_COPY, 5), "partitions 5 is not a collection"),
    ],
    ids=[
        "entropy-AB", "entropy-kA", "partial-trace", "qcmi", "conditional-entropy", "cmi-total",
        "partition", "state-labels", "state-dims", "kraus", "channel-labels", "channel-dims",
        "shield-dims", "twists", "tensor", "ghz", "private-keys", "private-shields", "check-keys",
        "check-shields", "evaluate-bounds",
        "int-state-labels", "int-state-dims", "int-kraus", "int-channel-labels",
        "int-channel-dims", "int-shield-dims", "int-twists", "int-tensor", "int-ghz",
        "int-private-keys", "int-private-shields", "int-check-keys", "int-check-shields",
        "int-evaluate-bounds",
    ],
)
def test_one_collection_rule(call, message):
    """Every collection argument is read by ``partitions._read_once``: a bare
    string or a non-collection raises ``SpecError`` naming the argument."""
    with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
        call()


_AB = Partition((("A",), ("B",)))
_NOT_A_PARTITION = "partition 'A|B' is not a Partition: parse a string with parse_partition"
_NOT_COMPLEX = "is not a rectangular array of complex numbers"


@pytest.mark.parametrize(
    "call, error, message",
    [
        # the set helpers refuse a string as every other reader does
        (lambda: nontrivial_partitions("AB"), SpecError, "ground 'AB' is a string, not a collection"),
        (lambda: subsets_geq2("kAB"), SpecError, "ground 'kAB' is a string, not a collection"),
        (lambda: a_of("AB", _AB), SpecError, "m 'AB' is a string, not a collection"),
        # and so do the samplers, before any constructor sees the labels
        (lambda: random_state(np.random.default_rng(0), "AB", (2, 2)), SpecError,
         "labels 'AB' is a string, not a collection"),
        (lambda: random_pure_state(np.random.default_rng(0), "AB", (2, 2)), SpecError,
         "labels 'AB' is a string, not a collection"),
        (lambda: random_channel(np.random.default_rng(0), 2, "BC", (2, 2)), SpecError,
         "output_labels 'BC' is a string, not a collection"),
        # a mapping would read as its keys
        (lambda: MultipartiteState(np.eye(4) / 4, {"A": 0, "B": 1}, (2, 2)), SpecError,
         "labels {'A': 0, 'B': 1} is a mapping, not a collection"),
        (lambda: QuantumChannel((np.eye(2),), 2, {"B": 2}, (2,)), SpecError,
         "output_labels {'B': 2} is a mapping, not a collection"),
        (lambda: evaluate_bounds(_COPY, {parse_partition("R|B,C"): 1}), SpecError,
         "partitions {Partition(blocks=(('B', 'C'), ('R',))): 1} is a mapping, not a collection"),
        # an entry of the wrong type is named by its index
        (lambda: evaluate_bounds(_COPY, [parse_partition("R|B,C"), "R|B,C"]), SpecError,
         "partitions entry 1 'R|B,C' is not a Partition"),
        (lambda: tensor([_G2, 5]), SpecError, "parts entry 1 5 is not a MultipartiteState"),
        # and so is a label-set entry that no set can hold
        (lambda: entropy(_G2, [["A"]]), SpecError, "subset entry 0 ['A'] is not a Hashable"),
        (lambda: entropy(_G2, ["B", {"A"}]), SpecError, "subset entry 1 {'A'} is not a Hashable"),
        (lambda: qcmi(_G2, [["A"]], ["B"]), SpecError, "a entry 0 ['A'] is not a Hashable"),
        (lambda: conditional_entropy(_G2, [["A"]], []), SpecError,
         "subset entry 0 ['A'] is not a Hashable"),
        (lambda: partial_trace(_G2, [["A"]]), SpecError, "keep entry 0 ['A'] is not a Hashable"),
        (lambda: cmi_total(_G2, _AB, [["E"]]), SpecError,
         "conditioning entry 0 ['E'] is not a Hashable"),
        (lambda: check_private_state(_G2, [["A"]], (), 2), SpecError,
         "key_labels entry 0 ['A'] is not a Hashable"),
        # a hashable-looking entry that holds an unhashable one
        (lambda: entropy(_G2, [("A", ["B"])]), SpecError,
         "subset entry 0 ('A', ['B']) is not a Hashable"),
        (lambda: qcmi(_G2, [("A", {"x"})], ["B"]), SpecError,
         "a entry 0 ('A', {'x'}) is not a Hashable"),
        # the set helpers check each label before they sort
        (lambda: subsets_geq2(["A", 1]), SpecError, "label 1 is not a string"),
        (lambda: nontrivial_partitions(["A", 1]), SpecError, "label 1 is not a string"),
        (lambda: a_of(["A", 1], _AB), SpecError, "label 1 is not a string"),
        # a matrix that numpy cannot read as complex numbers names its field
        (lambda: MultipartiteState([["a"]], ("A",), (1,)), QbcError, f"matrix {_NOT_COMPLEX}"),
        (lambda: MultipartiteState([[1, 0], [0]], ("A",), (2,)), QbcError,
         f"matrix {_NOT_COMPLEX}"),
        (lambda: MultipartiteState({"a": 1}, ("A",), (1,)), QbcError, f"matrix {_NOT_COMPLEX}"),
        (lambda: MultipartiteState([[10**400]], ("A",), (1,)), QbcError,
         f"matrix {_NOT_COMPLEX}"),
        (lambda: QuantumChannel(("ab",), 2, ("B",), (2,)), QbcError,
         f"Kraus operator {_NOT_COMPLEX}"),
        (lambda: QuantumChannel(([[1, 0], [0]],), 2, ("B",), (2,)), QbcError,
         f"Kraus operator {_NOT_COMPLEX}"),
        (lambda: PrivateStateSpec(2, 2, (1, 1), (["u"],) * 4), QbcError,
         f"twist unitary {_NOT_COMPLEX}"),
        (lambda: PrivateStateSpec(2, 2, (1, 1), shield_state=[["x"]]), QbcError,
         f"shield state {_NOT_COMPLEX}"),
        # a partition string is not a Partition
        (lambda: cmi_total(_G2, "A|B"), SpecError, _NOT_A_PARTITION),
        (lambda: cmi_dual_measure(_G2, "A|B"), SpecError, _NOT_A_PARTITION),
        (lambda: esq_exact_pure(_G2, "A|B"), SpecError, _NOT_A_PARTITION),
        (lambda: esq_upper_variational(_G2, "A|B"), SpecError, _NOT_A_PARTITION),
        (lambda: c_of("A|B"), SpecError, _NOT_A_PARTITION),
        (lambda: a_of(("A", "B"), "A|B"), SpecError, _NOT_A_PARTITION),
        (lambda: constraint_coefficients("A|B"), SpecError, _NOT_A_PARTITION),
    ],
    ids=[
        "nontrivial-partitions", "subsets-geq2", "a-of", "random-state", "random-pure-state",
        "random-channel", "map-state-labels", "map-channel-labels", "map-partitions",
        "entry-partitions", "entry-tensor", "entry-entropy-list", "entry-entropy-set",
        "entry-qcmi", "entry-conditional-entropy", "entry-partial-trace", "entry-cmi-total",
        "entry-check-keys", "entry-entropy-nested", "entry-qcmi-nested", "label-subsets-geq2",
        "label-nontrivial-partitions", "label-a-of", "matrix-string", "matrix-ragged", "matrix-mapping", "matrix-huge-int",
        "kraus-string", "kraus-ragged", "twist-string", "shield-string", "string-cmi-total",
        "string-cmi-dual", "string-esq-exact", "string-esq-variational", "string-c-of",
        "string-a-of", "string-coefficients",
    ],
)
def test_one_reading_rule(call, error, message):
    """A set helper, a sampler, a mapping, a wrong entry, a matrix numpy cannot
    read and a partition string each raise a ``QbcError`` subclass naming the
    argument; every row raised a bare Python error or was read silently
    before the rule covered it."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_set_helpers_read_any_collection_of_labels():
    for ground in (("A", "B", "C"), ["C", "A", "B"], {"B", "C", "A"}, iter("CBA")):
        assert subsets_geq2(ground) == [("A", "B"), ("A", "C"), ("B", "C"), ("A", "B", "C")]
    for ground in (("A", "B"), ["B", "A"], {"A", "B"}):
        assert nontrivial_partitions(ground) == [_AB]
    for m in (("A", "B"), ["B", "A"], {"A", "B"}):
        assert a_of(m, _AB) == [("A",), ("B",)]


# an int past Python's 4300-digit limit for int-to-string conversion, which
# repr refuses with a bare ValueError
_HUGE = 10**5000


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: BosonicBroadcastSpec(_HUGE), SpecError,
         "transmission coefficients <int> is not a collection"),
        (lambda: Partition(((_HUGE,), ("B",))), SpecError, "label <int> is not a string"),
        (lambda: Measure(_HUGE), SpecError, "unknown measure <int>"),
        (lambda: entropy(make_ghz(("A", "B", "C"), 2), [_HUGE]), LabelNotFound,
         "label <int> not in ('A', 'B', 'C')"),
        (lambda: purify(make_ghz(("A", "B", "C"), 2), _HUGE), SpecError,
         "label <int> is not a string"),
        (lambda: check_private_state(make_ghz(("A", "B", "C"), 2), ("A", "B"), (_HUGE,), 2),
         LabelNotFound, "shield label <int> not in ('A', 'B', 'C')"),
    ],
    ids=["bosonic-spec", "partition", "measure", "entropy", "purify", "shield-label"],
)
def test_a_value_repr_refuses_is_named_by_its_type(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_partition_reads_a_generator_of_blocks_once():
    assert Partition(b for b in [("A",), ("B",)]) == Partition((("A",), ("B",)))


def test_parse_partition_roundtrip():
    p = parse_partition("R|B,C")
    assert p.blocks == (("B", "C"), ("R",))
    assert parse_partition(str(p)) == p
    with pytest.raises(SpecError):
        parse_partition("A||B")


def test_subsets_geq2_counts():
    assert subsets_geq2({"A", "B"}) == [("A", "B")]
    s3 = subsets_geq2({"A", "B", "C"})
    assert s3 == [("A", "B"), ("A", "C"), ("B", "C"), ("A", "B", "C")]
    assert len(subsets_geq2({"A", "B", "C", "D"})) == 11


def test_nontrivial_partition_counts():
    assert len(nontrivial_partitions({"A", "B"})) == 1
    assert len(nontrivial_partitions({"A", "B", "C"})) == 4
    assert len(nontrivial_partitions({"A", "B", "C", "D"})) == 14


def test_c_of_two_block():
    g1 = part(("A",), ("B", "C"))
    assert c_of(g1) == [("A", "B"), ("A", "C"), ("A", "B", "C")]


def test_c_of_complete():
    g4 = part(("A",), ("B",), ("C",))
    assert c_of(g4) == [("A", "B"), ("A", "C"), ("B", "C"), ("A", "B", "C")]


def test_c_of_two_by_two():
    g = part(("A", "B"), ("C", "D"))
    got = c_of(g)
    assert ("A", "B") not in got
    assert ("C", "D") not in got
    # every returned set crosses both blocks
    for m in got:
        assert set(m) & {"A", "B"} and set(m) & {"C", "D"}


def test_c_of_requires_nontrivial():
    with pytest.raises(SpecError):
        c_of(part(("A", "B", "C")))


def test_a_of_values():
    g4 = part(("A",), ("B",), ("C",))
    assert a_of({"A", "B"}, g4) == [("A",), ("B",)]
    assert a_of({"A", "C"}, g4) == [("A",), ("C",)]
    assert a_of({"B", "C"}, g4) == [("B",), ("C",)]
    assert a_of({"A", "B", "C"}, g4) == [("A",), ("B",), ("C",)]


def test_a_of_rejects_inner_subset():
    g1 = part(("A",), ("B", "C"))
    with pytest.raises(SpecError):
        a_of({"B", "C"}, g1)


@pytest.mark.parametrize(
    "build, fragment",
    [
        (lambda: subsets_geq2({"A"}), "ground set needs at least 2 elements"),
        (lambda: nontrivial_partitions({"A"}), "ground set needs at least 2 elements"),
        (lambda: a_of({"A", "B"}, part(("A", "B"))), "C(G) requires a nontrivial partition"),
        (lambda: constraint_coefficients(part(("A", "B"))),
         "coefficients require a nontrivial partition"),
    ],
    ids=["subsets-one-label", "partitions-one-label", "a-of-one-block",
         "coefficients-one-block"],
)
def test_too_small_inputs_refused(build, fragment):
    with pytest.raises(SpecError, match=re.escape(fragment)):
        build()


def test_constraint_coefficients_values():
    g1 = part(("A",), ("B", "C"))
    assert constraint_coefficients(g1) == {
        ("A", "B"): 2,
        ("A", "C"): 2,
        ("A", "B", "C"): 2,
    }
    g4 = part(("A",), ("B",), ("C",))
    assert constraint_coefficients(g4) == {
        ("A", "B"): 2,
        ("A", "C"): 2,
        ("B", "C"): 2,
        ("A", "B", "C"): 3,
    }
    gb = part(("A",), ("B",))
    assert constraint_coefficients(gb) == {("A", "B"): 2}


def test_coefficient_range_invariant():
    for ground in ({"A", "B", "C"}, {"A", "B", "C", "D"}):
        for g in nontrivial_partitions(ground):
            coeffs = constraint_coefficients(g)
            for m, k in coeffs.items():
                assert 2 <= k <= len(g.blocks)
                assert not any(set(m) <= set(b) for b in g.blocks)


def test_complete_partition_special_case():
    ground = {"A", "B", "C", "D"}
    g = Partition(tuple((x,) for x in sorted(ground)))
    assert c_of(g) == subsets_geq2(ground)
    for m, k in constraint_coefficients(g).items():
        assert k == len(m)


def _by_size(sets):
    return sorted((tuple(sorted(s)) for s in sets), key=lambda s: (len(s), s))


def _brute_force(partition):
    """C(G) and each A(M, G) straight from the definitions: unions of one
    subset per block (each possibly empty), less the empty set, singletons
    and sets inside one block; A(M, G) the non-empty block intersections."""
    blocks = [set(b) for b in partition.blocks]
    per_block = [
        [set(c) for r in range(len(b) + 1) for c in itertools.combinations(b, r)]
        for b in blocks
    ]
    unions = {frozenset().union(*choice) for choice in itertools.product(*per_block)}
    collection = _by_size(m for m in unions if len(m) >= 2 and not any(m <= b for b in blocks))
    return collection, {m: _by_size(b & set(m) for b in blocks if b & set(m)) for m in collection}


_SMALL_PARTITIONS = [g for n in range(2, 7) for g in nontrivial_partitions(tuple("ABCDEF"[:n]))]


@pytest.mark.parametrize("g", _SMALL_PARTITIONS, ids=str)
def test_coefficients_match_the_definitions(g):
    collection, a = _brute_force(g)
    assert c_of(g) == collection
    for m in collection:
        assert a_of(m, g) == a[m]
    assert list(constraint_coefficients(g).items()) == [(m, len(a[m])) for m in collection]
