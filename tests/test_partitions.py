import itertools

import pytest

from qbcbound import (
    Partition,
    SpecError,
    a_of,
    c_of,
    constraint_coefficients,
    nontrivial_partitions,
    parse_partition,
    subsets_geq2,
)


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


_SMALL_PARTITIONS = [g for n in range(2, 7) for g in nontrivial_partitions("ABCDEF"[:n])]


@pytest.mark.parametrize("g", _SMALL_PARTITIONS, ids=str)
def test_coefficients_match_the_definitions(g):
    collection, a = _brute_force(g)
    assert c_of(g) == collection
    for m in collection:
        assert a_of(m, g) == a[m]
    assert list(constraint_coefficients(g).items()) == [(m, len(a[m])) for m in collection]
