"""Set combinatorics behind the rate constraints.

A ``Partition`` of the party set is the one description of a grouping of
labels: every multipartite measure and every rate constraint takes one.
From a nontrivial partition G we derive the collection C(G) of cross-block
subsets and, for each M in C(G), the block-intersection pattern A(M, G)
whose size is the coefficient of (E_M + K_M) in the rate constraint; the
coefficients are a plain M -> |A(M, G)| dict.

Sets are represented as sorted label tuples for canonical equality and
deterministic ordering.  Brute-force enumeration is fine at the target
scale (at most six parties).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import SpecError

LabelSet = tuple[str, ...]


def _canon(labels) -> LabelSet:
    return tuple(sorted(labels))


@dataclass(frozen=True)
class Partition:
    """A partition of a ground set into disjoint non-empty blocks."""

    blocks: tuple[LabelSet, ...]

    def __post_init__(self):
        blocks = tuple(sorted(_canon(b) for b in self.blocks))
        object.__setattr__(self, "blocks", blocks)
        if not blocks or any(not b for b in blocks):
            raise SpecError("blocks must be non-empty")
        labels = [lab for b in blocks for lab in b]
        if len(set(labels)) != len(labels):
            raise SpecError(f"a label is repeated in {self}: blocks must be disjoint sets")

    @property
    def ground(self) -> LabelSet:
        return _canon(set().union(*(set(b) for b in self.blocks)))

    @property
    def nontrivial(self) -> bool:
        return len(self.blocks) > 1

    def __str__(self) -> str:
        return "|".join(",".join(b) for b in self.blocks)


def parse_partition(text: str) -> Partition:
    """Parse the CLI syntax "R|B,C" into a Partition."""
    blocks = []
    for part in text.split("|"):
        labs = [x.strip() for x in part.split(",") if x.strip()]
        if not labs:
            raise SpecError(f"empty block in partition string {text!r}")
        blocks.append(tuple(labs))
    return Partition(tuple(blocks))


def subsets_geq2(ground) -> list[LabelSet]:
    """All subsets of size >= 2, canonically ordered."""
    ground = _canon(set(ground))
    if len(ground) < 2:
        raise SpecError("ground set needs at least 2 elements")
    out = []
    for r in range(2, len(ground) + 1):
        out.extend(_canon(c) for c in itertools.combinations(ground, r))
    return sorted(out, key=lambda s: (len(s), s))


def nontrivial_partitions(ground) -> list[Partition]:
    """All partitions with at least 2 blocks (Bell(n) - 1 of them)."""
    ground = _canon(set(ground))
    if len(ground) < 2:
        raise SpecError("ground set needs at least 2 elements")

    def gen(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in gen(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
            yield [[first]] + sub

    parts = []
    for blocks in gen(list(ground)):
        if len(blocks) > 1:
            parts.append(Partition(tuple(tuple(b) for b in blocks)))
    return sorted(parts, key=lambda p: (len(p.blocks), p.blocks))


def _met(m: set, partition: Partition) -> list[LabelSet]:
    """The non-empty intersections of ``m`` with the blocks of ``partition``."""
    return [_canon(m.intersection(b)) for b in partition.blocks if not m.isdisjoint(b)]


def c_of(partition: Partition) -> list[LabelSet]:
    """The collection C(G): the subsets of the ground set that meet at least
    two blocks."""
    if not partition.nontrivial:
        raise SpecError("C(G) requires a nontrivial partition")
    return [m for m in subsets_geq2(partition.ground) if len(_met(set(m), partition)) > 1]


def a_of(m, partition: Partition) -> list[LabelSet]:
    """A(M, G) = { X intersect M | X in G } minus the empty set."""
    if not partition.nontrivial:
        raise SpecError("C(G) requires a nontrivial partition")
    m = set(m)
    met = _met(m, partition)
    if not m <= set(partition.ground) or len(met) < 2:
        raise SpecError(f"{_canon(m)} is not an element of C(G)")
    return sorted(met, key=lambda s: (len(s), s))


def constraint_coefficients(partition: Partition) -> dict[LabelSet, int]:
    """M -> |A(M, G)| for every M in C(G), in ``c_of`` order.

    The rate constraint reads (1/2) sum_M |A(M, G)| (K_M + E_M) <= bound.
    """
    if not partition.nontrivial:
        raise SpecError("coefficients require a nontrivial partition")
    return {m: len(_met(set(m), partition)) for m in c_of(partition)}
