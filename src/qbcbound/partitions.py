"""Set combinatorics behind the rate constraints.

A ``Partition`` of the party set is the one description of a grouping of
labels: every multipartite measure and every rate constraint takes one.
From a nontrivial partition G we derive the collection C(G) of cross-block
subsets and, for each M in C(G), the block-intersection pattern A(M, G)
whose size is the coefficient of (E_M + K_M) in the rate constraint; the
coefficients are a plain M -> |A(M, G)| dict.

Sets are represented as sorted label tuples for canonical equality and
deterministic ordering.  Enumeration is brute force, so a ground set takes
at most ``MAX_PARTIES`` labels: ``_labels``, the set helpers' one reader,
refuses more before any enumeration, and ``rates.evaluate_bounds`` refuses
a channel of more parties even when its partitions are given.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import SpecError, TooLarge

LabelSet = tuple[str, ...]
# most parties, sender included: 8 give 4139 nontrivial partitions, each with up
# to 247 cross-block subsets, and each further party five times the partitions
MAX_PARTIES = 8


def _canon(labels) -> LabelSet:
    return tuple(sorted(labels))


def _shown(value) -> str:
    """``repr(value)`` for an error message, or the type's name in angle
    brackets when ``repr`` refuses, as it does for an int past Python's
    4300-digit limit."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__}>"


def _check_label(label) -> str:
    """``label`` if a partition string such as "R|B,C" can name it."""
    if not isinstance(label, str):
        raise SpecError(f"label {_shown(label)} is not a string")
    if not label or "," in label or "|" in label or label != label.strip():
        raise SpecError(
            f"label {label!r} cannot appear in a partition string: it is empty, "
            "holds ',' or '|', or has leading or trailing whitespace"
        )
    return label


def _instance(value, kind, what: str):
    """``value`` if it is an instance of ``kind``, a class or a tuple of
    classes; anything else raises ``SpecError`` naming it as ``what``, with
    a pointer to ``parse_partition`` where a ``Partition`` is expected."""
    if isinstance(value, kind):
        return value
    names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
    hint = ": parse a string with parse_partition" if kind is Partition else ""
    raise SpecError(f"{what} {_shown(value)} is not a {names}{hint}")


def _read_once(value, what: str, kind=None) -> tuple:
    """``value``, any iterable but a string or a mapping, read once into a
    tuple, each entry read by ``_instance`` when ``kind`` is given; a string,
    which would split into one-character labels, a mapping, which would read
    as its keys, a wrong entry (named by its index) or anything else raises
    ``SpecError`` naming it as ``what``."""
    if isinstance(value, (str, Mapping)):
        noun = "a string" if isinstance(value, str) else "a mapping"
        raise SpecError(f"{what} {_shown(value)} is {noun}, not a collection")
    try:
        entries = tuple(value)
    except TypeError:
        raise SpecError(f"{what} {_shown(value)} is not a collection") from None
    if kind is not None:
        for i, entry in enumerate(entries):
            _instance(entry, kind, f"{what} entry {i}")
    return entries


def _label_set(value, what: str) -> frozenset:
    """The set of labels ``value`` names, read by ``_read_once``; an entry
    that no set can hold, and so no label can equal, is refused by index."""
    entries = _read_once(value, what)
    for i, entry in enumerate(entries):
        try:
            hash(entry)
        except TypeError:
            raise SpecError(f"{what} entry {i} {_shown(entry)} is not a Hashable") from None
    return frozenset(entries)


def _label_list(value, what: str) -> LabelSet:
    """The one reader of ordered labels: ``value`` read by ``_read_once``,
    each entry checked, in the order given, by ``_check_label``."""
    return tuple(map(_check_label, _read_once(value, what)))


def _labels(value, what: str) -> LabelSet:
    """The set helpers' one reader: the labels ``value`` names, read by
    ``_label_list`` and sorted; more than ``MAX_PARTIES`` of them, which the
    helpers would enumerate for seconds or more, raise ``TooLarge``."""
    labels = _canon(set(_label_list(value, what)))
    if len(labels) > MAX_PARTIES:
        raise TooLarge(f"{what} holds {len(labels)} labels, past the cap of {MAX_PARTIES}")
    return labels


@dataclass(frozen=True)
class Partition:
    """A partition of a ground set into disjoint non-empty blocks, each a
    collection of labels; the blocks may be any iterable, read once."""

    blocks: tuple[LabelSet, ...]

    def __post_init__(self):
        blocks = [_label_list(b, "block") for b in _read_once(self.blocks, "partition")]
        blocks = tuple(sorted(map(_canon, blocks)))
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
    for part in _instance(text, str, "partition string").split("|"):
        labs = [x.strip() for x in part.split(",") if x.strip()]
        if not labs:
            raise SpecError(f"empty block in partition string {text!r}")
        blocks.append(tuple(labs))
    return Partition(tuple(blocks))


def subsets_geq2(ground) -> list[LabelSet]:
    """All subsets of size >= 2, canonically ordered: by size, then lexicographically."""
    ground = _labels(ground, "ground")
    if len(ground) < 2:
        raise SpecError("ground set needs at least 2 elements")
    return [c for r in range(2, len(ground) + 1) for c in itertools.combinations(ground, r)]


def _set_partitions(items):
    """Every partition of ``items`` as a list of blocks, each a list."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def nontrivial_partitions(ground) -> list[Partition]:
    """All partitions with at least 2 blocks (Bell(n) - 1 of them)."""
    ground = _labels(ground, "ground")
    if len(ground) < 2:
        raise SpecError("ground set needs at least 2 elements")

    parts = []
    for blocks in _set_partitions(list(ground)):
        if len(blocks) > 1:
            parts.append(Partition(tuple(tuple(b) for b in blocks)))
    return sorted(parts, key=lambda p: (len(p.blocks), p.blocks))


def c_of(partition: Partition) -> list[LabelSet]:
    """The collection C(G): the subsets of the ground set that meet at least
    two blocks."""
    if not _instance(partition, Partition, "partition").nontrivial:
        raise SpecError("C(G) requires a nontrivial partition")
    return list(constraint_coefficients(partition))


def a_of(m, partition: Partition) -> list[LabelSet]:
    """A(M, G) = { X intersect M | X in G } minus the empty set."""
    if not _instance(partition, Partition, "partition").nontrivial:
        raise SpecError("C(G) requires a nontrivial partition")
    m = frozenset(_labels(m, "m"))
    met = [_canon(m.intersection(b)) for b in partition.blocks if not m.isdisjoint(b)]
    if not m <= set(partition.ground) or len(met) < 2:
        raise SpecError(f"{_canon(m)} is not an element of C(G)")
    return sorted(met, key=lambda s: (len(s), s))


@functools.lru_cache
def _subset_masks(ground: LabelSet) -> tuple[tuple[LabelSet, ...], dict[str, int], np.ndarray]:
    """``subsets_geq2(ground)``, built once per ground set, with each label's
    bit and each subset's bitmask of its labels."""
    bit = {lab: 1 << i for i, lab in enumerate(ground)}
    subsets = tuple(subsets_geq2(ground))
    return subsets, bit, np.array([sum(bit[lab] for lab in m) for m in subsets], dtype=np.uint64)


def constraint_coefficients(partition: Partition) -> dict[LabelSet, int]:
    """M -> |A(M, G)| for every M in C(G), in ``c_of`` order.

    The rate constraint reads (1/2) sum_M |A(M, G)| (K_M + E_M) <= bound.
    """
    if not _instance(partition, Partition, "partition").nontrivial:
        raise SpecError("coefficients require a nontrivial partition")
    subsets, bit, masks = _subset_masks(partition.ground)
    blocks = np.array([sum(bit[lab] for lab in b) for b in partition.blocks], dtype=np.uint64)
    met = np.count_nonzero(masks[:, None] & blocks, axis=1).tolist()
    return {m: k for m, k in zip(subsets, met) if k > 1}
