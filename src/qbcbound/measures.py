"""Entropic quantities: von Neumann entropy, QCMI and the two conditional
multipartite informations (the total-correlation form and its dual form).

All results are in bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySubset, LabelCollision, LabelNotFound, SpecError
from .states import MultipartiteState, partial_trace

_EIG_FLOOR = 1e-12
# label of a purifying system in _pure_entropy; equal to no subsystem label
_PURIFIER = object()


@dataclass(frozen=True)
class BlockSpec:
    """Disjoint label blocks A_1;...;A_m plus an optional conditioning set E."""

    blocks: tuple[frozenset, ...]
    conditioning: frozenset = frozenset()

    def __post_init__(self):
        blocks = tuple(frozenset(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "conditioning", frozenset(self.conditioning))
        if not blocks:
            raise SpecError("at least one block required")
        if any(not b for b in blocks):
            raise SpecError("blocks must be non-empty")
        seen: set = set()
        for b in blocks:
            if seen & b:
                raise SpecError("blocks are not pairwise disjoint")
            seen |= b
        if seen & self.conditioning:
            raise SpecError("conditioning set overlaps a block")

    def validate_for(self, state: MultipartiteState):
        known = set(state.labels)
        for lab in set().union(*self.blocks) | self.conditioning:
            if lab not in known:
                raise SpecError(f"label {lab!r} not present on the state")


def _entropy_of_matrix(m: np.ndarray) -> float:
    ev = np.linalg.eigvalsh(m)
    ev = ev[ev > _EIG_FLOOR]
    return float(-np.sum(ev * np.log2(ev)))


def entropy(state: MultipartiteState, subset) -> float:
    """Von Neumann entropy of the reduction to ``subset``, in bits."""
    subset = set(subset)
    if not subset:
        raise EmptySubset("entropy of an empty subset is not exposed")
    for lab in subset:
        if lab not in state.labels:
            raise LabelNotFound(f"label {lab!r} not in {state.labels}")
    return _entropy_of_matrix(partial_trace(state, subset).matrix)


def _h(state: MultipartiteState, subset: set) -> float:
    """Entropy with the internal H(empty) = 0 convention."""
    if not subset:
        return 0.0
    return _entropy_of_matrix(partial_trace(state, subset).matrix)


def _pure_entropy(psi: np.ndarray, labels):
    """Subset -> entropy, H(empty) = 0, of the pure state with amplitude
    tensor ``psi``: one axis per label, then unlabeled axes that are never
    kept.  Each entropy is that of the Gram matrix of the smaller side of
    the cut, since a marginal and its complement share their spectrum."""
    axis = {lab: i for i, lab in enumerate(labels)}

    def h(subset) -> float:
        if not subset:
            return 0.0
        keep = sorted(axis[lab] for lab in subset)
        m = np.moveaxis(psi, keep, range(len(keep)))
        m = m.reshape(math.prod(m.shape[: len(keep)]), -1)
        if m.shape[0] > m.shape[1]:
            m = m.T
        return _entropy_of_matrix(m @ m.conj().T)

    return h


def conditional_entropy(state: MultipartiteState, subset, given) -> float:
    """H(subset | given) = H(subset given) - H(given)."""
    subset, given = set(subset), set(given)
    if not subset:
        raise EmptySubset("conditional entropy of an empty subset")
    if subset & given:
        raise LabelCollision("subset overlaps conditioning set")
    return _h(state, subset | given) - _h(state, given)


def qcmi(state: MultipartiteState, a, b, e=()) -> float:
    """Quantum conditional mutual information I(A;B|E) in bits."""
    a, b, e = set(a), set(b), set(e)
    if not a or not b:
        raise EmptySubset("QCMI needs non-empty A and B")
    if a & b or a & e or b & e:
        raise LabelCollision("A, B, E must be pairwise disjoint")
    for lab in a | b | e:
        if lab not in state.labels:
            raise LabelNotFound(f"label {lab!r} not in {state.labels}")
    return _h(state, a | e) + _h(state, b | e) - _h(state, e) - _h(state, a | b | e)


def _cmi_total(h, blocks, e: set) -> float:
    """sum_i H(A_i|E) - H(A_1...A_m|E) from the subset -> entropy map ``h``."""
    he = h(e)
    total = 0.0
    allb: set = set()
    for b in blocks:
        total += h(set(b) | e) - he
        allb |= set(b)
    total -= h(allb | e) - he
    return total


def _cmi_dual(h, blocks, e: set) -> float:
    """sum_i H(A_[m]\\{i}|E) - (m-1) H(A_1...A_m|E) from the entropy map ``h``."""
    m = len(blocks)
    if m == 1:
        return 0.0
    he = h(e)
    allb = set().union(*blocks)
    hall = h(allb | e) - he
    total = 0.0
    for b in blocks:
        total += h((allb - set(b)) | e) - he
    return total - (m - 1) * hall


def cmi_total(state: MultipartiteState, spec: BlockSpec) -> float:
    """Conditional total correlation: sum_i H(A_i|E) - H(A_1...A_m|E)."""
    spec.validate_for(state)
    return _cmi_total(functools.partial(_h, state), spec.blocks, set(spec.conditioning))


def cmi_dual_measure(state: MultipartiteState, spec: BlockSpec) -> float:
    """Dual conditional multipartite information:
    sum_i H(A_[m]\\{i}|E) - (m-1) H(A_1...A_m|E)."""
    spec.validate_for(state)
    return _cmi_dual(functools.partial(_h, state), spec.blocks, set(spec.conditioning))
