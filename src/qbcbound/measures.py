"""Entropic quantities: von Neumann entropy, QCMI and the two conditional
multipartite informations (the total-correlation form and its dual form).

All results are in bits.  Each measure is one subset -> coefficient map,
and two engines evaluate such maps: ``_entropy_sum`` (a partial trace and
``eigvalsh`` per subset) serves only the public density-matrix API, and
``_pure_entropy_sums`` (a state vector, with gradients) every value of
``squash`` and ``rates``, the exact pure-state values included.

The multipartite informations take their grouping of labels as a
``partitions.Partition`` and a conditioning set E.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptySubset, LabelCollision, SpecError
from .partitions import Partition
from .states import MultipartiteState, partial_trace

_EIG_FLOOR = 1e-12
# label of a purifying system in _pure_entropy_sums; equal to no subsystem label
_PURIFIER = object()


def entropy(state: MultipartiteState, subset) -> float:
    """Von Neumann entropy of the reduction to ``subset``, in bits."""
    subset = set(subset)
    if not subset:
        raise EmptySubset("entropy of an empty subset is not exposed")
    # partial_trace raises LabelNotFound for a label missing from the state
    ev = np.linalg.eigvalsh(partial_trace(state, subset).matrix)
    ev = ev[ev > _EIG_FLOOR]
    if len(ev) == 1:
        # a pure reduction: the floor zeroes the rest and the trace makes the
        # survivor 1, so its rounding noise is not an entropy
        return 0.0
    return float(-np.sum(ev * np.log2(ev)))


def _pure_entropy_sums(shape, labels, forms):
    """Compile the signed entropy sums ``forms`` (subset -> coefficient maps)
    on pure states with amplitude tensor of ``shape``: one axis per label,
    then unlabeled axes that are never kept.

    Returns ``evaluate(psi) -> (values, grad)``: ``values[k]`` is sum k and
    ``grad(k)`` its gradient with respect to conj(psi), so a path psi(t)
    changes sum k at rate 2 Re <grad(k), dpsi/dt>.  Each distinct cut is
    diagonalized once, from the Gram matrix G = M M^dag of its smaller side
    (a marginal and its complement share their spectrum); d H / d conj(M) =
    -(log2 G + 1/ln 2) M, eigenvalues under the floor contributing 0.  The
    cuts whose smaller sides share a dimension are gathered from psi into one
    (cuts, side, rest) stack, so each side dimension costs one stacked Gram
    product and one stacked ``eigh``, whatever the number of its cuts.  A
    side of dimension 1 has entropy 0 on a pure state and is skipped; the
    evaluated paths keep psi normalized, so its gradient drops out too.
    """
    axis = {lab: i for i, lab in enumerate(labels)}
    every = frozenset(range(len(shape)))

    def size(side):
        return math.prod(shape[i] for i in side)

    def cut_of(subset) -> tuple[int, ...]:
        keep = frozenset(axis[lab] for lab in subset)
        return min(tuple(sorted(keep)), tuple(sorted(every - keep)), key=lambda s: (size(s), s))

    cuts: dict[tuple[int, ...], int] = {}
    entries = []
    for k, form in enumerate(forms):
        for subset, c in form.items():
            cut = cut_of(subset)
            if size(cut) > 1:
                entries.append((k, cuts.setdefault(cut, len(cuts)), c))
    coeff = np.zeros((len(forms), len(cuts)))
    for k, j, c in entries:
        coeff[k, j] += c
    # per side dimension: its cuts, the flat positions of psi that lay out
    # each cut as a (side, rest) matrix with the side's axes first, the flat
    # positions in the stacked matrices of psi's amplitudes in order, and the
    # negated coefficients of every sum
    cut_list = list(cuts)
    by_side: dict[int, list[int]] = {}
    for j, cut in enumerate(cut_list):
        by_side.setdefault(size(cut), []).append(j)
    n = math.prod(shape)
    flat = np.arange(n).reshape(shape)
    groups = []
    for side, members in by_side.items():
        perms = [cut_list[j] + tuple(sorted(every - set(cut_list[j]))) for j in members]
        gather = np.stack([flat.transpose(perm).reshape(side, -1) for perm in perms])
        scatter = np.argsort(gather.reshape(len(members), -1), axis=1)
        scatter += n * np.arange(len(members))[:, None]
        groups.append((members, gather, scatter, -coeff[:, members, None, None]))
    # the gradient of sum k adds the cuts of nonzero coefficient in cut
    # order, each as (group, row)
    place = {j: (g, i) for g, group in enumerate(groups) for i, j in enumerate(group[0])}
    terms = [[place[j] for j in range(len(cuts)) if coeff[k, j]] for k in range(len(forms))]

    def evaluate(psi: np.ndarray):
        amplitudes = psi.reshape(-1)
        ent = np.zeros(len(cuts))
        spectra = []
        for members, gather, _, _ in groups:
            m = amplitudes[gather]
            w, v = np.linalg.eigh(m @ m.conj().transpose(0, 2, 1))
            pos = w > _EIG_FLOOR
            log_w = np.zeros(w.shape)
            log_w[pos] = np.log2(w[pos])
            # eigh sorts each spectrum ascending, so a cut's eigenvalues over
            # the floor end its row; one dot per cut sums them in the order a
            # lone cut's spectrum is summed
            neg_w = -w
            skip = (w.shape[1] - pos.sum(axis=1)).tolist()
            for i, j in enumerate(members):
                ent[j] = neg_w[i, skip[i] :] @ log_w[i, skip[i] :]
            log_w[pos] += 1.0 / math.log(2.0)
            spectra.append((m, v, log_w))

        def grad(k: int) -> np.ndarray:
            # per group, the stacked -c (v dlog)(v^dag M) in psi's order
            parts = [
                ((scale[k] * (v * dlog[:, None, :])) @ (v.conj().transpose(0, 2, 1) @ m))
                .reshape(-1)[scatter]
                for (_, _, scatter, scale), (m, v, dlog) in zip(groups, spectra)
            ]
            g = np.zeros(amplitudes.shape, dtype=complex)
            for grp, i in terms[k]:
                g += parts[grp][i]
            return g.reshape(psi.shape)

        return coeff @ ent, grad

    return evaluate


def conditional_entropy(state: MultipartiteState, subset, given) -> float:
    """H(subset | given) = H(subset given) - H(given)."""
    subset, given = set(subset), set(given)
    if not subset:
        raise EmptySubset("conditional entropy of an empty subset")
    if subset & given:
        raise LabelCollision("subset overlaps conditioning set")
    return _entropy_sum(state, {frozenset(subset | given): 1.0, frozenset(given): -1.0})


def qcmi(state: MultipartiteState, a, b, e=()) -> float:
    """Quantum conditional mutual information I(A;B|E) in bits."""
    a, b, e = set(a), set(b), set(e)
    if not a or not b:
        raise EmptySubset("QCMI needs non-empty A and B")
    if a & b or a & e or b & e:
        raise LabelCollision("A, B, E must be pairwise disjoint")
    return _entropy_sum(state, _cmi_total((a, b), e))


def _cmi_total(blocks, e) -> dict[frozenset, float]:
    """Subset -> entropy coefficient of sum_i H(A_i|E) - H(A_1...A_m|E)."""
    if len(blocks) == 1:
        return {}
    e = frozenset(e)
    coeffs = {e: 1.0 - len(blocks)}
    coeffs.update((e | frozenset(b), 1.0) for b in blocks)
    coeffs[e.union(*blocks)] = -1.0
    return coeffs


def _cmi_dual(blocks, e) -> dict[frozenset, float]:
    """Subset -> entropy coefficient of sum_i H(A_[m]\\{i}|E) - (m-1) H(A_1...A_m|E)."""
    if len(blocks) == 1:
        return {}
    e = frozenset(e)
    allb = e.union(*blocks)
    coeffs = {e: -1.0, allb: 1.0 - len(blocks)}
    coeffs.update((allb - frozenset(b), 1.0) for b in blocks)
    return coeffs


def _entropy_sum(state: MultipartiteState, coeffs: dict[frozenset, float]) -> float:
    """The signed entropy sum of a subset -> coefficient map on ``state``,
    H(empty) = 0."""
    return sum((c * entropy(state, s) for s, c in coeffs.items() if s), 0.0)


def _conditioning(state: MultipartiteState, partition: Partition, conditioning) -> frozenset:
    """The conditioning set E of a measure over the blocks of ``partition``,
    checked before any entropy is taken: E must meet no block, and every
    label must be on the state (``LabelNotFound`` otherwise)."""
    e = frozenset(conditioning)
    if not e.isdisjoint(partition.ground):
        raise SpecError("conditioning set overlaps a block")
    for lab in partition.ground + tuple(sorted(e)):
        state.index_of(lab)
    return e


def cmi_total(state: MultipartiteState, partition: Partition, conditioning=()) -> float:
    """Conditional total correlation: sum_i H(A_i|E) - H(A_1...A_m|E) over the
    blocks A_i of ``partition``, E = ``conditioning``."""
    e = _conditioning(state, partition, conditioning)
    return _entropy_sum(state, _cmi_total(partition.blocks, e))


def cmi_dual_measure(state: MultipartiteState, partition: Partition, conditioning=()) -> float:
    """Dual conditional multipartite information:
    sum_i H(A_[m]\\{i}|E) - (m-1) H(A_1...A_m|E) over the blocks A_i of
    ``partition``, E = ``conditioning``."""
    e = _conditioning(state, partition, conditioning)
    return _entropy_sum(state, _cmi_dual(partition.blocks, e))
