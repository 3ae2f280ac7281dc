"""Entropic quantities: von Neumann entropy, QCMI and the two conditional
multipartite informations (the total-correlation form and its dual form).

All results are in bits.  ``Measure`` names the two measures and gives
each its subset -> coefficient map, and two engines evaluate such maps:
``_entropy_sum`` (one unvalidated ``_marginal`` and one ``eigvalsh`` per
subset) serves only the public density-matrix API, whose ``entropy`` alone
validates its marginal, and ``_pure_entropy_sums`` (flat stacks of state
vectors, with gradients) every value of ``squash`` and ``rates``, on the
half measures ``_measure_kernel`` compiles, reading and writing each cut
through one gather.

The multipartite informations take their grouping of labels as a
``partitions.Partition`` and a conditioning set E.
"""

from __future__ import annotations

import functools
import itertools
import math
from enum import Enum, EnumMeta

import numpy as np

from .errors import EmptySubset, LabelCollision, SpecError
from .partitions import Partition, _label_set, _partition, _shown
from .states import RANK_TOL, MultipartiteState, _flat_positions, _marginal, partial_trace

# label of a purifying system in _pure_entropy_sums; equal to no subsystem label
_PURIFIER = object()


def entropy(state: MultipartiteState, subset) -> float:
    """Von Neumann entropy of the reduction to ``subset``, in bits."""
    subset = _label_set(subset, "subset")
    if not subset:
        raise EmptySubset("entropy of an empty subset is not exposed")
    # partial_trace raises LabelNotFound for a label missing from the state
    return _matrix_entropy(partial_trace(state, subset).matrix)


def _nonnegative(value: float) -> float:
    """``value``, a measure that is never negative, with rounding below 0 and
    -0.0 (which ``max(-0.0, 0.0)`` returns) read as 0.0; NaN passes, so that
    it is not hidden."""
    return 0.0 if value <= 0.0 else value


def _matrix_entropy(matrix: np.ndarray) -> float:
    """Von Neumann entropy of a density matrix, in bits."""
    ev = np.linalg.eigvalsh(matrix)
    ev = ev[ev > RANK_TOL]
    if len(ev) == 1:
        # a pure reduction: the floor zeroes the rest and the trace makes the
        # survivor 1, so its rounding noise is not an entropy
        return 0.0
    return float(-np.sum(ev * np.log2(ev)))


def _pure_entropy_sums(shape, labels, forms):
    """Compile signed entropy sums on flat stacks of pure states, amplitudes
    row-major over ``shape``: one index per label, then unlabeled indices
    that are never kept.  ``forms[p]`` lists the sums of problem p as subset
    -> coefficient maps, the same number K of them for every problem.

    Returns ``evaluate(psi, rows) -> (values, grad)`` for a stack psi of
    ``len(rows)`` such amplitude rows, row i a state of problem ``rows[i]``:
    ``values[i, k]`` is its sum k, and ``grad(pick)`` stacks the gradients of
    sums ``pick[i]`` with respect to conj(psi), so a path psi_i(t) changes
    its sum at rate 2 Re <grad_i, dpsi_i/dt>.

    A cut is keyed by its live axes, those of dimension > 1, as
    ``states._flat_positions`` lays them out: subsets that differ only in
    dimension-1 labels share one cut, whose coefficients add before they
    multiply its entropy.  Each cut of a problem is diagonalized once, from
    the Gram matrix G = M M^dag of its smaller side (a marginal and its
    complement share their spectrum); d H / d conj(M) = -(log2 G + 1/ln 2) M,
    eigenvalues under the floor contributing 0.  A problem's cuts are
    grouped by the dimension of their smaller side, and every problem
    carries, per side dimension, the same number of slots, its own cuts
    padded with zero-coefficient slots that gather psi's first amplitude
    throughout; so each side dimension costs one stacked Gram product and
    one stacked ``eigh`` over (rows, slots), and each row is computed as it
    would be alone: one gather of flat positions per cut reads M off psi and
    writes the gradient back.
    A side of dimension 1 has entropy 0 on a pure state and is skipped; the
    evaluated paths keep psi normalized, so its gradient drops out too.
    """
    axis = {lab: i for i, lab in enumerate(labels)}
    every = frozenset(i for i, d in enumerate(shape) if d > 1)
    n = math.prod(shape)

    def cut_of(subset) -> tuple[tuple[int, ...], int]:
        """The smaller side of the cut between ``subset`` and the rest, and
        its dimension."""
        keep = frozenset(axis[lab] for lab in subset) & every
        sides = [tuple(sorted(keep)), tuple(sorted(every - keep))]
        return min((math.prod(shape[i] for i in side), side) for side in sides)[::-1]

    # each distinct subset resolved once: the forms of problems share most
    cut_at = {s: cut_of(s) for s in {s for sums in forms for form in sums for s in form}}
    # per problem, side dimension -> each cut's slot within that side, in
    # order of first appearance, and (form, side, slot, coefficient) entries
    problems = []
    for sums in forms:
        by_side: dict[int, dict] = {}
        entries = []
        for k, form in enumerate(sums):
            for subset, c in form.items():
                cut, side = cut_at[subset]
                if side > 1:
                    slots = by_side.setdefault(side, {})
                    entries.append((k, side, slots.setdefault(cut, len(slots)), c))
        problems.append((by_side, entries))
    sides = sorted({side for by_side, _ in problems for side in by_side})
    # side dimension -> padded width and first slot in a problem's row
    width = {side: max(len(by_side.get(side, ())) for by_side, _ in problems) for side in sides}
    offset = dict(zip(sides, itertools.accumulate([0] + [width[s] for s in sides])))
    n_cuts = sum(width.values())
    n_sums = len(forms[0]) if forms else 0
    # per cut, the flat positions of psi that lay it out as a (side, rest)
    # matrix with the side's axes first
    layout = functools.cache(lambda cut, side: _flat_positions(shape, cut).reshape(side, -1))
    coeff = np.zeros((len(forms), n_sums, n_cuts))
    # a padding slot keeps its zero gather and its zero coefficients
    gathers = {
        side: np.zeros((len(forms), width[side], side, n // side), dtype=np.intp) for side in sides
    }
    for p, (by_side, entries) in enumerate(problems):
        for side, slots in by_side.items():
            for cut, w in slots.items():
                gathers[side][p, w] = layout(cut, side)
        for k, side, w, c in entries:
            coeff[p, k, offset[side] + w] += c
    gathers = [gathers[side] for side in sides]
    spans = [(offset[side], offset[side] + width[side]) for side in sides]

    def evaluate(psi: np.ndarray, rows):
        count = len(rows)
        amplitudes = psi.reshape(count, n)
        at = np.arange(count)
        ent = np.zeros((count, 1, n_cuts))
        spectra = []
        for gather, (lo, hi) in zip(gathers, spans):
            index = gather[rows]
            m = amplitudes[at[:, None, None, None], index]
            w, v = np.linalg.eigh(m @ m.conj().swapaxes(-1, -2))
            pos = w > RANK_TOL
            log_w = np.zeros(w.shape)
            log_w[pos] = np.log2(w[pos])
            ent[:, 0, lo:hi] = -(w * log_w).sum(axis=-1)
            log_w[pos] += 1.0 / math.log(2.0)
            spectra.append((m, v, log_w, index))
        c = coeff[rows]
        # a running sum adds the slots in order, so a padding slot adds an
        # exact 0 and a row's values do not depend on the widths other
        # problems set
        if n_cuts:
            values = np.add.accumulate(c * ent, axis=2)[:, :, -1]
        else:
            values = np.zeros((count, n_sums))

        def grad(pick) -> np.ndarray:
            # per side dimension, the stacked -c (v dlog)(v^dag M), written
            # back through the gather that read M: a real slot's positions are
            # distinct, so it holds its whole gradient in psi's order, and a
            # padding slot, whose scale is 0, writes zeros
            scale = -c[at, pick]
            g = np.zeros((count, n_cuts, n), dtype=complex)
            for (m, v, dlog, index), (lo, hi) in zip(spectra, spans):
                g[at[:, None, None, None], np.arange(lo, hi)[:, None, None], index] = (
                    scale[:, lo:hi, None, None] * (v * dlog[..., None, :])
                ) @ (v.conj().swapaxes(-1, -2) @ m)
            # a sum over a slow axis adds the slots in order, padding included
            return g.sum(axis=1).reshape(psi.shape)

        return values, grad

    return evaluate


def conditional_entropy(state: MultipartiteState, subset, given) -> float:
    """H(subset | given) = H(subset given) - H(given)."""
    subset, given = _label_set(subset, "subset"), _label_set(given, "given")
    if not subset:
        raise EmptySubset("conditional entropy of an empty subset")
    if subset & given:
        raise LabelCollision("subset overlaps conditioning set")
    _check_labels(state, sorted(subset | given, key=str))
    return _entropy_sum(state, {subset | given: 1.0, given: -1.0})


def qcmi(state: MultipartiteState, a, b, e=()) -> float:
    """Quantum conditional mutual information I(A;B|E) in bits, floored at 0
    by ``_nonnegative`` like ``cmi_total`` and ``cmi_dual_measure``."""
    a, b, e = (_label_set(x, name) for x, name in ((a, "a"), (b, "b"), (e, "e")))
    if not a or not b:
        raise EmptySubset("QCMI needs non-empty A and B")
    if a & b or a & e or b & e:
        raise LabelCollision("A, B, E must be pairwise disjoint")
    _check_labels(state, sorted(a | b | e, key=str))
    return _nonnegative(_entropy_sum(state, Measure.E_SQ.form((a, b), e)))


class _MeasureLookup(EnumMeta):
    # Enum formats a refused name with %r even when _missing_ raises, and
    # repr refuses an int past Python's 4300-digit limit
    def __call__(cls, value, *args, **kwargs):
        try:
            return super().__call__(value, *args, **kwargs)
        except ValueError:
            raise SpecError(f"unknown measure {_shown(value)}") from None


class Measure(str, Enum, metaclass=_MeasureLookup):
    """E_sq and E~_sq, the two multipartite squashed entanglements (Yang et
    al., IEEE Trans. Inf. Theory 55, 3375 (2009)); any other name raises
    ``SpecError``."""

    E_SQ = "esq"
    E_SQ_TILDE = "esq-tilde"

    def form(self, blocks, e) -> dict[frozenset, float]:
        """Subset -> entropy coefficient of sum_i H(A_i|E) - H(A_1...A_m|E) (E_SQ)
        or sum_i H(A_[m]\\{i}|E) - (m-1) H(A_1...A_m|E) (E_SQ_TILDE) over the
        blocks A_i, E = ``e``."""
        if len(blocks) == 1:
            return {}
        e = frozenset(e)
        allb = e.union(*blocks)
        if self is Measure.E_SQ:
            return {e: 1.0 - len(blocks), **{e | frozenset(b): 1.0 for b in blocks}, allb: -1.0}
        return {e: -1.0, allb: 1.0 - len(blocks), **{allb - frozenset(b): 1.0 for b in blocks}}


def _measure_kernel(shape, labels, problems):
    """``evaluate(psi, rows) -> (values, grad)`` of half of each measure of
    every problem, a (partition, measures) pair, over its partition
    conditioned on a purifier, on flat stacks of pure states over ``shape``
    (one index per label, the purifier's, then unlabeled ones).  A subset ->
    coefficient map in place of a measure is summed as given."""

    def half(p, m):
        return {s: 0.5 * c for s, c in Measure(m).form(p.blocks, (_PURIFIER,)).items()}

    forms = [[m if isinstance(m, dict) else half(p, m) for m in sums] for p, sums in problems]
    return _pure_entropy_sums(shape, labels + (_PURIFIER,), forms)


def _entropy_sum(state: MultipartiteState, coeffs: dict[frozenset, float]) -> float:
    """The signed entropy sum of a subset -> coefficient map on ``state``,
    H(empty) = 0, each marginal reduced and diagonalized once, unvalidated."""
    return sum((c * _matrix_entropy(_marginal(state, s)[0]) for s, c in coeffs.items() if s), 0.0)


def _check_labels(state: MultipartiteState, labels):
    """``LabelNotFound`` for the first of ``labels`` missing from the state,
    raised before any entropy is taken."""
    for lab in labels:
        state.index_of(lab)


def _conditioning(state: MultipartiteState, partition: Partition, conditioning) -> frozenset:
    """The conditioning set E of a measure over the blocks of ``partition``,
    checked before any entropy is taken: E must meet no block, and every
    label must be on the state (``LabelNotFound`` otherwise)."""
    e = _label_set(conditioning, "conditioning")
    if not e.isdisjoint(_partition(partition).ground):
        raise SpecError("conditioning set overlaps a block")
    _check_labels(state, partition.ground + tuple(sorted(e, key=str)))
    return e


def cmi_total(state: MultipartiteState, partition: Partition, conditioning=()) -> float:
    """Conditional total correlation: sum_i H(A_i|E) - H(A_1...A_m|E) over the
    blocks A_i of ``partition``, E = ``conditioning``."""
    e = _conditioning(state, partition, conditioning)
    return _nonnegative(_entropy_sum(state, Measure.E_SQ.form(partition.blocks, e)))


def cmi_dual_measure(state: MultipartiteState, partition: Partition, conditioning=()) -> float:
    """Dual conditional multipartite information:
    sum_i H(A_[m]\\{i}|E) - (m-1) H(A_1...A_m|E) over the blocks A_i of
    ``partition``, E = ``conditioning``."""
    e = _conditioning(state, partition, conditioning)
    return _nonnegative(_entropy_sum(state, Measure.E_SQ_TILDE.form(partition.blocks, e)))
