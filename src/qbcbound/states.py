"""Finite-dimensional multipartite states and channels.

States are density operators carrying an ordered list of subsystem labels
and dimensions.  Channels are CPTP maps given by Kraus operators with a
labeled output factorization, so a broadcast channel is simply a channel
whose output splits into several named receiver systems.

All values are immutable; every operation returns a new value, validated
once, as the public result.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimMismatch,
    LabelCollision,
    LabelNotFound,
    QbcError,
)
from .partitions import _instance, _label_list, _label_set, _read_once, _shown

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_TOL = 1e-10
RANK_TOL = 1e-12
PURE_TOL = 1e-9
# largest trace distance at which check_private_state accepts a private state
PRIVATE_TOL = 1e-8


def _check_count(name: str, value, least: int | None = None, most: int | None = None) -> int:
    """``value``, a Python or numpy integer, as an int; a bool (which would
    pass as 0 or 1), a float or a value below ``least`` or above ``most`` is
    refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise QbcError(f"{name} must be an integer")
    if least is not None and value < least:
        raise QbcError(f"{name} must be at least {least}")
    if most is not None and value > most:
        raise QbcError(f"{name} must be at most {most}")
    return int(value)


def _count_list(value, what: str, name: str, least: int | None = None) -> tuple[int, ...]:
    """The one reader of dimension and count lists: ``value`` read by
    ``_read_once``, each entry read by ``_check_count`` as ``name``."""
    return tuple(_check_count(name, d, least) for d in _read_once(value, what))


def _check_real(name: str, value) -> float:
    """``value``, a Python or numpy real number, as a float; a bool (which
    would pass as 0 or 1), a string, an integer beyond the float range or
    any other value is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise QbcError(f"{name} must be a real number")
    try:
        return float(value)
    except OverflowError:
        raise QbcError(f"{name} is beyond the float range") from None


def _frozen_array(a, what: str) -> np.ndarray:
    try:
        arr = np.array(a, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        raise QbcError(f"{what} is not a rectangular array of complex numbers") from None
    # every comparison with NaN is false, so the tolerance checks would pass it
    if not np.all(np.isfinite(arr)):
        raise QbcError(f"{what} has non-finite entries")
    arr.setflags(write=False)
    return arr


def _check_density(m: np.ndarray, what: str) -> None:
    """Refuse a square matrix that is not Hermitian, of trace 1 and positive."""
    if np.max(np.abs(m - m.conj().T)) > HERM_TOL:
        raise QbcError(f"{what} is not Hermitian within tolerance")
    tr = np.trace(m)
    if abs(tr.real - 1.0) > TRACE_TOL or abs(tr.imag) > TRACE_TOL:
        raise QbcError(f"{what} trace differs from 1 beyond tolerance")
    ev = np.linalg.eigvalsh(m)
    if ev[0] < -EIG_TOL:
        raise QbcError(f"{what} has eigenvalue {ev[0]:.3e} below -{EIG_TOL}")


@dataclass(frozen=True)
class MultipartiteState:
    """Density operator on a tensor product of labeled subsystems.

    Parameters
    ----------
    matrix : square complex matrix of dimension prod(dims)
    labels : ordered subsystem names, unique, each one that a partition string
        can name
    dims : ordered positive subsystem dimensions, one per label
    """

    matrix: np.ndarray
    labels: tuple[str, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_array(self.matrix, "matrix"))
        object.__setattr__(self, "labels", _label_list(self.labels, "labels"))
        dims = _count_list(self.dims, "dims", "subsystem dimension")
        object.__setattr__(self, "dims", dims)
        m = self.matrix
        if len(self.labels) != len(set(self.labels)):
            raise LabelCollision(f"duplicate labels in {self.labels}")
        if len(self.labels) != len(self.dims):
            raise DimMismatch("labels and dims length mismatch")
        if any(d < 1 for d in self.dims):
            raise DimMismatch("subsystem dimensions must be positive")
        # math.prod: numpy's int64 product would wrap on huge dims
        n = math.prod(self.dims)
        if m.ndim != 2 or m.shape != (n, n):
            raise DimMismatch(
                f"matrix shape {m.shape} inconsistent with dims product {n}"
            )
        _check_density(m, "matrix")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dim_of(self, label: str) -> int:
        return self.dims[self.index_of(label)]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LabelNotFound(f"label {_shown(label)} not in {self.labels}") from None

    def is_pure(self) -> bool:
        """Whether ``_purification``, the one purity rule, gives one column."""
        return _purification(self.matrix).shape[1] == 1


@dataclass(frozen=True)
class QuantumChannel:
    """CPTP map given by Kraus operators with a labeled output split."""

    kraus_ops: tuple[np.ndarray, ...]
    input_dim: int
    output_labels: tuple[str, ...]
    output_dims: tuple[int, ...]

    def __post_init__(self):
        kraus = _read_once(self.kraus_ops, "kraus_ops")
        object.__setattr__(
            self, "kraus_ops", tuple(_frozen_array(k, "Kraus operator") for k in kraus)
        )
        object.__setattr__(self, "input_dim", _check_count("input dimension", self.input_dim))
        object.__setattr__(self, "output_labels", _label_list(self.output_labels, "output_labels"))
        dims = _count_list(self.output_dims, "output_dims", "channel output dimension")
        object.__setattr__(self, "output_dims", dims)
        if len(self.output_labels) != len(set(self.output_labels)):
            raise LabelCollision(f"duplicate output labels {self.output_labels}")
        if len(self.output_labels) != len(self.output_dims):
            raise DimMismatch("output labels/dims length mismatch")
        if self.input_dim < 1 or any(d < 1 for d in self.output_dims):
            raise DimMismatch("channel dimensions must be positive")
        dout = self.output_dim
        if not self.kraus_ops:
            raise DimMismatch("channel needs at least one Kraus operator")
        for k in self.kraus_ops:
            if k.shape != (dout, self.input_dim):
                raise DimMismatch(
                    f"Kraus shape {k.shape}, expected ({dout}, {self.input_dim})"
                )
        s = sum(k.conj().T @ k for k in self.kraus_ops)
        if np.max(np.abs(s - np.eye(self.input_dim))) > 1e-9:
            raise QbcError("Kraus operators do not satisfy the CPTP condition")

    @property
    def output_dim(self) -> int:
        return math.prod(self.output_dims)


@dataclass(frozen=True)
class PrivateStateSpec:
    """Recipe for an m-party private state with key dimension d.

    ``twist_unitaries`` holds one unitary on the joint shield space per key
    basis tuple (i_1, ..., i_m), in row-major order of the tuple.  ``None``
    means identity twists.
    """

    num_parties: int
    key_dim: int
    shield_dims: tuple[int, ...]
    twist_unitaries: tuple[np.ndarray, ...] | None = None
    shield_state: np.ndarray | None = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "num_parties", _check_count("party count", self.num_parties))
        if self.num_parties < 2:
            raise QbcError("private states need at least 2 parties")
        object.__setattr__(self, "key_dim", _check_count("key dimension", self.key_dim, 2))
        dims = _count_list(self.shield_dims, "shield_dims", "shield dimension")
        object.__setattr__(self, "shield_dims", dims)
        if len(self.shield_dims) != self.num_parties or any(d < 1 for d in self.shield_dims):
            raise DimMismatch("one positive shield dimension per party required")
        ds = math.prod(self.shield_dims)
        if self.twist_unitaries is not None:
            tw = _read_once(self.twist_unitaries, "twist_unitaries")
            tw = tuple(_frozen_array(u, "twist unitary") for u in tw)
            object.__setattr__(self, "twist_unitaries", tw)
            if len(tw) != self.key_dim**self.num_parties:
                raise DimMismatch("need one twist unitary per key basis tuple")
            for u in tw:
                if u.shape != (ds, ds):
                    raise DimMismatch("twist unitary has wrong shield dimension")
                if np.max(np.abs(u.conj().T @ u - np.eye(ds))) > 1e-10:
                    raise QbcError("twist unitary is not unitary within tolerance")
        if self.shield_state is not None:
            sh = _frozen_array(self.shield_state, "shield state")
            object.__setattr__(self, "shield_state", sh)
            if sh.shape != (ds, ds):
                raise DimMismatch("shield state has wrong dimension")
            _check_density(sh, "shield state")


def tensor(parts: list[MultipartiteState]) -> MultipartiteState:
    """Kronecker product of states in the given order; ``parts`` may be any
    iterable, read once."""
    parts = _read_once(parts, "parts", MultipartiteState)
    if not parts:
        raise QbcError("tensor of zero states is undefined")
    labels: list[str] = []
    dims: list[int] = []
    for p in parts:
        for lab in p.labels:
            if lab in labels:
                raise LabelCollision(f"label {lab!r} appears in several factors")
        labels.extend(p.labels)
        dims.extend(p.dims)
    mat = functools.reduce(np.kron, (p.matrix for p in parts))
    return MultipartiteState(mat, tuple(labels), tuple(dims))


def _flat_positions(dims, first) -> np.ndarray:
    """The positions in a flat row-major vector over ``dims`` of its entries
    laid out with the subsystems ``first`` leading, in that order, and the
    rest after them in theirs; only the live axes, of dimension > 1, get an
    array axis."""
    live = {i: r for r, i in enumerate(i for i, d in enumerate(dims) if d > 1)}
    flat = np.arange(math.prod(dims)).reshape([dims[i] for i in live])
    lead = [live[i] for i in first if i in live]
    return flat.transpose(lead + [r for r in range(len(live)) if r not in lead]).ravel()


def _reordered(state: MultipartiteState, first) -> np.ndarray:
    """The state's matrix with the subsystems ``first`` leading, gathered once
    through ``_flat_positions``, whose array axes, one per live label, stay
    within numpy's limit: 32 live labels would need a matrix of 2^64 entries."""
    flat = _flat_positions(state.dims, first)
    return state.matrix[np.ix_(flat, flat)]


def _marginal(state: MultipartiteState, keep):
    """Unvalidated ``(matrix, labels, dims)`` of the reduced state on ``keep``,
    distinct labels, in their relative order (``LabelNotFound`` names a label
    the state lacks); keeping every label returns the state's own."""
    if not keep:
        raise QbcError("cannot keep an empty label set")
    keep_idx = sorted(state.index_of(lab) for lab in keep)
    n = len(state.labels)
    if len(keep_idx) == n:
        return state.matrix, state.labels, state.dims
    kd = tuple(state.dims[i] for i in keep_idx)
    m = math.prod(kd)
    r = state.dim // m
    red = _reordered(state, keep_idx)
    red = np.einsum("ajbj->ab", red.reshape(m, r, m, r))
    red = (red + red.conj().T) / 2
    return red, tuple(state.labels[i] for i in keep_idx), kd


def partial_trace(state: MultipartiteState, keep) -> MultipartiteState:
    """Reduced state on ``keep`` labels, preserving their relative order: the
    ``_marginal``, validated once, as the public result, or the state itself."""
    red, labels, dims = _marginal(state, _label_set(keep, "keep"))
    return state if labels == state.labels else MultipartiteState(red, labels, dims)


def _purification(matrix: np.ndarray) -> np.ndarray:
    """The one purity rule and purifier of a density matrix: one ``eigh``
    gives amplitudes psi[i, k] ~ sqrt(w_k) v[i, k], normalised, over its
    numerical support (eigenvalues above ``RANK_TOL``), or over its top
    eigenvector alone when that eigenvalue is within ``PURE_TOL`` of 1.  The
    matrix counts as pure exactly when psi has one column."""
    w, v = np.linalg.eigh(matrix)
    w = np.clip(w, 0.0, None)
    keep = slice(-1, None) if w[-1] >= 1.0 - PURE_TOL else w > RANK_TOL
    psi = v[:, keep] * np.sqrt(w[keep])
    return psi / np.linalg.norm(psi)


def purify(state: MultipartiteState, purifier_label: str) -> MultipartiteState:
    """Standard purification through ``_purification``: the purifier's
    dimension is the state's numerical rank, or 1 when ``is_pure`` accepts
    the state; a state of higher rank that it accepts is then purified by
    its top eigenvector, whose marginal lies within trace distance
    ``PURE_TOL`` of the state."""
    if purifier_label in state.labels:
        raise LabelCollision(f"purifier label {purifier_label!r} already present")
    psi = _purification(state.matrix)
    mat = np.outer(psi, psi.conj())
    return MultipartiteState(
        mat, state.labels + (purifier_label,), state.dims + (psi.shape[1],)
    )


def apply_channel(
    channel: QuantumChannel, state: MultipartiteState, target: str
) -> MultipartiteState:
    """Apply ``channel`` to the ``target`` subsystem, spectators untouched."""
    ti = state.index_of(target)
    if state.dims[ti] != channel.input_dim:
        raise DimMismatch(
            f"target dim {state.dims[ti]} != channel input dim {channel.input_dim}"
        )
    for lab in channel.output_labels:
        if lab in state.labels and lab != target:
            raise LabelCollision(f"output label {lab!r} collides with spectator")
    dl = math.prod(state.dims[:ti])
    dr = math.prod(state.dims[ti + 1 :])
    t = state.matrix.reshape(dl, channel.input_dim, dr, dl, channel.input_dim, dr)
    ks = np.stack(channel.kraus_ops)
    out = np.einsum("kai,lirmjs,kbj->larmbs", ks, t, ks.conj(), optimize=True)
    dims = state.dims[:ti] + channel.output_dims + state.dims[ti + 1 :]
    out = out.reshape(math.prod(dims), -1)
    out = (out + out.conj().T) / 2
    labels = state.labels[:ti] + channel.output_labels + state.labels[ti + 1 :]
    return MultipartiteState(out, labels, dims)


def _ghz_matrix(m: int, d: int) -> np.ndarray:
    """Projector onto (1/sqrt(d)) sum_i |i...i> on m systems of dimension d."""
    vec = np.zeros(d**m, dtype=complex)
    vec[[i * sum(d**k for k in range(m)) for i in range(d)]] = 1.0
    vec /= np.sqrt(d)
    return np.outer(vec, vec.conj())


def make_ghz(labels, d: int) -> MultipartiteState:
    """GHZ state (1/sqrt(d)) sum_i |i...i> on the given labels."""
    labels = _read_once(labels, "labels")
    m = len(labels)
    if m < 2:
        raise QbcError("GHZ needs at least 2 parties")
    _check_count("GHZ Schmidt rank", d, 2)
    return MultipartiteState(_ghz_matrix(m, d), labels, (d,) * m)


def make_private_state(
    spec: PrivateStateSpec, key_labels, shield_labels
) -> MultipartiteState:
    """Twisted product U (GHZ_key x rho_shield) U^dag.

    Labels are ordered key systems first, then shield systems.  The shield
    state defaults to maximally mixed.  Only the result is validated.
    """
    key_labels = _read_once(key_labels, "key_labels")
    shield_labels = _read_once(shield_labels, "shield_labels")
    m, d = spec.num_parties, spec.key_dim
    if len(key_labels) != m or len(shield_labels) != m:
        raise DimMismatch("one key label and one shield label per party required")
    ds = math.prod(spec.shield_dims)
    shield = np.eye(ds) / ds if spec.shield_state is None else spec.shield_state
    mat = np.kron(_ghz_matrix(m, d), shield)
    if spec.twist_unitaries is not None:
        # each key basis tuple's twist acts on its own shield block
        tw = np.stack(spec.twist_unitaries)
        t = mat.reshape(len(tw), ds, len(tw), ds)
        mat = np.einsum("iab,ibjc,jdc->iajd", tw, t, tw.conj()).reshape(mat.shape)
        mat = (mat + mat.conj().T) / 2
    return MultipartiteState(mat, key_labels + shield_labels, (d,) * m + spec.shield_dims)


def measurement_channel(d: int, label: str) -> QuantumChannel:
    """Von Neumann measurement channel in the computational basis."""
    eye = np.eye(_check_count("measurement dimension", d, 1))
    kraus = [np.outer(eye[:, i], eye[:, i]) for i in range(d)]
    return QuantumChannel(tuple(kraus), d, (label,), (d,))


def check_private_state(
    state: MultipartiteState, key_labels, shield_labels, d: int
) -> tuple[bool, float]:
    """Evaluate the defining secret-key condition of a private state.

    Purifies the state with ``_purification``, dephases every key system,
    traces the shields and measures the trace distance to the ideal
    perfectly-correlated key that is product with the purifying system.
    Every system that is not a key is traced as shield; ``shield_labels``
    may name them or be empty.  Returns (deviation <= PRIVATE_TOL, deviation).
    """
    d = _check_count("key dimension", d, 2)
    key_labels = _read_once(key_labels, "key_labels")
    shield_labels = _read_once(shield_labels, "shield_labels")
    if not key_labels:
        raise QbcError("a private state needs at least one key label")
    if len(_label_set(key_labels, "key_labels")) != len(key_labels):
        raise LabelCollision(f"duplicate key labels {key_labels}")
    for lab in key_labels:
        if state.dim_of(lab) != d:
            raise DimMismatch(f"key system {lab!r} does not have dimension {d}")
    for lab in shield_labels:
        if lab not in state.labels:
            raise LabelNotFound(f"shield label {_shown(lab)} not in {state.labels}")
        if lab in key_labels:
            raise LabelCollision(f"shield label {lab!r} is also a key label")
    m = len(key_labels)
    keys = [state.index_of(lab) for lab in key_labels]
    psi = _purification(_reordered(state, keys))
    de = psi.shape[1]
    t = psi.reshape(d**m, -1, de)
    # dephasing the keys and tracing the shields leaves one purifier block per
    # key string: the state on (keys, purifier) is block diagonal
    blocks = np.einsum("ksa,ksb->kab", t, t.conj())
    correlated = [i * sum(d**j for j in range(m)) for i in range(d)]  # strings i...i
    sigma = blocks[correlated].sum(axis=0)
    tr = np.trace(sigma).real
    sigma = sigma / tr if tr > RANK_TOL else np.eye(de) / de
    blocks[correlated] -= sigma / d
    dev = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(blocks))))
    return dev <= PRIVATE_TOL, dev


def trace_distance(a: MultipartiteState, b: MultipartiteState) -> float:
    """(1/2) ||a - b||_1, with ``b``'s subsystems matched to ``a``'s by label."""
    _instance(a, MultipartiteState, "a")
    _instance(b, MultipartiteState, "b")
    if set(a.labels) != set(b.labels):
        raise DimMismatch("states live on different label sets")
    perm = [b.index_of(lab) for lab in a.labels]
    if tuple(b.dims[p] for p in perm) != a.dims:
        raise DimMismatch("states have different subsystem dimensions")
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a.matrix - _reordered(b, perm)))))


# ---------------------------------------------------------------------------
# JSON wire format


def _matrix_to_json(m: np.ndarray):
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _not_a_number(entry):
    raise TypeError(f"expected a [re, im] pair of numbers, got {entry!r}")


def _matrix_from_json(rows) -> np.ndarray:
    # complex() would read JSON true/false, which decode to the bool
    # singletons, as 1/0
    return np.array(
        [
            [
                complex(re, im)
                if re is not True and re is not False and im is not True and im is not False
                else _not_a_number([re, im])
                for re, im in row
            ]
            for row in rows
        ]
    )


def _json_doc(text: str):
    """``json.loads(text)``, ``text`` a str, bytes or bytearray; a document
    nested deeper than the decoder's recursion limit, or with an integer
    longer than Python's digit limit for int conversion, raises QbcError
    like any other malformed one."""
    _instance(text, (str, bytes, bytearray), "JSON text")
    try:
        return json.loads(text)
    except RecursionError:
        raise QbcError("JSON document is nested too deeply to decode") from None
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        raise QbcError(f"JSON document cannot be decoded: {exc}") from None


def _field(doc, key: str, parse):
    """``parse(doc[key])``, ``parse`` one of the constructors' readers; a
    missing or malformed field raises QbcError naming it."""
    if not isinstance(doc, dict) or key not in doc:
        raise QbcError(f"expected a JSON object with a {key!r} field")
    try:
        return parse(doc[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise QbcError(f"JSON field {key!r} is malformed: {exc}") from None


def state_to_json(state: MultipartiteState) -> str:
    return json.dumps(
        {
            "labels": list(state.labels),
            "dims": list(state.dims),
            "matrix": _matrix_to_json(state.matrix),
        }
    )


def state_from_json(text: str) -> MultipartiteState:
    doc = _json_doc(text)
    return MultipartiteState(
        _field(doc, "matrix", _matrix_from_json),
        _field(doc, "labels", lambda v: _label_list(v, "labels")),
        _field(doc, "dims", lambda v: _count_list(v, "dims", "subsystem dimension")),
    )


def channel_to_json(channel: QuantumChannel) -> str:
    return json.dumps(
        {
            "input_dim": channel.input_dim,
            "output_labels": list(channel.output_labels),
            "output_dims": list(channel.output_dims),
            "kraus": [_matrix_to_json(k) for k in channel.kraus_ops],
        }
    )


def channel_from_json(text: str) -> QuantumChannel:
    doc = _json_doc(text)
    return QuantumChannel(
        _field(doc, "kraus", lambda ks: tuple(_matrix_from_json(k) for k in ks)),
        _field(doc, "input_dim", lambda v: _check_count("input dimension", v)),
        _field(doc, "output_labels", lambda v: _label_list(v, "output_labels")),
        _field(doc, "output_dims",
               lambda v: _count_list(v, "output_dims", "channel output dimension")),
    )
