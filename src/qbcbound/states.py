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
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimMismatch,
    LabelCollision,
    LabelNotFound,
    QbcError,
)

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_TOL = 1e-10
RANK_TOL = 1e-12
PURE_TOL = 1e-9
# largest trace distance at which check_private_state accepts a private state
PRIVATE_TOL = 1e-8


def _frozen_array(a, what: str) -> np.ndarray:
    arr = np.array(a, dtype=complex)
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
    labels : ordered subsystem names, unique
    dims : ordered positive subsystem dimensions, one per label
    """

    matrix: np.ndarray
    labels: tuple[str, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_array(self.matrix, "matrix"))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
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
            raise LabelNotFound(f"label {label!r} not in {self.labels}") from None

    def is_pure(self) -> bool:
        return bool(np.linalg.eigvalsh(self.matrix)[-1] >= 1.0 - PURE_TOL)


@dataclass(frozen=True)
class QuantumChannel:
    """CPTP map given by Kraus operators with a labeled output split."""

    kraus_ops: tuple[np.ndarray, ...]
    input_dim: int
    output_labels: tuple[str, ...]
    output_dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "kraus_ops", tuple(_frozen_array(k, "Kraus operator") for k in self.kraus_ops)
        )
        object.__setattr__(self, "output_labels", tuple(self.output_labels))
        object.__setattr__(self, "output_dims", tuple(int(d) for d in self.output_dims))
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
        if self.num_parties < 2:
            raise QbcError("private states need at least 2 parties")
        if self.key_dim < 2:
            raise QbcError("key dimension must be at least 2")
        object.__setattr__(self, "shield_dims", tuple(int(d) for d in self.shield_dims))
        if len(self.shield_dims) != self.num_parties or any(d < 1 for d in self.shield_dims):
            raise DimMismatch("one positive shield dimension per party required")
        ds = math.prod(self.shield_dims)
        if self.twist_unitaries is not None:
            tw = tuple(_frozen_array(u, "twist unitary") for u in self.twist_unitaries)
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
    """Kronecker product of states in the given order."""
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


def _reordered(state: MultipartiteState, order) -> np.ndarray:
    """The state's matrix with its subsystems in the index order ``order``.

    Rows and columns are re-indexed by flat-index arithmetic: one array axis
    per row label and one per column label would cap a state at 32 labels
    (16 before numpy 2)."""
    strides = [math.prod(state.dims[i + 1 :]) for i in range(len(state.dims))]
    flat = np.zeros(1, dtype=np.intp)
    for i in order:
        flat = (flat[:, None] + strides[i] * np.arange(state.dims[i])).ravel()
    return state.matrix[np.ix_(flat, flat)]


def _marginal(state: MultipartiteState, keep):
    """Unvalidated ``(matrix, labels, dims)`` of the reduced state on ``keep``
    labels in their relative order (``LabelNotFound`` names a label the state
    lacks); keeping every label returns the state's own."""
    keep = set(keep)
    if not keep:
        raise QbcError("cannot keep an empty label set")
    keep_idx = sorted(state.index_of(lab) for lab in keep)
    n = len(state.labels)
    if len(keep_idx) == n:
        return state.matrix, state.labels, state.dims
    kd = tuple(state.dims[i] for i in keep_idx)
    m = math.prod(kd)
    r = state.dim // m
    red = _reordered(state, keep_idx + [i for i in range(n) if i not in keep_idx])
    red = np.einsum("ajbj->ab", red.reshape(m, r, m, r))
    red = (red + red.conj().T) / 2
    return red, tuple(state.labels[i] for i in keep_idx), kd


def partial_trace(state: MultipartiteState, keep) -> MultipartiteState:
    """Reduced state on ``keep`` labels, preserving their relative order: the
    ``_marginal``, validated once, as the public result, or the state itself."""
    red, labels, dims = _marginal(state, keep)
    return state if labels == state.labels else MultipartiteState(red, labels, dims)


def _support(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a density matrix on its numerical support."""
    w, v = np.linalg.eigh(matrix)
    w = np.clip(w, 0.0, None)
    sel = w > RANK_TOL
    return w[sel], v[:, sel]


def _purifying_amplitudes(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Standard purification psi[i, k] ~ sqrt(w_k) v[i, k] of a support (w, v)."""
    psi = v * np.sqrt(w)
    return psi / np.linalg.norm(psi)


def _purification(matrix: np.ndarray) -> np.ndarray:
    """Purification amplitudes over the numerical support of a density
    matrix, or of its top eigenvector alone when ``is_pure`` would accept it."""
    w, v = _support(matrix)
    if w[-1] >= 1.0 - PURE_TOL:
        w, v = w[-1:], v[:, -1:]
    return _purifying_amplitudes(w, v)


def purify(state: MultipartiteState, purifier_label: str) -> MultipartiteState:
    """Standard purification; purifier dimension equals the numerical rank."""
    if purifier_label in state.labels:
        raise LabelCollision(f"purifier label {purifier_label!r} already present")
    psi = _purifying_amplitudes(*_support(state.matrix))
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
    dl = int(np.prod(state.dims[:ti], dtype=int))
    dr = int(np.prod(state.dims[ti + 1 :], dtype=int))
    t = state.matrix.reshape(dl, channel.input_dim, dr, dl, channel.input_dim, dr)
    ks = np.stack(channel.kraus_ops)
    out = np.einsum("kai,lirmjs,kbj->larmbs", ks, t, ks.conj(), optimize=True)
    dims = state.dims[:ti] + channel.output_dims + state.dims[ti + 1 :]
    out = out.reshape(int(np.prod(dims)), -1)
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
    labels = tuple(labels)
    m = len(labels)
    if m < 2:
        raise QbcError("GHZ needs at least 2 parties")
    if d < 2:
        raise QbcError("GHZ Schmidt rank must be at least 2")
    return MultipartiteState(_ghz_matrix(m, d), labels, (d,) * m)


def make_private_state(
    spec: PrivateStateSpec, key_labels, shield_labels
) -> MultipartiteState:
    """Twisted product U (GHZ_key x rho_shield) U^dag.

    Labels are ordered key systems first, then shield systems.  The shield
    state defaults to maximally mixed.  Only the result is validated.
    """
    key_labels = tuple(key_labels)
    shield_labels = tuple(shield_labels)
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
    eye = np.eye(d)
    kraus = [np.outer(eye[:, i], eye[:, i]) for i in range(d)]
    return QuantumChannel(tuple(kraus), d, (label,), (d,))


def check_private_state(
    state: MultipartiteState, key_labels, shield_labels, d: int
) -> tuple[bool, float]:
    """Evaluate the defining secret-key condition of a private state.

    Purifies the state, dephases every key system, traces the shields and
    measures the trace distance to the ideal perfectly-correlated key that
    is product with the purifying system.  Every system that is not a key is
    traced as shield; ``shield_labels`` may name them or be empty.  Returns
    (deviation <= PRIVATE_TOL, deviation).
    """
    key_labels = tuple(key_labels)
    for lab in key_labels:
        if state.dim_of(lab) != d:
            raise DimMismatch(f"key system {lab!r} does not have dimension {d}")
    for lab in shield_labels:
        if lab not in state.labels:
            raise LabelNotFound(f"shield label {lab!r} not in {state.labels}")
        if lab in key_labels:
            raise LabelCollision(f"shield label {lab!r} is also a key label")
    m = len(key_labels)
    psi = _purifying_amplitudes(*_support(state.matrix))
    de = psi.shape[1]
    keys = [state.index_of(lab) for lab in key_labels]
    t = np.moveaxis(psi.reshape(state.dims + (de,)), keys, range(m)).reshape(d**m, -1, de)
    # dephasing the keys and tracing the shields leaves one purifier block per
    # key string: the state on (keys, purifier) is block diagonal
    blocks = np.einsum("ksa,ksb->kab", t, t.conj())
    correlated = [i * sum(d**j for j in range(m)) for i in range(d)]  # strings i...i
    sigma = blocks[correlated].sum(axis=0)
    tr = np.trace(sigma).real
    sigma = sigma / tr if tr > 1e-12 else np.eye(de) / de
    blocks[correlated] -= sigma / d
    dev = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(blocks))))
    return dev <= PRIVATE_TOL, dev


def trace_distance(a: MultipartiteState, b: MultipartiteState) -> float:
    """(1/2) ||a - b||_1, with ``b``'s subsystems matched to ``a``'s by label."""
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
    # complex() would read JSON true/false as 1/0
    return np.array(
        [
            [
                complex(re, im)
                if type(re) is not bool and type(im) is not bool
                else _not_a_number([re, im])
                for re, im in row
            ]
            for row in rows
        ]
    )


def _json_doc(text: str):
    """``json.loads(text)``; a document nested deeper than the decoder's
    recursion limit raises QbcError like any other malformed one."""
    try:
        return json.loads(text)
    except RecursionError:
        raise QbcError("JSON document is nested too deeply to decode") from None


def _field(doc, key: str, parse):
    """``parse(doc[key])``; a missing or malformed field raises QbcError naming it."""
    if not isinstance(doc, dict) or key not in doc:
        raise QbcError(f"expected a JSON object with a {key!r} field")
    try:
        return parse(doc[key])
    except (TypeError, ValueError) as exc:
        raise QbcError(f"JSON field {key!r} is malformed: {exc}") from None


def _int(value) -> int:
    # JSON integers only: bool is an int subclass and floats would be truncated
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _dims(values) -> tuple[int, ...]:
    if type(values) is not list:
        raise TypeError(f"expected an array of integers, got {values!r}")
    return tuple(_int(d) for d in values)


def _labels(values) -> tuple[str, ...]:
    if type(values) is not list or not all(type(v) is str for v in values):
        raise TypeError(f"expected an array of strings, got {values!r}")
    for v in values:
        # what a partition string such as "R|B,C" can name
        if not v or "," in v or "|" in v or v != v.strip():
            raise ValueError(
                f"label {v!r} cannot appear in a partition string: it is empty, "
                "holds ',' or '|', or has leading or trailing whitespace"
            )
    return tuple(values)


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
        _field(doc, "labels", _labels),
        _field(doc, "dims", _dims),
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
        _field(doc, "input_dim", _int),
        _field(doc, "output_labels", _labels),
        _field(doc, "output_dims", _dims),
    )
