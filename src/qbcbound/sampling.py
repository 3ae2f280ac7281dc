"""Seeded random generators for states, unitaries and channels.

Used by the self-test suite and the test harness; everything takes an
explicit numpy Generator so runs are reproducible.  Every label, dimension
and count is read, and refused with a ``QbcError`` naming it, before the
first number is drawn.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimMismatch, TooLarge
from .partitions import _label_list
from .states import MultipartiteState, QuantumChannel, _check_count, _count_list


def _check_entries(what: str, rows: int, cols: int) -> None:
    """Refuse, as ``TooLarge``, a rows x cols draw that numpy could not index."""
    if rows * cols > np.iinfo(np.intp).max:
        raise TooLarge(f"{what}: a {rows} x {cols} matrix is past numpy's index range")


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    k = d if rank is None else _check_count("rank", rank, 1)
    _check_entries("d and rank", d, k)
    g = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _state_size(labels, dims) -> tuple[tuple[str, ...], tuple[int, ...], int]:
    """A sampled state's labels, its positive dims and their product."""
    labels = _label_list(labels, "labels")
    dims = _count_list(dims, "dims", "subsystem dimension", 1)
    d = math.prod(dims)
    _check_entries("dims", d, d)
    return labels, dims, d


def random_state(
    rng: np.random.Generator, labels, dims, rank: int | None = None
) -> MultipartiteState:
    labels, dims, d = _state_size(labels, dims)
    return MultipartiteState(random_density(rng, d, rank), labels, dims)


def random_pure_state(rng: np.random.Generator, labels, dims) -> MultipartiteState:
    labels, dims, d = _state_size(labels, dims)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    return MultipartiteState(np.outer(v, v.conj()), labels, dims)


def random_channel(
    rng: np.random.Generator,
    input_dim: int,
    output_labels,
    output_dims,
    env_dim: int | None = None,
) -> QuantumChannel:
    """Random CPTP map from a Haar-random Stinespring isometry into the
    outputs and an environment of ``env_dim`` (``input_dim`` by default),
    which must together hold at least ``input_dim`` dimensions."""
    input_dim = _check_count("input dimension", input_dim, 1)
    output_labels = _label_list(output_labels, "output_labels")
    output_dims = _count_list(output_dims, "output_dims", "channel output dimension", 1)
    env = input_dim if env_dim is None else _check_count("env_dim", env_dim, 1)
    dout = math.prod(output_dims)
    _check_entries("output_dims and env_dim", dout * env, dout * env)
    if dout * env < input_dim:
        raise DimMismatch(f"output dim {dout} x env_dim {env} is below input dimension "
                          f"{input_dim}: no isometry fits")
    u = random_unitary(rng, dout * env)
    iso = u[:, :input_dim]
    kraus = [iso.reshape(dout, env, input_dim)[:, a, :] for a in range(env)]
    return QuantumChannel(tuple(kraus), input_dim, output_labels, output_dims)
