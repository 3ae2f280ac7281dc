"""Seeded random generators for states, unitaries and channels.

Used by the self-test suite and the test harness; everything takes an
explicit numpy Generator so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .partitions import _read_once
from .states import MultipartiteState, QuantumChannel


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    k = rank or d
    g = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_state(
    rng: np.random.Generator, labels, dims, rank: int | None = None
) -> MultipartiteState:
    labels, dims = _read_once(labels, "labels"), _read_once(dims, "dims")
    d = int(np.prod(dims))
    return MultipartiteState(random_density(rng, d, rank), labels, dims)


def random_pure_state(rng: np.random.Generator, labels, dims) -> MultipartiteState:
    labels, dims = _read_once(labels, "labels"), _read_once(dims, "dims")
    d = int(np.prod(dims))
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
    """Random CPTP map from a Haar-random Stinespring isometry."""
    output_labels = _read_once(output_labels, "output_labels")
    output_dims = _read_once(output_dims, "output_dims")
    dout = int(np.prod(output_dims))
    env = env_dim or input_dim
    u = random_unitary(rng, dout * env)
    iso = u[:, :input_dim]
    kraus = [iso.reshape(dout, env, input_dim)[:, a, :] for a in range(env)]
    return QuantumChannel(tuple(kraus), input_dim, output_labels, output_dims)
