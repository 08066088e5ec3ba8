"""Matrix representations on the qubit (x) resonator product space.

Basis ordering: the product state |k, n> (qubit level k, n photons) sits
at flat index k * M + n, i.e. the qubit is the slow index.  Operators are
dense numpy arrays, except a jump, which moves each product state to at most
one other: jump_entries gives its nonzero entries in closed form, and
jump_matrix scatters them.  The Liouvillian, of dimension d^2, is sparse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rates import JumpDescriptor


class DimensionMismatch(ValueError):
    """An operator or state has the wrong shape for the given space."""


@dataclass(frozen=True)
class ProductSpace:
    qubit_dim: int
    fock_dim: int

    def __post_init__(self) -> None:
        if self.qubit_dim < 2 or self.fock_dim < 2:
            raise ValueError(f"need at least 2 levels in each factor, "
                             f"got ({self.qubit_dim}, {self.fock_dim})")

    @property
    def dimension(self) -> int:
        return self.qubit_dim * self.fock_dim

    def index(self, k: int, n: int) -> int:
        if not (0 <= k < self.qubit_dim and 0 <= n < self.fock_dim):
            raise IndexError(f"state ({k}, {n}) outside space "
                             f"({self.qubit_dim}, {self.fock_dim})")
        return k * self.fock_dim + n

    def pairs(self):
        for k in range(self.qubit_dim):
            for n in range(self.fock_dim):
                yield k, n


def annihilator(m: int) -> np.ndarray:
    """Photon annihilation operator on an M-level Fock space."""
    return np.diag(np.sqrt(np.arange(1.0, m)), 1)


def number_operator(m: int) -> np.ndarray:
    return np.diag(np.arange(float(m)))


def qubit_projector(k: int, n_levels: int) -> np.ndarray:
    out = np.zeros((n_levels, n_levels))
    out[k, k] = 1.0
    return out


def qubit_lower(k: int, n_levels: int) -> np.ndarray:
    """sigma_{k,k+1} = |k><k+1|."""
    out = np.zeros((n_levels, n_levels))
    out[k, k + 1] = 1.0
    return out


def embed(qubit_op: np.ndarray | None, photon_op: np.ndarray | None,
          space: ProductSpace) -> np.ndarray:
    """kron(qubit factor, photon factor), identities where None."""
    q = np.eye(space.qubit_dim) if qubit_op is None else qubit_op
    p = np.eye(space.fock_dim) if photon_op is None else photon_op
    return np.kron(q, p)


class _Entries(NamedTuple):
    """A jump's nonzero entries L[rows[i], cols[i]] = values[i], row-major."""
    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


def jump_entries(descriptor: JumpDescriptor, space: ProductSpace) -> _Entries:
    """The nonzero entries of jump_matrix, row-major: the qubit factor is
    |k><k|, |k><k+1|, |k+1><k| or the identity, and the photon factor sends n
    to n - 1 with weight sqrt(n), to n + 1 with sqrt(n + 1), or to n with 1."""
    n_q, m = space.qubit_dim, space.fock_dim
    q_rows = q_cols = np.arange(n_q)
    if descriptor.qubit is not None:
        kind, k = descriptor.qubit
        if k >= n_q - (kind != "diag"):
            what = "level" if kind == "diag" else "transition"
            raise DimensionMismatch(f"{what} {k} outside {n_q}-level qubit")
        q_rows, q_cols = np.array([k + (kind == "raise")]), np.array([k + (kind == "lower")])
    p_rows = p_cols = np.arange(m)
    values = np.ones(m)
    if descriptor.photon is not None:
        lower, upper = np.arange(m - 1), np.arange(1, m)
        p_rows, p_cols = (upper, lower) if descriptor.photon == "create" else (lower, upper)
        values = np.sqrt(np.arange(1.0, m))
    return _Entries((space.dimension, space.dimension), np.add.outer(q_rows * m, p_rows).ravel(),
                    np.add.outer(q_cols * m, p_cols).ravel(), np.tile(values, len(q_rows)))


def jump_matrix(descriptor: JumpDescriptor, space: ProductSpace) -> np.ndarray:
    """Realize a symbolic jump descriptor as a dense matrix: its entries
    scattered into a zeroed array."""
    entries = jump_entries(descriptor, space)
    out = np.zeros(entries.shape)
    out[entries.rows, entries.cols] = entries.values
    return out
