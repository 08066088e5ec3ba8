"""Matrix representations on the qubit (x) resonator product space.

Basis ordering: the product state |k, n> (qubit level k, n photons) sits
at flat index k * M + n, i.e. the qubit is the slow index.  All matrices
are dense numpy arrays: at the truncations this package targets (a few
hundred states) dense operators are cheap to build and multiply.  The
Liouvillian, of dimension d^2, is sparse (see lindblad).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def jump_matrix(descriptor: JumpDescriptor, space: ProductSpace) -> np.ndarray:
    """Realize a symbolic jump descriptor as a dense matrix."""
    q = None
    if descriptor.qubit is not None:
        kind, k = descriptor.qubit
        if kind == "diag":
            if k >= space.qubit_dim:
                raise DimensionMismatch(f"level {k} outside {space.qubit_dim}-level qubit")
            q = qubit_projector(k, space.qubit_dim)
        else:
            if k >= space.qubit_dim - 1:
                raise DimensionMismatch(f"transition {k} outside {space.qubit_dim}-level qubit")
            q = qubit_lower(k, space.qubit_dim)
            if kind == "raise":
                q = q.T
    p = None
    if descriptor.photon is not None:
        p = annihilator(space.fock_dim)
        if descriptor.photon == "create":
            p = p.T
    return embed(q, p, space)
