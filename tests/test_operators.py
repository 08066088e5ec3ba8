"""Tests for the product-space operator builders."""

import math

import numpy as np
import pytest

from rabiqed import (
    DimensionMismatch,
    JumpDescriptor,
    ProductSpace,
    annihilator,
    embed,
    jump_matrix,
    number_operator,
    qubit_lower,
    qubit_projector,
)
from rabiqed.operators import jump_entries


def test_product_space_indexing():
    """index(k, n) = k * fock_dim + n, with bounds checks."""
    space = ProductSpace(3, 4)
    assert space.dimension == 12
    assert space.index(0, 0) == 0
    assert space.index(1, 0) == 4
    assert space.index(2, 3) == 11
    assert list(space.pairs())[:5] == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]
    with pytest.raises(IndexError):
        space.index(3, 0)
    with pytest.raises(IndexError):
        space.index(0, 4)
    with pytest.raises(IndexError):
        space.index(-1, 0)


def test_product_space_validation():
    """Both factors need at least two states."""
    with pytest.raises(ValueError):
        ProductSpace(1, 4)
    with pytest.raises(ValueError):
        ProductSpace(3, 1)


def test_annihilator_and_number_operator():
    """a has sqrt(n) on the superdiagonal and a+a counts photons."""
    a = annihilator(4)
    expected = np.zeros((4, 4))
    for n in range(1, 4):
        expected[n - 1, n] = math.sqrt(n)
    np.testing.assert_allclose(a, expected, rtol=0)
    np.testing.assert_allclose(a.conj().T @ a, number_operator(4), rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.diag(number_operator(4)), [0, 1, 2, 3], rtol=0)


def test_qubit_matrix_units():
    """Projectors and lowering operators are the expected matrix units."""
    proj = qubit_projector(1, 3)
    assert proj[1, 1] == 1.0 and np.count_nonzero(proj) == 1
    lower = qubit_lower(0, 3)
    assert lower[0, 1] == 1.0 and np.count_nonzero(lower) == 1


def test_embed_tensors_factors():
    """embed places qubit and photon factors on the product space."""
    space = ProductSpace(2, 3)
    q = qubit_projector(1, 2)
    p = annihilator(3)
    both = embed(q, p, space)
    np.testing.assert_allclose(both, np.kron(q, p), rtol=0)
    only_q = embed(q, None, space)
    np.testing.assert_allclose(only_q, np.kron(q, np.eye(3)), rtol=0)
    only_p = embed(None, p, space)
    np.testing.assert_allclose(only_p, np.kron(np.eye(2), p), rtol=0)


def test_jump_matrix_realizations():
    """Every descriptor's closed-form entries are the nonzeros of its
    Kronecker form, bit for bit and in row-major order, and jump_matrix
    scatters them into that form: each qubit factor (none, lower, raise or
    diag at every level) with each photon factor (none, a or a+), on the
    spaces (2, 2), (3, 4) and (5, 8)."""
    for n_q, m in ((2, 2), (3, 4), (5, 8)):
        space = ProductSpace(n_q, m)
        qubits = {None: None}
        for k in range(n_q):
            qubits[("diag", k)] = qubit_projector(k, n_q)
        for k in range(n_q - 1):
            qubits[("lower", k)] = qubit_lower(k, n_q)
            qubits[("raise", k)] = qubit_lower(k, n_q).T
        photons = {None: None, "annihilate": annihilator(m),
                   "create": annihilator(m).conj().T}
        for qubit, q in qubits.items():
            for photon, p in photons.items():
                if qubit is None and photon is None:
                    continue
                descriptor = JumpDescriptor(qubit=qubit, photon=photon)
                expected = embed(q, p, space)
                entries = jump_entries(descriptor, space)
                rows, cols = np.nonzero(expected)
                assert entries.shape == expected.shape
                np.testing.assert_array_equal(entries.rows, rows)
                np.testing.assert_array_equal(entries.cols, cols)
                assert entries.values.dtype == expected.dtype
                assert entries.values.tobytes() == expected[rows, cols].tobytes()
                dense = jump_matrix(descriptor, space)
                assert dense.dtype == expected.dtype
                assert dense.tobytes() == expected.tobytes()


def test_jump_matrix_bounds():
    """A descriptor outside the qubit ladder cannot be realized."""
    space = ProductSpace(2, 3)
    with pytest.raises(DimensionMismatch):
        jump_matrix(JumpDescriptor(qubit=("lower", 1)), space)
    with pytest.raises(DimensionMismatch):
        jump_matrix(JumpDescriptor(qubit=("diag", 2)), space)
    with pytest.raises(DimensionMismatch):
        jump_entries(JumpDescriptor(qubit=("raise", 1), photon="create"), space)
