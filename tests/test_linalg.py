"""Tests for the exact Hermitian matrix layer and the eigensolver wrapper."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdm import (
    HermitianMatrix,
    LinalgError,
    diagonally_dominant,
    eigensystem,
    exact_projector,
    is_psd,
    kron,
)

F = Fraction


def test_exact_construction_and_entries():
    h = HermitianMatrix([[1, -1], [-1, 1]], den=2)
    assert h.dim == 2
    assert h.trace() == 1
    assert h.entry(0, 1) == F(-1, 2)
    assert isinstance(h.entry(0, 0), Fraction)
    # integer input is exact, over den 1 by default
    g = HermitianMatrix([[1, 0], [0, 2]])
    assert g.entry(1, 1) == 2


def test_construction_rejects_bad_shapes_and_asymmetry():
    with pytest.raises(LinalgError):
        HermitianMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(LinalgError):
        HermitianMatrix([[0, 1], [2, 0]])
    with pytest.raises(LinalgError):
        HermitianMatrix([[F(0), F(1)], [F(1), F(0)]])  # Fractions are no input form


def test_float_and_complex_input_is_refused():
    # an integer array is the only input: float states are plain arrays
    for rows in (np.array([[0.5]]), [[1.0, 0.0], [0.0, 1.0]],
                 np.array([[1.0, 1j], [-1j, 2.0]]), np.eye(2, dtype=complex)):
        with pytest.raises(LinalgError, match="must be integers"):
            HermitianMatrix(rows)
        with pytest.raises(LinalgError, match="must be integers"):
            HermitianMatrix(rows, den=2)


def test_arithmetic_stays_exact():
    a = HermitianMatrix([[1, 2], [2, 0]])
    b = HermitianMatrix([[0, 1], [1, 3]], den=3)
    s = a + b
    assert s.entry(0, 1) == F(7, 3)
    d = a - b
    assert d.entry(1, 1) == -1
    scaled = a.scale(F(1, 4))
    assert scaled.entry(0, 1) == F(1, 2)
    assert (2 * a).entry(0, 0) == 2
    with pytest.raises(LinalgError):
        a.scale(0.25)  # a float factor has no exact result


def test_conjugate_by_exact_permutation():
    h = HermitianMatrix([[1, 2], [2, 3]])
    swap = np.array([[0, 1], [1, 0]])
    g = h.conjugate_by(swap)
    assert g.entry(0, 0) == 3 and g.entry(1, 1) == 1
    with pytest.raises(LinalgError):
        h.conjugate_by(swap.astype(object))  # an object conjugator is refused


def test_exact_projector():
    p = exact_projector([1, -1])
    expected = HermitianMatrix([[1, -1], [-1, 1]], den=2)
    assert p.exact_equal(expected)
    # idempotent: P conjugated into itself through P equals P
    sq = p.conjugate_by(p.num).scale(F(1, p.den ** 2))
    assert sq.exact_equal(p)
    with pytest.raises(LinalgError):
        exact_projector([0, 0])
    with pytest.raises(LinalgError):
        exact_projector([F(1), F(-1)])  # Fraction vectors are no input form


def test_kron_block_structure():
    a = HermitianMatrix([[1, 0], [0, 2]])
    b = HermitianMatrix([[0, 1], [1, 0]])
    k = kron(a, b)
    assert k.dim == 4
    assert k.entry(0, 1) == 1 and k.entry(2, 3) == 2 and k.entry(0, 2) == 0


def test_eigensystem_matches_numpy_on_random_symmetric():
    rng = np.random.default_rng(7)
    for dim in [2, 3, 5, 8]:
        raw = rng.integers(-9, 10, size=(dim, dim))
        h = HermitianMatrix(raw + raw.T, den=6)
        sym = (raw + raw.T) / 6
        spec = eigensystem(h)
        np.testing.assert_allclose(
            spec.eigenvalues, np.linalg.eigvalsh(sym), atol=1e-10)
        vecs = spec.eigenvectors
        np.testing.assert_allclose(
            vecs.conj().T @ vecs, np.eye(dim), atol=1e-10)
        recon = (vecs * np.array(spec.eigenvalues)) @ vecs.conj().T
        np.testing.assert_allclose(recon, sym, atol=1e-10)


def test_eigensystem_groups_multiplicities():
    h = HermitianMatrix([[1, 0, 0],
                         [0, 1, 0],
                         [0, 0, 3]])
    spec = eigensystem(h)
    assert spec.multiplicities == ((1.0, 2), (3.0, 1))
    assert spec.distinct() == (1.0, 3.0)


def test_is_psd_boundary():
    ok, low = is_psd(HermitianMatrix([[1, -1], [-1, 1]]))
    assert ok and abs(low) < 1e-12
    ok, low = is_psd(HermitianMatrix([[1, 2], [2, 1]]))
    assert not ok and abs(low - (-1.0)) < 1e-12



def dominant_by_rows(mat) -> bool:
    """The diagonal dominance test, one row at a time."""
    return all(mat[i][i] >= 0 and mat[i][i] >= sum(abs(x) for j, x in enumerate(row) if j != i)
               for i, row in enumerate(mat.tolist()))


def test_diagonal_dominance_cases():
    lap = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    assert diagonally_dominant(lap) and diagonally_dominant(np.abs(lap))  # L and D + A
    ones = np.ones((3, 3), dtype=np.int64)  # 3 times the projector onto (1, 1, 1)
    assert not diagonally_dominant(ones)
    assert not diagonally_dominant(np.array([[-1, 0], [0, 2]]))
    assert diagonally_dominant(np.stack([lap, np.abs(lap)]))
    assert not diagonally_dominant(np.stack([lap, ones]))  # one layer fails the stack
    # a longer int64 row could wrap its sum, so it gets no certificate
    assert diagonally_dominant(np.eye(512, dtype=np.int64))
    assert not diagonally_dominant(np.eye(513, dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n),
    st.lists(st.integers(-2, 2), min_size=n, max_size=n))))
def test_diagonal_dominance_matches_rows_and_certifies_psd(draw):
    entries, slack = draw
    n = len(slack)
    off = np.array(entries, dtype=np.int64).reshape(n, n)
    off = np.triu(off, 1) + np.triu(off, 1).T
    # diagonal = off-diagonal row sum plus a slack that may break dominance
    mat = off + np.diag(np.abs(off).sum(axis=1) + slack)
    assert diagonally_dominant(mat) == dominant_by_rows(mat)
    if diagonally_dominant(mat):
        assert np.linalg.eigvalsh(mat.astype(float))[0] >= -1e-9


def test_identity_and_zeros():
    i3 = HermitianMatrix.identity(3)
    assert i3.trace() == 3
    z = HermitianMatrix.zeros(2)
    assert z.trace() == 0
    assert math.isclose(i3.max_abs_diff(i3), 0.0)
