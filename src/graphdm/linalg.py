"""Exact Hermitian matrices and the eigensolver boundary.

Every matrix graphdm builds is an integer matrix over one denominator, so
a HermitianMatrix is a read-only int64 numerator array over one positive
int denominator, reduced by their common gcd.  An integer array is the
only input: any other dtype (float, complex, or an object array of
Fractions or of ints past int64) raises LinalgError; float states are
plain numpy arrays.  Sums, scalings, Kronecker products, conjugations and
projectors are vectorized; each raises LinalgError when a bound on its
unreduced int64 result passes 2**62 (so it cannot wrap) or, like the
constructor, when the gcd-reduced numerators or denominator pass 2**53.
Floating point enters only at the eigensolver boundary: within that bound
num and den are exact floats, so num / den is correctly rounded.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

GROUP_TOL = 1e-8
PSD_TOL = 1e-9

# largest numerator or denominator an exact matrix holds: an exact float64
EXACT_LIMIT = 2 ** 53
# an int64 product whose entries are bounded by this cannot have wrapped
INT64_SAFE_LIMIT = 2 ** 62


class LinalgError(ValueError):
    """Invalid matrix construction or operation."""


def _check_bound(bound, limit: int = INT64_SAFE_LIMIT) -> None:
    """Raise unless a bound on an operation's entries stays within limit."""
    if bound > limit:
        raise LinalgError(f"exact entries would pass 2**{limit.bit_length() - 1}")


def _reduced(num: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """num and den divided by their common gcd."""
    common = math.gcd(int(np.gcd.reduce(num, axis=None)), den)
    return (num // common, den // common) if common > 1 else (num, den)


def _int64(ints) -> np.ndarray:
    """An integer array as int64, range-checked; any other dtype raises, so
    no rational or float entry is truncated."""
    ints = np.asarray(ints)
    if ints.dtype.kind not in "iu":
        raise LinalgError(f"exact entries must be integers, not {ints.dtype}")
    if ints.size and (ints.max() > INT64_SAFE_LIMIT or ints.min() < -INT64_SAFE_LIMIT):
        raise LinalgError("exact entries would pass 2**62")
    return ints.astype(np.int64)


class HermitianMatrix:
    """Exact real symmetric matrix num / den.

    num is a read-only int64 array over a positive int den (the keyword
    `den`), gcd-reduced, so equal matrices have equal parts.  Its entries
    may reach 2**62 if the reduced parts stay within 2**53.
    """

    __slots__ = ("num", "den")
    exact_real = True  # a constant: perfbench's tracer counts matrices by it

    def __init__(self, rows, *, den: int = 1):
        arr = np.asarray(rows)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise LinalgError("matrix must be square")
        den = operator.index(den)
        if den < 1:
            raise LinalgError(f"denominator {den} is not positive")
        num, den = _reduced(_int64(arr), den)
        _check_bound(max(int(np.abs(num).max()) if num.size else 0, den), EXACT_LIMIT)
        if not (num == num.T).all():
            raise LinalgError("matrix is not symmetric")
        num.setflags(write=False)
        self.num, self.den = num, den

    @property
    def dim(self) -> int:
        return self.num.shape[0]

    def _max_num(self) -> int:
        return int(np.abs(self.num).max()) if self.num.size else 0

    @classmethod
    def zeros(cls, dim: int) -> "HermitianMatrix":
        return cls(np.zeros((dim, dim), dtype=np.int64))

    @classmethod
    def identity(cls, dim: int) -> "HermitianMatrix":
        return cls(np.eye(dim, dtype=np.int64))

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(int(self.num[i, j]), self.den)

    def to_real(self) -> np.ndarray:
        """num / den, correctly rounded."""
        return self.num / self.den

    def trace(self) -> Fraction:
        return Fraction(sum(self.num.diagonal().tolist()), self.den)

    def _combine(self, other: "HermitianMatrix", sign: int) -> "HermitianMatrix":
        """self + sign * other."""
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        _check_bound(self._max_num() * a + other._max_num() * b)
        return HermitianMatrix(self.num * a + other.num * (sign * b), den=den)

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        return self._combine(other, -1)

    def scale(self, s) -> "HermitianMatrix":
        """s * self for an int or Fraction s."""
        if isinstance(s, (int, np.integer)):
            s = Fraction(int(s))
        elif not isinstance(s, Fraction):
            raise LinalgError(f"an exact matrix scales by an int or Fraction, not {s!r}")
        _check_bound(max(self._max_num(), 1) * abs(s.numerator))
        return HermitianMatrix(self.num * s.numerator, den=self.den * s.denominator)

    def __mul__(self, s):
        return self.scale(s)

    __rmul__ = __mul__

    def conjugate_by(self, m) -> "HermitianMatrix":
        """m @ self @ m^T for an integer matrix m.

        The product raises LinalgError when max|N| times the square of m's
        largest absolute row sum passes 2**62, or when its gcd-reduced
        numerators or denominator pass 2**53.
        """
        m = _int64(m)
        # |(M N M^T)_ij| <= max|N| * (largest absolute row sum of M)^2
        row = np.abs(m).sum(axis=1, dtype=float).max() if m.size else 0.0
        _check_bound(float(self._max_num()) * row * row)
        return HermitianMatrix(m @ self.num @ m.T, den=self.den)

    def exact_equal(self, other: "HermitianMatrix") -> bool:
        return self.den == other.den and np.array_equal(self.num, other.num)

    def max_abs_diff(self, other: "HermitianMatrix") -> float:
        return float(np.abs(self.to_real() - other.to_real()).max())

    def __repr__(self):
        return f"HermitianMatrix(dim={self.dim}, exact)"


def exact_projector(vec) -> HermitianMatrix:
    """Projector v v^T / (v . v) for an integer (unnormalized) vector."""
    v = _int64(vec)
    top = int(np.abs(v).max()) if v.size else 0
    _check_bound(top * top * len(v))
    norm2 = int(v @ v)
    if norm2 == 0:
        raise LinalgError("zero vector has no projector")
    return HermitianMatrix(np.outer(v, v), den=norm2)


def kron(a: HermitianMatrix, b: HermitianMatrix) -> HermitianMatrix:
    _check_bound(a._max_num() * b._max_num())
    return HermitianMatrix(np.kron(a.num, b.num), den=a.den * b.den)


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues in ascending order with tolerance-grouped multiplicities.

    eigenvectors holds orthonormal columns aligned with `eigenvalues`.
    """

    eigenvalues: tuple[float, ...]
    multiplicities: tuple[tuple[float, int], ...]
    eigenvectors: np.ndarray

    def distinct(self) -> tuple[float, ...]:
        return tuple(v for (v, _) in self.multiplicities)


def _group(values: np.ndarray, tol: float):
    """(mean, size) of each run of ascending values whose steps stay within tol."""
    runs = np.split(values, np.flatnonzero(np.diff(values) > tol) + 1)
    return tuple((float(np.mean(g)), len(g)) for g in runs)


def eigensystem(h: HermitianMatrix) -> SpectrumResult:
    """Full spectral decomposition via the symmetric eigensolver, checked by
    its reconstruction residual; eigenvalues whose steps stay within
    GROUP_TOL share a multiplicity."""
    mat = h.to_real()
    vals, vecs = np.linalg.eigh(mat)
    err = np.abs((vecs * vals) @ vecs.T - mat).max()
    if err > 1e-10 * h.dim:
        raise LinalgError(f"eigendecomposition failed to reconstruct (err={err:g})")
    return SpectrumResult(tuple(vals.tolist()), _group(vals, GROUP_TOL), vecs)


def diagonally_dominant(num: np.ndarray) -> bool:
    """Whether every integer matrix of a stack has each diagonal entry at
    least the absolute sum of the rest of its row (so nonnegative).

    A symmetric matrix that passes is positive semidefinite: each
    Gershgorin disc lies in [0, inf).  So for an exact state (num over a
    positive denominator) this O(n^2) test certifies PSD without an
    eigensolve.  It needs |entries| <= 2**53, so a row of more than 512
    entries, whose int64 sum could wrap, gets no certificate.
    """
    if num.shape[-1] > INT64_SAFE_LIMIT // EXACT_LIMIT:
        return False
    # 2 a_ii >= sum_j |a_ij| holds only when a_ii >= 0
    diag = np.diagonal(num, axis1=-2, axis2=-1)
    return bool((2 * diag >= np.abs(num).sum(axis=-1)).all())


def is_psd(h: HermitianMatrix) -> tuple[bool, float]:
    """(matrix is positive semidefinite within PSD_TOL, smallest eigenvalue)."""
    vals = np.linalg.eigvalsh(h.to_real())
    low = float(vals[0])
    return low >= -PSD_TOL, low

