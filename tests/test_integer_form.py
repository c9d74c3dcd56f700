"""The int64-numerator form of exact matrices against Fraction object arrays.

Every reference here is computed entry by entry in Fraction arithmetic on
dtype=object arrays, the representation the integer form replaced; the
operands are given to graphdm as integer numerators over one denominator,
since an object array is no input form.  A result must match the reference
exactly, in canonical form (the denominator is the lcm of the reduced
entries' denominators), and its floats must be the correctly rounded
entries, as float(Fraction) gives them.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphdm import (
    BipartiteLabeling,
    DensityMatrix,
    HermitianMatrix,
    LinalgError,
    exact_projector,
    kron,
    partial_transpose,
    purity,
)

F = Fraction
fractions_ = st.builds(F, st.integers(-40, 40), st.integers(1, 12))


def fraction_array(rows) -> np.ndarray:
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    out[:] = [[F(x) for x in row] for row in rows]
    return out


@st.composite
def symmetric(draw, n):
    a = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(i, n):
            a[i, j] = a[j, i] = draw(fractions_)
    return a


@st.composite
def rectangular(draw, rows, cols):
    return fraction_array([[draw(fractions_) for _ in range(cols)] for _ in range(rows)])


def assert_matches(h: HermitianMatrix, ref: np.ndarray) -> None:
    ref = fraction_array(ref.tolist())
    assert h.dim == len(ref)
    assert h.num.dtype == np.int64 and not h.num.flags.writeable
    den = math.lcm(*(x.denominator for x in ref.flat))
    assert h.den == den
    assert h.num.tolist() == [[int(x * den) for x in row] for row in ref]
    assert h.trace() == sum(ref.diagonal())
    for i in range(h.dim):
        for j in range(h.dim):
            assert isinstance(h.entry(i, j), Fraction) and h.entry(i, j) == ref[i, j]
    floats = np.array([[float(x) for x in row] for row in ref])
    assert np.array_equal(h.to_real(), floats)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 4))
def test_sum_difference_and_scale(data, n):
    a, b = data.draw(symmetric(n)), data.draw(symmetric(n))
    s = data.draw(st.one_of(fractions_, st.integers(-9, 9)))
    ha, hb = exact(a), exact(b)
    assert_matches(ha, a)
    assert_matches(ha + hb, a + b)
    assert_matches(ha - hb, a - b)
    assert_matches(ha.scale(s), a * F(s))
    assert_matches(s * ha, a * F(s))
    assert (ha - ha).den == 1 and (ha - ha).exact_equal(HermitianMatrix.zeros(n))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), k=st.integers(1, 3))
def test_kron(data, n, k):
    a, b = data.draw(symmetric(n)), data.draw(symmetric(k))
    assert_matches(kron(exact(a), exact(b)), np.kron(a, b))


@st.composite
def conjugation(draw):
    """A symmetric n x n matrix and a k x n matrix, n and k in 1..4."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return draw(symmetric(n)), draw(rectangular(k, n))


def common_parts(rows) -> tuple[list, int]:
    """Numerators over the lcm of the entries' denominators, and that lcm."""
    den = math.lcm(*(F(x).denominator for row in rows for x in row))
    return [[int(F(x) * den) for x in row] for row in rows], den


def exact(a: np.ndarray) -> HermitianMatrix:
    """A Fraction array as graphdm takes it: integer numerators over one den."""
    num, den = common_parts(a.tolist())
    return HermitianMatrix(np.array(num, dtype=np.int64), den=den)


def refused(pre: int, ref: np.ndarray) -> bool:
    """The documented refusal: the bound on the unreduced int64 result passes
    2**62, or the reduced result's numerators or denominator pass 2**53."""
    r_num, r_den = common_parts(ref.tolist())
    top = max(abs(x) for r in r_num for x in r)
    return pre > 2 ** 62 or max(top, r_den) > 2 ** 53


def conjugation_refused(a: np.ndarray, m: np.ndarray, ref: np.ndarray) -> bool:
    """max|N| * (largest absolute row sum of M)^2, both over their common
    denominators, bounds the unreduced result."""
    n_num, _ = common_parts(a.tolist())
    m_num, _ = common_parts(m.tolist())
    row = max(sum(abs(x) for x in r) for r in m_num)
    return refused(max(abs(x) for r in n_num for x in r) * row * row, ref)


def assert_conjugation(a: np.ndarray, m: np.ndarray) -> None:
    ref = np.dot(np.dot(m, a), m.T)
    if conjugation_refused(a, m, ref):
        with pytest.raises(LinalgError):
            exact(a).conjugate_by(m)
    else:
        assert_matches(exact(a).conjugate_by(m), ref)


@settings(max_examples=40, deadline=None)
@given(operands=conjugation())
# over m's common denominator 13860, the bound on the unreduced product
# (9.15e15) passes 2**53 while the reduced result has den 8 and numerators
# below 3.9e13
@example(operands=(
    fraction_array([[0, 0, 0, 0], [0, 0, F(1, 3), F(1, 7)],
                    [0, F(1, 3), F(1, 8), F(1, 11)], [0, F(1, 7), F(1, 11), 28]]),
    fraction_array([[0, 0, F(1, 4), F(1, 5)], [F(1, 7), F(1, 9), F(1, 11), 30]])))
def test_conjugate_by(operands):
    a, m = operands
    with pytest.raises(LinalgError):
        exact(a).conjugate_by(m)  # a rational conjugator is refused
    # its numerators over their common denominator are an integer conjugator
    assert_conjugation(a, np.array(common_parts(m.tolist())[0], dtype=np.int64))
    # and so are the entries' own numerators
    mi = np.vectorize(lambda x: x.numerator)(m).astype(np.int64)
    assert_conjugation(a, mi)


@settings(max_examples=40, deadline=None)
@given(vec=st.lists(fractions_, min_size=1, max_size=6).filter(any))
def test_exact_projector(vec):
    v = fraction_array([vec])[0]
    norm2 = sum(x * x for x in v)
    with pytest.raises(LinalgError):
        exact_projector(vec)  # a Fraction vector is refused
    # a common denominator cancels, so its numerators give the same projector
    assert_matches(exact_projector(common_parts([vec])[0][0]), np.outer(v, v) / norm2)
    ints = [x.numerator for x in vec]
    if any(ints):
        w = fraction_array([ints])[0]
        assert_matches(exact_projector(np.array(ints)), np.outer(w, w) / sum(x * x for x in w))


def pt_reference(rho: np.ndarray, lab: BipartiteLabeling) -> np.ndarray:
    """Transpose of the column factor, entry by entry in the vertex basis."""
    at = {lab.cells[v]: v for v in range(lab.n)}
    out = np.empty_like(rho)
    for u, (su, tu) in enumerate(lab.cells):
        for v, (sv, tv) in enumerate(lab.cells):
            out[u, v] = rho[at[(su, tv)], at[(sv, tu)]]
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data(), dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]))
def test_purity_and_partial_transpose_of_rational_states(data, dims):
    p, q = dims
    n = p * q
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)
    vecs = data.draw(st.lists(vec, min_size=1, max_size=4))
    weights = data.draw(st.lists(st.integers(1, 9), min_size=len(vecs), max_size=len(vecs)))
    ref = np.full((n, n), F(0), dtype=object)
    state = HermitianMatrix.zeros(n)
    for v, w in zip(vecs, weights):
        col = fraction_array([v])[0]
        share = F(w, sum(weights))
        ref = ref + np.outer(col, col) * share / sum(x * x for x in col)
        state = state + exact_projector(v).scale(share)
    assert_matches(state, ref)
    rho = DensityMatrix(state)
    got = purity(rho)
    assert isinstance(got, Fraction) and got == sum(x * x for x in ref.flat)
    perm = data.draw(st.permutations(range(n)))
    lab = BipartiteLabeling.from_assignment(p, q, perm)
    assert_matches(partial_transpose(rho, lab), pt_reference(ref, lab))


def test_floats_at_the_bound_are_correctly_rounded():
    # up to 2**53 numerator and denominator are exact floats
    h = HermitianMatrix(np.array([[2 ** 53, 1], [1, 0]]), den=3)
    assert h.to_real()[0, 0] == float(F(2 ** 53, 3))
    assert_matches(h, fraction_array([[F(2 ** 53, 3), F(1, 3)], [F(1, 3), 0]]))
    with pytest.raises(LinalgError):
        HermitianMatrix(np.array([[2 ** 60 + 32, 1], [1, 0]]), den=3)


def test_entries_past_the_bound_raise():
    big = HermitianMatrix(np.array([[2 ** 53]]))
    assert big.entry(0, 0) == 2 ** 53
    with pytest.raises(LinalgError):
        HermitianMatrix(np.array([[2 ** 53 + 1]]))
    with pytest.raises(LinalgError):
        HermitianMatrix([[1]], den=2 ** 53 + 1)
    with pytest.raises(LinalgError):
        HermitianMatrix([[2 ** 63]])  # unsigned input
    with pytest.raises(LinalgError):
        HermitianMatrix([[2 ** 70]], den=3)  # object input
    with pytest.raises(LinalgError):
        HermitianMatrix([[1]], den=2 ** 63)
    a = HermitianMatrix(np.array([[2 ** 40]]))
    assert a.scale(2 ** 13).entry(0, 0) == 2 ** 53
    for op in (lambda: a.scale(2 ** 14), lambda: kron(a, a),
               lambda: a.conjugate_by(np.array([[2 ** 20]])),
               lambda: HermitianMatrix([[1]]).scale(F(1, 2 ** 63)),
               lambda: big + big,
               lambda: exact_projector([2 ** 31, 2 ** 31])):
        with pytest.raises(LinalgError):
            op()
    assert (a + a).entry(0, 0) == 2 ** 41


def test_bounds_apply_after_reduction():
    # each unreduced result passes 2**53, each reduced one does not
    scaled = HermitianMatrix([[1]], den=2 ** 52).scale(2 ** 60)
    assert scaled.den == 1 and scaled.entry(0, 0) == 256
    big = HermitianMatrix(np.array([[2 ** 53]]))
    assert (big + HermitianMatrix(np.array([[2 - 2 ** 53]]))).entry(0, 0) == 2
    assert (big - HermitianMatrix(np.array([[2 ** 53 - 2]]))).entry(0, 0) == 2
    kr = kron(HermitianMatrix([[2 ** 40]], den=3 ** 5), HermitianMatrix([[3 ** 5 * 2 ** 10]]))
    assert kr.den == 1 and kr.entry(0, 0) == 2 ** 50
    proj = exact_projector([2 ** 27, 2 ** 27])
    assert_matches(proj, fraction_array([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]))


wide = st.one_of(st.integers(-60, 60), st.integers(-2 ** 53, 2 ** 53),
                 st.sampled_from([2 ** k for k in range(24, 54)]))


@st.composite
def wide_matrix(draw, n):
    """A symmetric exact matrix with numerators and denominator up to 2**53."""
    num = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i, n):
            num[i, j] = num[j, i] = draw(wide)
    den = draw(st.one_of(st.integers(1, 60), st.integers(1, 2 ** 53)))
    return HermitianMatrix(num, den=den)


def reference(h: HermitianMatrix) -> np.ndarray:
    return fraction_array([[F(x, h.den) for x in row] for row in h.num.tolist()])


def max_num(h: HermitianMatrix) -> int:
    return int(np.abs(h.num).max())


def assert_op(pre: int, ref: np.ndarray, op) -> None:
    if refused(pre, ref):
        with pytest.raises(LinalgError):
            op()
    else:
        assert_matches(op(), ref)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_refusals_follow_the_documented_rule(data, n):
    a, b = data.draw(wide_matrix(n)), data.draw(wide_matrix(n))
    ra, rb = reference(a), reference(b)
    den = math.lcm(a.den, b.den)
    pre = max_num(a) * (den // a.den) + max_num(b) * (den // b.den)
    assert_op(pre, ra + rb, lambda: a + b)
    assert_op(pre, ra - rb, lambda: a - b)
    s = F(data.draw(wide), data.draw(st.one_of(st.integers(1, 60), st.integers(1, 2 ** 53))))
    assert_op(max(max_num(a), 1) * abs(s.numerator), ra * s, lambda: a.scale(s))
    c = data.draw(wide_matrix(data.draw(st.integers(1, 2))))
    assert_op(max_num(a) * max_num(c), np.kron(ra, reference(c)), lambda: kron(a, c))
    vec = data.draw(st.lists(st.builds(F, wide, st.integers(1, 2 ** 20)),
                             min_size=1, max_size=4).filter(any))
    v = fraction_array([vec])[0]
    v_num, _ = common_parts([vec])
    assert_op(max(abs(x) for x in v_num[0]) ** 2 * len(vec),
              np.outer(v, v) / sum(x * x for x in v), lambda: exact_projector(v_num[0]))


def test_object_and_float_operands_are_refused():
    # none becomes a float matrix, and astype(np.int64) would truncate each
    # Fraction: the vector (3/2, -1/3) would give the projector onto (1, 0)
    for rows in (fraction_array([[F(1, 2), 0], [0, F(1, 2)]]), [[2 ** 70]],
                 np.eye(2, dtype=np.int64).astype(object)):
        with pytest.raises(LinalgError):
            HermitianMatrix(rows)
    h = HermitianMatrix([[2, -1], [-1, 2]], den=4)
    for m in (fraction_array([[F(1, 2), 0], [0, 1]]), np.array([[0.5, 0.0], [0.0, 1.0]])):
        with pytest.raises(LinalgError):
            h.conjugate_by(m)
    for vec in ([F(3, 2), F(-1, 3)], [1.5, -1.0]):
        with pytest.raises(LinalgError):
            exact_projector(vec)
    # a float matrix is refused at construction, so no operand is inexact
    for rows in (h.to_real(), h.to_real().astype(complex)):
        with pytest.raises(LinalgError, match="must be integers"):
            HermitianMatrix(rows)
    with pytest.raises(LinalgError):
        h.scale(0.5)
