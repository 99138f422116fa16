"""Kernel-level properties of the exact linear algebra."""

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from goverify import arith
from goverify.arith import (ContractViolation, ExactComputationError, Inconsistent,
                            Solution, q, qarray)
from goverify.lie import build_classical
from goverify.subspaces import Subspace
from oracles import bareiss, fmatmul, fractions, fzeros, positive_definite, random_element

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def matrices(max_dim=12):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda m: st.lists(st.lists(small_fractions, min_size=m, max_size=m),
                               min_size=n, max_size=n)))


def test_solve_identity():
    sol = arith.solve_linear(np.eye(3, dtype=np.int64), qarray([1, 2, 3]))
    assert isinstance(sol, Solution)
    assert list(sol.x) == [1, 2, 3]
    assert sol.nullspace.shape == (0, 3)


def test_solve_zero_matrix():
    sol = arith.solve_linear(np.zeros((2, 2), dtype=np.int64), qarray([0, 0]))
    assert isinstance(sol, Solution)
    assert list(sol.x) == [0, 0]
    assert sol.nullspace.shape == (2, 2)


def test_solve_inconsistent_rank_gap():
    # column span of the all-ones matrix misses (1, 0)
    out = arith.solve_linear(qarray([[1, 1], [1, 1]]), qarray([1, 0]))
    assert isinstance(out, Inconsistent)
    assert out.rank_a == 1 and out.rank_ab == 2


def test_rank_examples():
    assert arith.rank_exact(np.eye(4, dtype=np.int64)) == 4
    assert arith.rank_exact(np.zeros((3, 3), dtype=np.int64)) == 0
    assert arith.rank_exact(qarray([[1, 2], [2, 4]])) == 1


def test_shape_mismatch_raises():
    with pytest.raises(ContractViolation):
        arith.solve_linear(np.eye(3, dtype=np.int64), qarray([1, 2]))


def test_float_rejected_as_scalar():
    with pytest.raises(ContractViolation):
        q(0.5)


def test_scaled_has_no_implicit_array_form():
    """A Scaled value is not array-like: ``np.asarray`` and NumPy functions that
    convert their operands raise, and callers read ``ints`` and ``scale``."""
    value = arith.Scaled(np.array([1, 2]), 3)
    for convert in (np.asarray, np.array, lambda v: np.dot(v, v)):
        with pytest.raises(TypeError, match="no implicit array form"):
            convert(value)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solvability_iff_rank_equality(rows, data):
    """Solution exists iff rank(A) equals rank of the augmented matrix."""
    a = qarray(rows)
    b = qarray(data.draw(st.lists(small_fractions, min_size=a.shape[0], max_size=a.shape[0])))
    aug = np.concatenate([a, b[:, None]], axis=1)
    out = arith.solve_linear(a, b)
    if arith.rank_exact(a) == arith.rank_exact(aug):
        assert isinstance(out, Solution)
        assert arith.is_zero(fmatmul(a, out.x) - b)
    else:
        assert isinstance(out, Inconsistent)
        assert out.rank_a < out.rank_ab


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_nullspace_dimension_and_membership(rows):
    a = qarray(rows)
    null = arith.nullspace_exact(a)
    assert null.shape[0] == a.shape[1] - arith.rank_exact(a)
    if null.shape[0]:
        assert arith.is_zero(fmatmul(a, null.T))
        assert arith.rank_exact(null) == null.shape[0]


@settings(max_examples=40, deadline=None)
@given(matrices(8))
def test_backend_agreement_rank(rows):
    """Bareiss rank equals the rank of the Fraction Gauss-Jordan reference."""
    a = qarray(rows)
    assert arith.rank_exact(a) == len(_reference_rref(a)[1])


@settings(max_examples=40, deadline=None)
@given(matrices(8), st.data())
def test_backend_agreement_solvability(rows, data):
    """The integer solve and the Fraction Gauss-Jordan reference agree on solvability."""
    a = qarray(rows)
    b = qarray(data.draw(st.lists(small_fractions, min_size=a.shape[0], max_size=a.shape[0])))
    (kind, *_), _ = _reference_solve(a, b)
    assert isinstance(arith.solve_linear(a, b), Solution) == (kind == "solution")


def test_nullspace_hybrid_path_matches_direct():
    # force the modular path with a tall structured system of known nullity
    rng = np.random.RandomState(11)
    base = qarray(rng.randint(-3, 4, size=(6, 40)))
    stack = np.concatenate([base * q(i + 1) for i in range(40)], axis=0)
    null = arith.nullspace_exact(stack)
    assert null.shape[0] == 40 - arith.rank_exact(base)
    assert arith.is_zero(fmatmul(stack, null.T))


# -- eigenspaces as primary components -------------------------------------------

def _eigenspaces(matrix):
    """``(eigenvalue, basis rows)`` sorted by eigenvalue: the primary components of a
    matrix with rational spectrum, whose minimal polynomial has only linear factors."""
    out = []
    for factor, basis in arith.primary_invariant_split(matrix):
        assert len(factor) == 2, factor
        out.append((Fraction(-factor[1], factor[0]), basis))
    return sorted(out, key=lambda pair: pair[0])


def test_eigenspaces_scalar_operator():
    out = _eigenspaces(5 * np.eye(4, dtype=np.int64))
    assert len(out) == 1
    value, basis = out[0]
    assert value == 5 and basis.shape[0] == 4


def test_eigenspaces_diag():
    out = _eigenspaces(qarray([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
    assert [(v, b.shape[0]) for v, b in out] == [(1, 2), (2, 1)]


def test_eigenspaces_respects_form():
    # operator self-adjoint for a non-trivial diagonal form: form @ op is symmetric
    op = qarray([[1, 1], [2, 2]])  # spectrum {0, 3}
    out = _eigenspaces(op)
    assert [v for v, _ in out] == [0, 3] and sum(b.shape[0] for _, b in out) == 2
    for value, basis in out:
        for row in basis:
            assert arith.is_zero(fmatmul(op, row) - value * fractions(row))


@settings(max_examples=30, deadline=None)
@given(st.lists(small_fractions, min_size=2, max_size=6))
def test_eigenspace_reconstruction(diag_values):
    """Sum of eigenvalue times projector reproduces the operator exactly."""
    n = len(diag_values)
    s = fzeros((n, n))
    for i, v in enumerate(diag_values):
        s[i, i] = v
    recon = fzeros((n, n))
    for value, basis in _eigenspaces(s):
        basis = fractions(basis)
        gram = np.dot(basis, basis.T)
        rows, pivots = _reference_rref(np.concatenate(
            [gram, fractions(np.eye(basis.shape[0], dtype=np.int64))], axis=1))
        inv = qarray([row[basis.shape[0]:] for row in rows])
        recon = recon + value * np.dot(basis.T, np.dot(inv, basis))
    assert arith.is_zero(recon - s)


def test_minimal_polynomial_and_primary_split():
    c = qarray([[0, 1], [1, 0]])
    poly = arith.minimal_polynomial_exact(c)
    assert len(poly) - 1 == 2
    parts = arith.primary_invariant_split(c)
    assert sorted(p.shape[0] for _, p in parts) == [1, 1]
    # irrational pair stays one rational-primary component
    parts = arith.primary_invariant_split(qarray([[0, 2], [1, 0]]))
    assert len(parts) == 1 and parts[0][1].shape[0] == 2


def test_positive_definite_exact():
    assert arith.is_positive_definite_exact(qarray([[2, 1], [1, 2]]))
    assert not arith.is_positive_definite_exact(qarray([[1, 2], [2, 1]]))
    assert not arith.is_positive_definite_exact(np.zeros((2, 2), dtype=np.int64))


def test_rational_reconstruction_roundtrip():
    for frac in (Fraction(3, 7), Fraction(-22, 9), Fraction(12345, 67)):
        residue = frac.numerator * pow(frac.denominator, arith._P - 2, arith._P) % arith._P
        assert arith._rational_reconstruct(residue, arith._P) == (frac.numerator, frac.denominator)


def test_reconstruct_gives_each_system_its_own_least_denominator():
    """A stack of three systems over one residue table: 1/2 and 3, then 1/3 and
    2/9, then 40000/40001, whose numerator and denominator pass sqrt(_P/2)."""
    def residue(n, d):
        return n * pow(d, -1, arith._P) % arith._P
    stack = np.array([[residue(1, 2), 3], [residue(1, 3), residue(2, 9)],
                      [residue(40000, 40001), residue(1, 2)]])
    ints, scales = arith._reconstruct(stack, arith._P)
    assert scales == [2, 9, None]
    assert ints.tolist() == [[1, 6], [3, 2], [0, 0]]


def test_nullspace_python_int_check_matches_int64(monkeypatch):
    rng = np.random.RandomState(11)
    base = rng.randint(-3, 4, size=(6, 40))
    stack = np.concatenate([base * (i + 1) for i in range(40)], axis=0).astype(np.int64)
    # same nullspace, entries past int64 range that a float product would round
    huge = stack.astype(object) * 3**45
    plain = arith.nullspace_exact(stack)
    dtypes = []
    product = arith.Scaled.__matmul__

    def recording_matmul(a, b):
        dtypes.append(a.ints.dtype)
        return product(a, b)

    monkeypatch.setattr(arith.Scaled, "__matmul__", recording_matmul)
    scaled = arith.nullspace_exact(huge)
    assert dtypes == [object]  # the modular candidate was checked on Python ints
    assert plain.shape == (40 - arith.rank_exact(base), 40)
    assert scaled.shape == plain.shape and arith.is_zero(scaled - plain)


# -- blocked modular elimination ----------------------------------------------

def _scalar_modp_pivots(mat, monkeypatch):
    """The one-pivot-at-a-time loop: a panel wider than any test matrix."""
    with monkeypatch.context() as patched:
        patched.setattr(arith, "_PANEL", 10**9)
        return arith._modp_pivots(mat)


def _rank_deficient(rng):
    return rng.randint(-3, 4, size=(180, 40)) @ rng.randint(-3, 4, size=(40, 210))


def _pivotless_panel(rng):
    """Columns 64..127 are combinations of columns 0..63: no pivot in panel two."""
    first = rng.randint(-3, 4, size=(160, 64))
    return np.concatenate([first, first @ rng.randint(-2, 3, size=(64, 64)),
                           rng.randint(-3, 4, size=(160, 70))], axis=1)


@pytest.mark.parametrize("build", [
    _rank_deficient,
    _pivotless_panel,
    lambda rng: rng.randint(-5, 6, size=(100, 250)),                # rows run out mid-panel
    lambda rng: rng.randint(-2**40, 2**40, size=(150, 200), dtype=np.int64),
    lambda rng: rng.randint(-5, 6, size=(130, 140)).astype(object) * (2**70 + 1),
], ids=["rank-deficient", "pivotless-panel", "wide", "int64-large", "python-int"])
def test_panel_elimination_matches_scalar_loop(build, monkeypatch):
    mat = build(np.random.RandomState(5))
    assert mat.shape[1] > 2 * arith._PANEL
    rank, piv_cols, reduced = arith._modp_pivots(mat)
    ref_rank, ref_cols, ref_reduced = _scalar_modp_pivots(mat, monkeypatch)
    assert (rank, piv_cols) == (ref_rank, ref_cols)
    assert np.array_equal(reduced, ref_reduced) and not reduced[rank:].any()
    if build is _rank_deficient:
        assert rank == 40
    if build is _pivotless_panel:
        assert not [c for c in piv_cols if 64 <= c < 128]


def test_mulmod_exact_at_its_bound():
    assert arith._PANEL * (arith._P - 1) * 0xFFFF < 2**53
    rng = np.random.RandomState(7)
    a = rng.randint(arith._P - 2**20, arith._P, size=(5, arith._PANEL), dtype=np.int64)
    a[0] = arith._P - 1
    b = np.full((arith._PANEL, 9), arith._P - 1, dtype=np.int64)
    expected = (a.astype(object) @ b.astype(object)) % arith._P
    assert np.array_equal(arith._mulmod(a, b), expected.astype(np.int64))
    with pytest.raises(ContractViolation):
        arith._mulmod(np.ones((1, arith._PANEL + 1), dtype=np.int64),
                      np.ones((arith._PANEL + 1, 1), dtype=np.int64))


def test_matmul_modp_exact_past_one_panel():
    inner = 2 * arith._PANEL + 1
    a = np.full((3, inner), arith._P - 1, dtype=np.int64)
    b = np.full((inner, 4), arith._P - 1, dtype=np.int64)
    b[inner // 2] = np.arange(4)
    expected = (a.astype(object) @ b.astype(object)) % arith._P
    assert np.array_equal(arith.matmul_modp(a, b), expected.astype(np.int64))
    stack = np.stack([b, b[::-1]])        # stacked maps, multiplied on either side
    for left, right in ((a, stack), (stack.transpose(0, 2, 1), b)):
        expected = (left.astype(object) @ right.astype(object)) % arith._P
        assert np.array_equal(arith.matmul_modp(left, right), expected.astype(np.int64))


# -- fraction-free integer solve and rank ---------------------------------------

def _reference_rref(mat):
    """Plain Fraction Gauss-Jordan: (all rows, the rref's nonzero ones first; pivot columns)."""
    rows = fractions(mat).tolist()
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        pr = next((i for i in range(len(pivots), len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        r = len(pivots)
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                rows[i] = [v - rows[i][c] * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _reference_nullspace(mat):
    """Nullspace rows read off the reference rref of ``mat``."""
    return _nullspace_rows(*_reference_rref(mat), fractions(mat).shape[1])


def _nullspace_rows(rows, pivots, ncols):
    """One nullspace row per free column among the first ``ncols`` of an rref."""
    null = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        null.append(vec)
    return null


def _reference_inverse(mat):
    """Inverse of a square rational matrix from the reference rref of ``[M | I]``."""
    n = len(mat)
    rows, _ = _reference_rref(np.concatenate([fractions(mat), fractions(np.eye(n, dtype=np.int64))],
                                             axis=1))
    return qarray([row[n:] for row in rows])


def _cleared(fracs) -> tuple[list, int]:
    """``(ints, scale)`` of a 2-d Fraction array: its least common denominator
    ``scale`` and the integer rows (nested lists) of ``scale`` times it."""
    scale = math.lcm(*(v.denominator for v in fracs.reshape(-1)))
    return [[int(v * scale) for v in row] for row in fracs.tolist()], scale


def _reference_solve(A, b):
    """Plain Fraction Gauss-Jordan on [A | b]: ('inconsistent', rank_a, rank_ab),
    or ('solution', x with free variables 0, nullspace rows), and the rank of A."""
    rows, pivots = _reference_rref(np.concatenate([A, b[:, None]], axis=1))
    ncols = A.shape[1]
    rank_a = len([c for c in pivots if c < ncols])
    if ncols in pivots:
        return ("inconsistent", rank_a, len(pivots)), rank_a
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][ncols]
    return ("solution", x, _nullspace_rows(rows, pivots, ncols)), rank_a


def _as_tuple(out):
    if isinstance(out, Inconsistent):
        return ("inconsistent", out.rank_a, out.rank_ab)
    return ("solution", list(out.x), fractions(out.nullspace).tolist())


def _random_system(rng, kind):
    """A rational system A x = b of the named kind, up to 9 x 9."""
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    inner = rng.randint(0, min(nrows, ncols) - (kind == "rank-deficient"))
    left = [[Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 7])) for _ in range(inner)]
            for _ in range(nrows)]
    right = [[Fraction(rng.randint(-6, 6)) for _ in range(ncols)] for _ in range(inner)]
    A = fzeros((nrows, ncols)) + (np.dot(qarray(left), qarray(right)) if inner else 0)
    if kind == "zero-columns":
        A[:, rng.sample(range(ncols), rng.randint(1, ncols))] = Fraction(0)
    if kind == "negative-pivots":
        A[:, 0] = [-abs(v) - 1 for v in A[:, 0]]
    if kind == "past-int64":
        A = A * Fraction(3**45, 11)
    if kind == "inconsistent":
        b = qarray([rng.randint(-5, 5) for _ in range(nrows)])
    else:
        b = np.dot(A, qarray([rng.randint(-3, 3) for _ in range(ncols)]))
    return A, b


@pytest.mark.parametrize("kind", ["rank-deficient", "inconsistent", "zero-columns",
                                  "negative-pivots", "past-int64"])
def test_integer_solve_and_rank_match_fraction_reference(kind):
    rng = random.Random(kind)
    for _ in range(150):
        A, b = _random_system(rng, kind)
        expected, rank_a = _reference_solve(A, b)
        assert _as_tuple(arith.solve_linear(A, b)) == expected
        assert arith.rank_exact(A) == rank_a
        rows, pivots = arith.rref_exact(A)
        ref_rows, ref_pivots = _reference_rref(A)
        assert pivots == ref_pivots and fractions(rows).tolist() == ref_rows[:len(pivots)]
        # the integer entry point, each row of [A | b] with its own scale
        aug = arith.Scaled.of(np.concatenate([A, b[:, None]], axis=1)).ints.astype(object)
        aug = aug * np.array([[rng.randint(1, 4)] for _ in range(A.shape[0])], dtype=object)
        assert _as_tuple(arith.solve_int(aug)) == expected


def test_integer_solve_without_columns_or_rows():
    def zeros(shape):
        return np.zeros(shape, dtype=np.int64)

    assert _as_tuple(arith.solve_linear(zeros((3, 0)), qarray([0, 0, 0]))) == ("solution", [], [])
    assert _as_tuple(arith.solve_linear(zeros((2, 0)), qarray([0, 1]))) == ("inconsistent", 0, 1)
    out = arith.solve_linear(zeros((0, 2)), zeros(0))
    assert list(out.x) == [0, 0] and arith.is_zero(out.nullspace - np.eye(2, dtype=np.int64))
    assert arith.rank_exact(zeros((0, 3))) == 0 and arith.rank_exact(zeros((3, 3))) == 0


def test_gauss_jordan_pivot_rows_are_det_times_rref():
    rng = np.random.RandomState(3)
    mat = rng.randint(-9, 10, size=(7, 4)) @ rng.randint(-9, 10, size=(4, 9))
    mat[:, 2] = 0
    rows = mat.tolist()
    pivots, det = arith._eliminate_int(rows, reduce_above=True)
    ref_rows, ref_pivots = _reference_rref(mat.astype(object))
    assert pivots == ref_pivots and len(pivots) == 4
    for r in range(len(pivots)):
        assert rows[r] == [v * det for v in ref_rows[r]]
    assert not any(any(row) for row in rows[len(pivots):])


def _elimination_input(rng, kind):
    """An integer matrix (lists of Python ints) of the named kind, up to 9 x 9."""
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
    if kind == "diagonal":
        rows = [[rng.choice([-1, 1]) * rng.randint(1, 30) * (i == j) for j in range(ncols)]
                for i in range(nrows)]
    if kind == "block-sparse":
        cut_r, cut_c = rng.randint(0, nrows), rng.randint(0, ncols)
        rows = [[v if (i < cut_r) == (j < cut_c) else 0 for j, v in enumerate(row)]
                for i, row in enumerate(rows)]
    if kind == "zero-columns":
        for j in rng.sample(range(ncols), rng.randint(1, ncols)):
            for row in rows:
                row[j] = 0
    if kind == "rank-deficient":
        inner = rng.randint(0, min(nrows, ncols) - 1)
        left = [[rng.randint(-5, 5) for _ in range(inner)] for _ in range(nrows)]
        right = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(inner)]
        rows = [[sum(a * b for a, b in zip(l, col)) for col in zip(*right)] if inner else [0] * ncols
                for l in left]
    if kind == "negative-pivots":
        for row in rows:
            row[0] = -abs(row[0]) - 1
    if kind == "past-int64":
        rows = [[v * 3**40 for v in row] for row in rows]
    return rows


def _direction(row):
    """The row divided by its first nonzero entry (None for a zero row)."""
    lead = next((v for v in row if v), None)
    return None if lead is None else [Fraction(v, lead) for v in row]


@pytest.mark.parametrize("kind", ["dense", "diagonal", "block-sparse", "zero-columns",
                                  "rank-deficient", "negative-pivots", "past-int64"])
def test_primitive_elimination_matches_bareiss(kind):
    """Forward and Gauss-Jordan, the primitive-row elimination has Bareiss's
    pivots and, row by row, the same rational rows up to scale, with no
    larger entry; Gauss-Jordan leaves ``det * rref`` for the positive
    ``det``, the lcm of the pivot entries."""
    rng = random.Random(kind)
    for _ in range(100):
        mat = _elimination_input(rng, kind)
        ref_rows, ref_pivots = _reference_rref(np.array(mat, dtype=object))
        for reduce_above in (False, True):
            rows, oracle = [list(r) for r in mat], [list(r) for r in mat]
            pivots, det = arith._eliminate_int(rows, reduce_above)
            assert pivots == bareiss(oracle, reduce_above)[0] == ref_pivots
            assert det > 0 and all(det % rows[r][c] == 0 for r, c in enumerate(pivots))
            assert [_direction(r) for r in rows] == [_direction(r) for r in oracle]
            assert max((abs(v) for r in rows for v in r), default=0) <= max(
                (abs(v) for r in oracle for v in r), default=0)
            if reduce_above:
                assert rows[:len(pivots)] == [[v * det for v in r] for r in ref_rows[:len(pivots)]]
                assert not any(any(r) for r in rows[len(pivots):])


def test_forward_elimination_leaves_rows_with_zero_head_untouched():
    """On a diagonal matrix no row has a nonzero head below a pivot, so forward
    elimination changes no row, where Bareiss rescales every row at every pivot."""
    mat = [[3 * (i == j) * (i + 2) for j in range(6)] for i in range(6)]
    rows, oracle = [list(r) for r in mat], [list(r) for r in mat]
    pivots, det = arith._eliminate_int(rows, reduce_above=False)
    assert pivots == bareiss(oracle, reduce_above=False)[0] == list(range(6))
    assert rows == mat and det == math.lcm(*(3 * (i + 2) for i in range(6)))
    assert oracle != mat


# -- Bareiss paths of nullspace_exact, against the Fraction reference -----------

def _record(monkeypatch, name, probe=lambda *args, **kwargs: None):
    """Wrap ``arith.<name>``; each call appends ``(probe(*args), result)``."""
    calls = []
    original = getattr(arith, name)

    def wrapper(*args, **kwargs):
        seen = probe(*args, **kwargs)
        out = original(*args, **kwargs)
        calls.append((seen, out))
        return out

    monkeypatch.setattr(arith, name, wrapper)
    return calls


def _rows_and_max(work, reduce_above):
    return len(work), max(abs(v) for row in work for v in row)


@pytest.fixture(scope="module")
def so9_rank_system():
    """The system ``ad(h)`` on all of so(9) for the first pseudo-random element
    ``h`` of the stream ``rank:0:36``, which the rank estimate drew before it
    took a greedy abelian basis: 36 x 36, nullity 4, nullspace entries near 55
    bits.  No rank estimate reaches this system any more; it stays as a fixed
    kernel with large entries."""
    full = Subspace.full(build_classical("so", 9))
    element = random_element(full, random.Random(f"rank:0:{full.dim}"))
    return full.algebra.contract(element) @ full.basis.T


def _modulus(residues, modulus):
    return modulus


def _lifted(out):
    """The one system of a stacked ``_reconstruct`` result: a Scaled, or None when it failed."""
    ints, (scale,) = out
    return None if scale is None else arith.Scaled(ints[0], scale)


def test_reconstruction_mod_p_needs_no_second_prime(monkeypatch):
    rng = np.random.RandomState(11)
    base = rng.randint(-3, 4, size=(6, 40))
    stack = np.concatenate([base * (i + 1) for i in range(40)], axis=0)
    reconstructions = _record(monkeypatch, "_reconstruct", _modulus)
    screens = _record(monkeypatch, "_modp_pivots")
    eliminations = _record(monkeypatch, "_eliminate_int", _rows_and_max)
    null = arith.nullspace_exact(stack)
    assert [(m, _lifted(out) is None) for m, out in reconstructions] == [(arith._P, False)]
    assert len(screens) == 1 and eliminations == []
    assert fractions(null).tolist() == _reference_nullspace(stack)


def _lift_rows(system):
    """The rows the p-adic lift takes: the first ones independent mod ``_P``
    on the pivot columns, and ``2 H**2`` for the Hadamard bound ``H`` of them."""
    ints = arith.Scaled.of(system).ints
    cols = arith._modp_pivots(ints)[1]
    rows = arith._modp_pivots(ints[:, cols].T)[1]
    return rows, 2 * math.prod(sum(v * v for v in row) for row in ints[rows].tolist())


@pytest.mark.parametrize("scale", [1, 3**45])
def test_failed_reconstruction_mod_p_lifts_p_adically(so9_rank_system, scale, monkeypatch):
    system = so9_rank_system * scale
    reconstructions = _record(monkeypatch, "_reconstruct", _modulus)
    screens = _record(monkeypatch, "_modp_pivots", lambda mat: mat.shape)
    eliminations = _record(monkeypatch, "_eliminate_int", _rows_and_max)
    null = arith.nullspace_exact(system)
    # the kernel mod p, then the lift mod p**2 and p**4: 55-bit entries need more than 110 bits
    assert [m for m, _ in reconstructions] == [arith._P, arith._P**2, arith._P**4]
    assert [_lifted(out) is None for _, out in reconstructions] == [True, True, False]
    # one screen of the system and one of its pivot columns, transposed, to pick the rows
    assert [shape for shape, _ in screens] == [(36, 36), (32, 36)]
    assert eliminations == []
    assert fractions(null).tolist() == _reference_nullspace(so9_rank_system)
    bound = math.isqrt(arith._P // 2)
    assert max(max(abs(v.numerator), v.denominator) for v in fractions(null).reshape(-1)) > bound


def test_lift_past_1000_bits_runs_no_bareiss(monkeypatch):
    """A dense 40 x 42 system with 31-bit entries: its kernel needs more than
    1,000 bits, past any fixed table of primes below ``2**31``."""
    mat = np.random.RandomState(3).randint(-2**30, 2**30, size=(40, 42), dtype=np.int64)
    expected = arith._nullspace_int(mat.tolist(), 42)
    eliminations = _record(monkeypatch, "_eliminate_int", _rows_and_max)
    null = arith.nullspace_exact(mat)
    assert eliminations == []
    assert null.shape == (2, 42) and null.equals(expected)
    assert max(max(abs(v.numerator), v.denominator).bit_length()
               for v in fractions(null).reshape(-1)) > 1_000


def _pivots_move_at(system, p):
    """``system`` beside the block ``[[p, 1]]``: the same rank over the
    rationals and mod ``p``, whose pivot moves from column 36 to 37 mod ``p``."""
    ints = system.ints
    out = np.zeros((ints.shape[0] + 1, ints.shape[1] + 2), dtype=np.int64)
    out[:-1, :-2] = ints
    out[-1, -2:] = (p, 1)
    return out


def test_pivot_columns_moved_mod_p_run_bareiss_on_all_rows(so9_rank_system, monkeypatch):
    """Beside the block ``[[p, 1]]`` the last pivot moves from column 36 to 37
    mod ``p``: the lifted kernel solves every row, but its row for column 36 is
    nonzero on column 37, so it is not the canonical basis and Bareiss runs."""
    mat = _pivots_move_at(so9_rank_system, arith._P)
    reconstructions = _record(monkeypatch, "_reconstruct", _modulus)
    eliminations = _record(monkeypatch, "_eliminate_int", _rows_and_max)
    null = arith.nullspace_exact(mat)
    candidate = _lifted(reconstructions[-1][1])
    assert candidate is not None and not np.any((arith.Scaled(mat) @ candidate.T).ints)
    assert [rows for (rows, _), _ in eliminations] == [37]
    assert fractions(null).tolist() == _reference_nullspace(mat)


@pytest.mark.parametrize("scale", [1, 3**45])
def test_failed_lift_runs_bareiss_on_all_rows(so9_rank_system, scale, monkeypatch):
    """When no reconstruction succeeds, the lift runs until ``p**k`` passes
    ``2 H**2`` and Bareiss runs once, on all 36 rows."""
    system = so9_rank_system * scale
    _, limit = _lift_rows(system)
    monkeypatch.setattr(arith, "_rational_reconstruct", lambda a, modulus: None)
    reconstructions = _record(monkeypatch, "_reconstruct", _modulus)
    eliminations = _record(monkeypatch, "_eliminate_int", _rows_and_max)
    null = arith.nullspace_exact(system)
    moduli = [m for m, _ in reconstructions]
    last = next(k for k in range(1, 10**4) if arith._P**k > limit)
    powers = [2**i for i in range(1, last.bit_length()) if 2**i < last]
    assert moduli == [arith._P**k for k in (1, *powers, last)]    # last: the first past 2 H**2
    assert [rows for (rows, _), _ in eliminations] == [36]
    biggest = eliminations[0][0][1]
    assert biggest >= 2**63 if scale != 1 else biggest < 2**63
    assert fractions(null).tolist() == _reference_nullspace(so9_rank_system)


def test_rank_drop_mod_p_runs_bareiss_on_all_rows(monkeypatch):
    """The first lifted candidate solves the 29 rows independent mod ``_P``
    but not row 29, which proves that the rank dropped mod ``_P``: the lift
    stops there and Bareiss runs on all rows."""
    rng = np.random.RandomState(5)
    mat = rng.randint(-9, 10, size=(30, 50))
    mat[29] = mat[0]
    mat[29, 7] += arith._P            # equal to row 0 mod p, independent over the rationals
    assert mat.size > 1_200
    lift_rows, _ = _lift_rows(mat)
    screens = _record(monkeypatch, "_modp_pivots")
    reconstructions = _record(monkeypatch, "_reconstruct", _modulus)
    eliminations = _record(monkeypatch, "_eliminate_int", _rows_and_max)
    null = arith.nullspace_exact(mat)
    assert [out[0] for _, out in screens] == [29, 29] and lift_rows == list(range(29))
    candidate = _lifted(reconstructions[-1][1])
    assert [_lifted(out) is None for _, out in reconstructions[:-1]] == [True] * (len(reconstructions) - 1)
    residual = (arith.Scaled(mat) @ candidate.T).ints
    assert not np.any(residual[:29]) and np.any(residual[29])
    assert [rows for (rows, _), _ in eliminations] == [30]
    assert null.shape == (20, 50) and fractions(null).tolist() == _reference_nullspace(mat)


def test_small_nullspace_runs_bareiss_directly(monkeypatch):
    rng = random.Random("small")
    systems = [_random_system(rng, kind)[0] for kind in
               ("rank-deficient", "zero-columns", "negative-pivots", "past-int64") for _ in range(10)]
    screens = _record(monkeypatch, "_modp_pivots")
    eliminations = _record(monkeypatch, "_eliminate_int", _rows_and_max)
    for A in systems:
        assert fractions(arith.nullspace_exact(A)).tolist() == _reference_nullspace(A)
    assert screens == [] and len(eliminations) == len(systems)


# -- the stacked consistency screen -----------------------------------------------

def _random_stack(rng, nsys, nrows, ncols):
    """``(nsys, nrows, ncols + 1)`` augmented systems: consistent ones with integer
    or rational solutions, rank-deficient ones, and ones whose last equation
    repeats the first with another right-hand side."""
    stack = np.zeros((nsys, nrows, ncols + 1), dtype=np.int64)
    for n in range(nsys):
        a = rng.randint(-3, 4, size=(nrows, ncols))
        if n % 4 == 1 and ncols > 1:
            a[:, -1] = 2 * a[:, 0] - a[:, 1]
        x = rng.randint(-3, 4, size=ncols)
        b = a @ x
        if n % 4 == 3:
            a[-1], b[-1] = a[0], b[0] + 1
        stack[n, :, :-1] = a * (rng.randint(1, 4) if n % 4 == 2 else 1)   # x / d solves it
        stack[n, :, -1] = b
    return stack


def _same_span(a, b):
    """Whether the rows of two rational matrices span the same space."""
    both = arith.Scaled.concat([arith.Scaled.of(a), arith.Scaled.of(b)])
    return arith.rank_exact(a) == arith.rank_exact(b) == arith.rank_exact(both)


@pytest.mark.parametrize("scale", [1, 3**40])
def test_solve_stack_matches_the_exact_solve(scale):
    """Every system up to the first inconsistent one gets :func:`solve_int`'s
    answer: its x and a nullspace of the same span, or its rank gap; every
    system after it is undecided.  These small systems keep their minors far
    below ``_P``, so nothing before the first inconsistent one is undecided."""
    rng = np.random.RandomState(17)
    counts = Counter()
    for _ in range(60):
        shape = rng.randint(0, 7), rng.randint(1, 7), rng.randint(0, 5)
        aug = _random_stack(rng, *shape)
        aug = aug if scale == 1 else aug.astype(object) * scale
        out = arith.solve_stack(aug, True)
        bare = arith.solve_stack(aug, False)
        assert len(out) == len(bare) == shape[0]
        stopped = False
        for n in range(shape[0]):
            sol = arith.solve_int(aug[n])
            counts[type(out[n]).__name__] += 1
            if stopped:
                assert out[n] is None and bare[n] is None
            elif isinstance(out[n], Inconsistent):
                assert _as_tuple(out[n]) == _as_tuple(sol) == _as_tuple(bare[n])
                stopped = True
            else:
                assert isinstance(out[n], Solution) and isinstance(sol, Solution)
                assert out[n].x.equals(sol.x) and bare[n].x.equals(sol.x)
                assert out[n].nullspace.shape == sol.nullspace.shape and bare[n].nullspace is None
                assert _same_span(out[n].nullspace, sol.nullspace)
    assert min(counts[k] for k in ("Solution", "Inconsistent", "NoneType")) > 20


def test_solve_stack_lifts_only_up_to_the_first_inconsistent_system(monkeypatch):
    """A system inconsistent mod ``_P`` gets the exact solve; the stack goes on
    past it only when that solve succeeds (a pivot divisible by ``_P``), and
    nothing after an exactly inconsistent system is lifted."""
    lifted = _record(monkeypatch, "_lift_solutions", lambda aug, *_: len(aug))
    rank_drop = [[arith._P, 0, 1], [0, 1, 2]]            # x = (1/_P, 2): inconsistent mod p
    plain = [[2, 0, 1], [0, 3, 1]]                       # x = (1/2, 1/3)
    wrong = [[1, 1, 1], [1, 1, 2]]                       # rank 1 < 2
    out = arith.solve_stack(np.array([rank_drop, plain]), True)
    assert [list(sol.x) for sol in out] == [[Fraction(1, arith._P), 2],
                                            [Fraction(1, 2), Fraction(1, 3)]]
    assert all(sol.nullspace.shape == (0, 2) for sol in out) and [n for n, _ in lifted] == [1]
    lifted.clear()
    out = arith.solve_stack(np.array([plain, wrong, plain, rank_drop]), False)
    assert isinstance(out[0], Solution) and _as_tuple(out[1]) == ("inconsistent", 1, 2)
    assert out[2:] == [None, None] and [n for n, _ in lifted] == [1]


def test_solve_stack_leaves_systems_that_mislead_mod_p_to_the_exact_solve():
    """A pivot divisible by ``_P`` is lost mod p, so the stack takes the exact
    solve's answer.  A system consistent mod p whose lift fails the exact
    check, or whose solution does not reconstruct mod p, gets the exact solve
    in stack order too, and nothing after an inconsistent one is decided."""
    aug = np.array([[[arith._P, 1]]])
    sol = arith.solve_int(aug[0])
    assert isinstance(sol, Solution) and list(sol.x) == [Fraction(1, arith._P)]
    assert [list(s.x) for s in arith.solve_stack(aug, True)] == [[Fraction(1, arith._P)]]
    mislead = [[1, 1], [1 + arith._P, 1]]                # x = 1 mod p, inconsistent
    assert _as_tuple(arith.solve_stack(np.array([mislead]), True)[0]) == ("inconsistent", 1, 2)
    large = [[7, 10**6], [0, 0]]                         # x = 10**6 / 7 does not reconstruct mod p
    plain = [[2, 1], [0, 0]]
    out = arith.solve_stack(np.array([large, mislead, plain]), False)
    assert list(out[0].x) == [Fraction(10**6, 7)]
    assert _as_tuple(out[1]) == ("inconsistent", 1, 2) and out[2] is None


# -- inverse ----------------------------------------------------------------------

def _inverse(m, scale=1):
    """``(ints, scale)`` of the inverse of ``m / scale``."""
    inv = arith.inverse(arith.Scaled(m, scale))
    return inv.ints, inv.scale


def _nonsingular(rng, n, kind):
    """A nonsingular integer n x n matrix of the named kind."""
    bound = 2**40 if kind == "past-int64-out" else 9
    while True:
        m = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        det = sympy.Matrix(m).det()
        if det:
            break
    if kind == "negative-det" and det > 0:
        m[0] = [-v for v in m[0]]
    if kind == "small":
        return np.array(m, dtype=np.int64)
    return np.array(m, dtype=object) * (3**45 if kind == "past-int64-in" else 1)


@pytest.mark.parametrize("kind", ["small", "negative-det", "past-int64-in", "past-int64-out"])
def test_inverse_int_is_the_cleared_reference_inverse(kind):
    rng = random.Random(kind)
    dtypes = []
    for n in range(1, 7):
        m = _nonsingular(rng, n, kind)
        if kind == "negative-det":
            assert sympy.Matrix(m.tolist()).det() < 0
        ints, scale = _inverse(m)
        ref_ints, ref_scale = _cleared(_reference_inverse(m))
        assert scale == ref_scale and ints.tolist() == ref_ints
        dtypes.append(ints.dtype)
    # entries of det * M^-1 are (n-1)-minors: past int64 from n = 3 on at 2**40
    expected = [object if kind == "past-int64-out" and n >= 3 else np.int64 for n in range(1, 7)]
    assert dtypes == [np.dtype(t) for t in expected]


def test_inverse_int_rejects_singular_matrices():
    for m in ([[1, 2], [2, 4]], [[0]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]):
        with pytest.raises(ContractViolation):
            _inverse(np.array(m, dtype=np.int64))


def test_inverse_int_of_a_scaled_and_of_a_tall_matrix():
    m = np.array([[2, 1, 0], [1, 3, 1], [0, 1, 4]], dtype=np.int64)
    ints, scale = _inverse(m, 6)
    ref_ints, ref_scale = _cleared(_reference_inverse(qarray(m) / 6))
    assert scale == ref_scale and ints.tolist() == ref_ints
    # a tall matrix of full column rank: T is the right block of the rref of [M | I]
    tall = m[:, :2]
    ints, scale = _inverse(tall, 6)
    rows, _ = _reference_rref(np.concatenate([qarray(tall) / 6, fractions(np.eye(3, dtype=np.int64))],
                                             axis=1))
    ref_ints, ref_scale = _cleared(qarray([row[2:] for row in rows]))
    assert scale == ref_scale and ints.tolist() == ref_ints
    assert np.array_equal(ints @ tall, np.eye(3, 2, dtype=np.int64) * 6 * scale)
    with pytest.raises(ContractViolation):
        _inverse(np.array([[1, 2], [2, 4], [3, 6]], dtype=np.int64))


# -- rational factoring of minimal polynomials, against sympy -------------------

_X = sympy.Symbol("x")


def _sympy_factors(poly):
    """``sympy.Poly.factor_list`` over QQ, each factor primitive over the integers."""
    factors = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in poly],
                         _X, domain="QQ").factor_list()[1]
    out = []
    for factor, _mult in factors:
        coeffs = [Fraction(int(c.p), int(c.q)) for c in factor.all_coeffs()]
        scale = math.lcm(*(c.denominator for c in coeffs))
        ints = [int(c * scale) for c in coeffs]
        g = math.gcd(*ints) * (1 if ints[0] > 0 else -1)
        out.append([v // g for v in ints])
    return out


def _product(factors, constant=Fraction(1)):
    out = [constant]
    for f in factors:
        out = [sum(out[i] * f[k - i] for i in range(len(out)) if 0 <= k - i < len(f))
               for k in range(len(out) + len(f) - 1)]
    return out


def _companion(poly):
    """Companion matrix of a polynomial (highest degree first): its minimal
    polynomial is the monic ``poly``."""
    monic = [Fraction(c) / poly[0] for c in poly]
    d = len(monic) - 1
    c = fzeros((d, d))
    for i in range(1, d):
        c[i, i - 1] = Fraction(1)
    for i in range(d):
        c[i, d - 1] = -monic[d - i]
    return c


def _irreducible(coeffs):
    return math.gcd(*coeffs) == 1 and sympy.Poly(coeffs, _X).is_irreducible


_linear = st.tuples(st.integers(1, 6), st.integers(-9, 9)).filter(
    lambda t: math.gcd(*t) == 1).map(list)
_nonlinear = st.integers(2, 3).flatmap(
    lambda d: st.tuples(st.integers(1, 5), *[st.integers(-9, 9)] * d)).map(list).filter(_irreducible)
_factor_sets = st.tuples(st.lists(_linear, max_size=3, unique_by=tuple),
                         st.lists(_nonlinear, max_size=2, unique_by=tuple)).map(
    lambda p: p[0] + p[1]).filter(lambda fs: 1 <= sum(len(f) - 1 for f in fs) <= 6)
_constants = st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool)


@settings(max_examples=40, deadline=None)
@given(_factor_sets, _constants)
def test_rational_factors_match_sympy(factors, constant):
    poly = _product(factors, constant)
    out = arith.rational_factors(poly)
    assert out == _sympy_factors(poly)
    assert sorted(out) == sorted(factors)


@settings(max_examples=20, deadline=None)
@given(_factor_sets)
def test_sympy_fallback_gives_the_same_factors_and_pieces(factors):
    """With the numeric root screen switched off sympy factors everything; the
    factors and the primary split stay identical."""
    poly = _product(factors)
    c = _companion(poly)
    assert arith.minimal_polynomial_exact(c) == [v / poly[0] for v in poly]
    screened = arith.rational_factors(poly), arith.primary_invariant_split(c)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_root_candidates", lambda ints: set())
        fallback = arith.rational_factors(poly), arith.primary_invariant_split(c)
    assert screened[0] == fallback[0] == [f for f, _ in screened[1]]
    assert [(f, fractions(k).tolist()) for f, k in screened[1]] == \
        [(f, fractions(k).tolist()) for f, k in fallback[1]]


def test_minimal_polynomial_is_the_lcm_of_local_annihilators():
    f1, f2, f3 = [1, -2], [3, 1], [1, 0, -5]
    blocks = [_companion(_product([f1, f2])), _companion(_product([f2, f3])), _companion(f1)]
    n = sum(b.shape[0] for b in blocks)
    c = fzeros((n, n))
    at = 0
    for b in blocks:
        c[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
    expected = _product([f1, f2, f3], Fraction(1, 3))
    assert arith.minimal_polynomial_exact(c) == expected
    assert [f for f, _ in arith.primary_invariant_split(c)] == _sympy_factors(expected)


def test_rational_factors_with_huge_coefficients():
    big = 3**45
    factors = [[2, -big], [big, 1], [1, 0, big], [1, 1, 1]]
    poly = _product(factors, Fraction(big, 7))
    assert arith.rational_factors(poly) == _sympy_factors(poly)
    assert sorted(arith.rational_factors(poly)) == sorted(factors)
    # past the float range the screen finds nothing and sympy factors it all
    huge = _product([[1, -10**400], [1, 0, -2]])
    assert arith.rational_factors(huge) == [[1, -10**400], [1, 0, -2]]


@pytest.mark.parametrize("factors", [
    [[1, 0], [1, 0], [2, -1], [3, -1]],                  # x^2 (2x - 1)(3x - 1)
    [[1, 0, 1], [1, 0, 1], [1, 1, 1], [1, -1], [1, -1]],   # repeated quadratic, screened root
])
def test_rational_factors_order_repeated_factors_like_sympy(factors):
    """sympy orders by length, then multiplicity, then coefficients."""
    poly = _product(factors)
    assert arith.rational_factors(poly) == _sympy_factors(poly)


# -- the Scaled type, on both of its integer paths ------------------------------

def _scaled_pair(draw, rows, cols, magnitude):
    """A Scaled with entries near ``magnitude`` (entry [0, 0] at it) and its Fraction array."""
    ints = [[magnitude * draw(st.integers(-1, 1)) + draw(st.integers(-1000, 1000))
             for _ in range(cols)] for _ in range(rows)]
    ints[0][0] = magnitude + draw(st.integers(0, 1000))
    scale = draw(st.integers(1, 60))
    return (arith.Scaled(np.array(ints, dtype=object), scale),
            qarray([[Fraction(v, scale) for v in row] for row in ints]))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2**30, 2**61]), st.data())
def test_scaled_arithmetic_matches_the_fraction_oracle_on_both_paths(magnitude, data):
    """``@``, ``+``, ``-`` and scalar products equal Fraction ``np.dot`` and
    elementwise arithmetic; entries near 2**30 run on int64, near 2**61 on Python ints."""
    n, k, m = (data.draw(st.integers(1, 3)) for _ in range(3))
    a, fa = _scaled_pair(data.draw, n, k, magnitude)
    b, fb = _scaled_pair(data.draw, k, m, magnitude)
    c, fc = _scaled_pair(data.draw, n, k, magnitude)
    assert a.fits(b, k) == (magnitude == 2**30)
    assert a.ints.dtype == (np.int64 if magnitude == 2**30 else object)
    factor = data.draw(st.fractions(min_value=-9, max_value=9, max_denominator=7))
    assert fractions(a @ b).tolist() == np.dot(fa, fb).tolist()
    assert fractions(a @ b[:, 0]).tolist() == np.dot(fa, fb[:, 0]).tolist()
    assert fractions(a + c).tolist() == (fa + fc).tolist()
    assert fractions(a - c).tolist() == (fa - fc).tolist()
    assert fractions(a * factor).tolist() == (fa * factor).tolist() == fractions(factor * a).tolist()
    assert fractions((-a).T).tolist() == (-fa).T.tolist()
    assert [str(v) for v in a.strs()] == [arith.fraction_str(v) for v in fa.reshape(-1)]
    assert (a @ b).equals(np.dot(fa, fb)) and a.reduced().equals(fa)


def _symmetric_of_kind(rng, n, kind):
    """``M^T D M`` with ``M`` unit upper triangular, so its inertia is that of ``D``."""
    d = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
    if kind == "semidefinite":
        d[rng.randrange(n)] = Fraction(0)
    if kind == "indefinite":
        d[rng.randrange(n)] *= -1
    m = fractions(np.eye(n, dtype=np.int64))
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return np.dot(np.dot(m.T, np.diag(d).astype(object)), m)


@pytest.mark.parametrize("kind", ["definite", "semidefinite", "indefinite"])
def test_positive_definite_by_bareiss_pivots_matches_fraction_elimination(kind):
    rng = random.Random(kind)
    for _ in range(60):
        s = _symmetric_of_kind(rng, rng.randint(1, 7), kind)
        assert arith.is_positive_definite_exact(s) == positive_definite(s) == (kind == "definite")
        scaled = arith.Scaled.of(s) * 3**45        # the pivots past int64
        assert arith.is_positive_definite_exact(scaled) == (kind == "definite")


@pytest.mark.parametrize("matrix, expected", [
    ([[-1, 0], [0, 1]], False),                         # negative first pivot
    ([[-2, 1, 0], [1, -3, 0], [0, 0, 5]], False),       # negative first pivot, positive later heads
    ([[0, 1], [1, 2]], False),                          # zero leading entry: a row swap
    ([[0, 0], [0, 1]], False),                          # zero first column
    ([[4, 2, 2], [2, 1, 1], [2, 1, 3]], False),         # semidefinite: a zero pivot, then a swap
    ([[1, 2], [2, 1]], False),                          # indefinite
    ([[2, 1, 1], [1, 2, 1], [1, 1, 2]], True),
])
def test_positive_definite_at_the_pivot_edges(matrix, expected):
    """Sylvester's test on the recorded pivot entries: a pivot that is not
    positive, or a zero that forces a row swap, decides False."""
    s = qarray(matrix)
    assert arith.is_positive_definite_exact(s) == positive_definite(s) == expected
    assert arith.is_positive_definite_exact(arith.Scaled.of(s) * 3**45) == expected


def test_float_tier_is_exact_up_to_its_bound(monkeypatch):
    """A product with ``bound_a * bound_b * inner < 2**53`` runs through float64
    BLAS and equals the Python-int product, for a sum just below ``2**53``; one
    just past the bound, an odd sum that float64 would round, stays on int64."""
    floats = _record(monkeypatch, "_float_matmul", lambda a, b: a.shape)
    big = 2**26 + 1
    below = (2**53 - 1) // (3 * big) // 2 * 2 - 1          # odd, 3 * big * below < 2**53
    for entry, tier in ((below, True), (below + 2, False)):
        a, b = np.full((2, 3), big, dtype=np.int64), np.full((3, 2), entry, dtype=np.int64)
        a[1, 0] = -big
        assert (3 * big * entry < 2**53) == tier
        out = arith.Scaled(a) @ arith.Scaled(b)
        assert out.ints.dtype == np.int64 and bool(floats) == tier
        assert out.ints.tolist() == np.matmul(a.astype(object), b.astype(object)).tolist()
        floats.clear()
    rounded = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    assert rounded.tolist() != out.ints.tolist()           # past the bound float64 is inexact


@pytest.mark.parametrize("shapes", [((600, 7), (7, 5)), ((3, 300, 4), (4, 2)),
                                    ((5, 120, 6), (5, 6, 3)), ((130, 6), (300, 6, 9)),
                                    ((6,), (300, 6, 2)), ((300, 6, 4), (4,)), ((2, 3), (3,))])
def test_float_tier_matches_python_ints_on_stacks_and_blocks(monkeypatch, shapes):
    """Matrices with more rows than one conversion block, stacks times
    matrices, matrices times stacks and stacks times stacks: the blocked float
    tier gives the Python-int product."""
    floats = _record(monkeypatch, "_float_matmul", lambda a, b: a.shape)
    rng = np.random.RandomState(len(floats) + sum(map(len, shapes)))
    a, b = (rng.randint(-2**20, 2**20, size=shape) for shape in shapes)
    out = arith.Scaled(a) @ arith.Scaled(b)
    assert len(floats) == 1 and out.ints.dtype == np.int64
    assert out.ints.tolist() == np.matmul(a.astype(object), b.astype(object)).tolist()


# -- carried bounds: never below the entries, never a different tier ----------

def _largest(value) -> int:
    """The largest absolute entry, read off the integers afresh."""
    return max((abs(int(v)) for v in value.ints.reshape(-1)), default=0)


def _tier_log(mp) -> list:
    """Log ``float`` for every float64 product and ``object`` for every Scaled
    built from a Python-int array; any other product or sum ran on int64."""
    log = []
    floats, init = arith._float_matmul, arith.Scaled.__init__

    def float_matmul(a, b):
        log.append("float")
        return floats(a, b)

    def scaled_init(self, ints, *args):
        if np.asarray(ints).dtype == object:
            log.append("object")
        init(self, ints, *args)

    mp.setattr(arith, "_float_matmul", float_matmul)
    mp.setattr(arith.Scaled, "__init__", scaled_init)
    return log


def _taken(log, run):
    """``run()`` and the tier it took."""
    log.clear()
    out = run()
    return out, "object" if "object" in log else "float" if "float" in log else "int64"


def _product_tier(a, b) -> str:
    """The tier of ``a @ b`` by scanned bounds, with both sides divided by their
    gcd (integers and scale) past ``2**62``, as ``Scaled.__matmul__`` states it."""
    def divided(x):
        g = math.gcd(x.scale, *x.ints.reshape(-1).tolist())
        return arith.Scaled(x.ints // g, x.scale // g)

    inner = max(1, a.shape[-1])
    for _ in range(2):
        if a.ints.dtype != np.int64 or b.ints.dtype != np.int64:
            return "object"
        size = max(1, _largest(a)) * max(1, _largest(b)) * inner
        if size < 2**53:
            return "float"
        if size < 2**62:
            return "int64"
        a, b = divided(a), divided(b)
    return "object"


def _int64_if(condition: bool) -> str:
    return "int64" if condition else "object"


def _operand(data, shape, inflate):
    """A builder of fresh, equal Scaled values of ``shape``: entries up to a drawn
    magnitude (entry 0 at it; past ``2**60`` they are Python ints), a scale with
    an optional common factor, and a bound carried ``2**inflate`` times too high
    (None: scanned when first needed)."""
    magnitude = data.draw(st.sampled_from([1, 2**12, 2**25, 2**29, 2**31, 2**61]))
    rng = np.random.RandomState(data.draw(st.integers(0, 2**31)))
    ints = rng.randint(-magnitude, magnitude + 1, size=shape, dtype=np.int64).astype(object)
    ints.reshape(-1)[0] = magnitude
    factor = data.draw(st.sampled_from([1, 1, 2**8]))
    ints, scale = ints * factor, data.draw(st.integers(1, 30)) * factor
    if magnitude < 2**60:
        ints = ints.astype(np.int64)
    bound = None if inflate is None else magnitude * factor << inflate
    return lambda: arith.Scaled(ints.copy(), scale, bound)


_SHAPES = {   # the two operands of ``@``: matrices, stacks, a matrix past one row block
    "matrix": lambda n, k, m: ((n, k), (k, m)),
    "stack-matrix": lambda n, k, m: ((2, n, k), (k, m)),
    "stacks": lambda n, k, m: ((2, n, k), (2, k, m)),
    "row-blocks": lambda n, k, m: ((300, k), (k, m)),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_SHAPES)), st.data())
def test_carried_bounds_bound_the_entries_and_pick_the_scanned_tier(shapes, data):
    """Every result carries a bound at least its largest entry, and every
    product, sum, difference, scalar multiple and concatenation of fresh
    operands takes the tier (float64, int64 or Python ints) that their
    scanned bounds pick, also when their carried bounds are far too high."""
    n, k, m = (data.draw(st.integers(1, 3)) for _ in range(3))
    left, right = _SHAPES[shapes](n, k, m)
    inflate = st.sampled_from([None, 0, 12, 30, 60])
    makers = [_operand(data, shape, data.draw(inflate)) for shape in (left, right, left)]
    a, b, c = (make() for make in makers)
    la, lc = _largest(a), _largest(c)
    factor = data.draw(st.fractions(min_value=-2**12, max_value=2**12, max_denominator=9))
    scale = math.lcm(a.scale, c.scale)
    fa, fc = scale // a.scale, scale // c.scale
    int64 = a.ints.dtype == c.ints.dtype == np.int64
    summed = _int64_if(int64 and max(1, la) * fa + max(1, lc) * fc < 2**62)
    cases = {   # the operation, the tier of the scanned bounds, the Fraction value
        "a @ b": (lambda x, y, z: x @ y, _product_tier(a, b),
                  np.matmul(fractions(a), fractions(b))),
        "a + c": (lambda x, y, z: x + z, summed, fractions(a) + fractions(c)),
        "a - c": (lambda x, y, z: x - z, summed, fractions(a) - fractions(c)),
        "a * k": (lambda x, y, z: x * factor,
                  _int64_if(a.ints.dtype == np.int64 and max(1, la) * abs(factor.numerator) < 2**60),
                  fractions(a) * factor),
        "concat": (lambda x, y, z: arith.Scaled.concat([x, z], axis=-1),
                   _int64_if(int64 and max(1, la) * fa < 2**60 and max(1, lc) * fc < 2**60),
                   np.concatenate([fractions(a), fractions(c)], axis=-1)),
    }
    results = []
    with pytest.MonkeyPatch.context() as mp:
        log = _tier_log(mp)
        for name, (run, tier, value) in cases.items():
            operands = [make() for make in makers]
            out, taken = _taken(log, lambda: run(*operands))
            assert taken == tier, name
            assert fractions(out).tolist() == value.tolist(), name
            results.append(out)
    x = makers[0]()
    views = [-x, x.T, x.reshape(-1), x.transpose(), x[0], x[..., :1], x.reduced(),
             results[0][0], results[1].reduced()]
    for out in results + views:
        assert out.bound >= _largest(out)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_contract_carries_its_bound_and_picks_the_scanned_tier(data):
    """``ad`` of a vector stack carries ``bound_v * bound_c * dim`` and sums on
    int64 exactly when the scanned bounds fit, whatever the carried one says
    (su(3): some entries of ``ad`` sum two structure constants)."""
    algebra = build_classical("su", 3)
    make = _operand(data, (data.draw(st.integers(1, 3)), algebra.dim),
                    data.draw(st.sampled_from([None, 0, 20, 40, 60])))
    v = make()
    constants = max(abs(int(x)) for x in algebra.coo[3])
    expected = _int64_if(v.ints.dtype == np.int64
                         and max(1, _largest(v)) * constants * algebra.dim < 2**62)
    with pytest.MonkeyPatch.context() as mp:
        out, tier = _taken(_tier_log(mp), lambda: algebra.contract(v))
    assert tier == expected
    assert out.bound >= _largest(out)
    identity = np.eye(algebra.dim, dtype=np.int64)
    assert fractions(out).tolist() == [fmatmul(algebra.contract(row), identity).tolist() for row in v]


def test_carried_bounds_past_a_limit_are_scanned_before_the_tier(monkeypatch):
    """Products whose entries cancel carry bounds far above their entries.  A
    carried bound past ``2**53`` or ``2**62`` is scanned before the tier is
    picked, so the next products still run on float64 or int64, as the scanned
    bounds say, and carry bounds from the scanned ones."""
    floats = _record(monkeypatch, "_float_matmul", lambda a, b: a.shape)
    ints = arith.Scaled

    def cancelled(big, small):
        """``[[big, big]] @ [[small], [-small]]``: zero, carried bound ``2 * big * small``."""
        return ints(np.array([[big, big]])) @ ints(np.array([[small], [-small]]))

    zero = cancelled(2**20, 2**5)
    assert fractions(zero).tolist() == [[0]] and zero.bound == 2**26
    floats.clear()
    out = zero @ ints(np.array([[2**30]]))               # carried 2**56: int64 by that bound
    assert fractions(out).tolist() == [[0]] and len(floats) == 1 and zero.bound == out.bound == 0

    zero = cancelled(2**40, 2**20)                       # carried 2**61
    assert zero.bound == 2**61
    floats.clear()
    out = zero @ ints(np.array([[2**10]]))               # carried 2**71: Python ints by that bound
    assert fractions(out).tolist() == [[0]] and len(floats) == 1 and zero.bound == out.bound == 0

    wide = ints(np.array([[2**30, 2**30]]), 1, 2**55)      # carried 2**55, largest entry 2**30
    floats.clear()
    out = wide @ ints(np.array([[2**22], [3]]))          # scanned: 2 * 2**52 = 2**53, int64
    assert out.ints.dtype == np.int64 and floats == [] and wide.bound == 2**30
    assert fractions(out).tolist() == [[2**52 + 3 * 2**30]] and out.bound == 2**53
