"""Exact rational arithmetic and dense linear-algebra kernels.

Exact data lives in numpy arrays of dtype ``object`` whose entries are
:class:`fractions.Fraction`, and comparisons against zero are literal
equality.  There is no floating-point backend: each kernel has one exact
code path.

Hot kernels work on integers instead: :func:`clear_denominators` turns a
Fraction array into ``(ints, scale)`` and :func:`from_ints` turns it back.
Integer arrays are int64 while a bound on their entries rules out overflow in
the next product (``_int64_safe``) and Python ints in object arrays otherwise,
so :func:`int_matmul` and the other integer kernels are exact either way.

Exact ranks, solves, nullspaces, rrefs and inverses all run
:func:`_eliminate_int`, fraction-free (Bareiss, Math. Comp. 22, 1968)
elimination of the row-cleared integer matrix: forward for
:func:`rank_exact`, Gauss-Jordan for :func:`solve_int`,
:func:`nullspace_exact`, :func:`rref_exact` and :func:`inverse_int`.  Each
step divides by the previous pivot; the quotients are minors of the input, so
every division is exact, and Gauss-Jordan leaves ``det * rref``.

Nullspaces are certified: a candidate from the fast modular screening path is
verified by an exact integer product with the row-cleared candidate before it
is returned, and Bareiss elimination takes over whenever rational
reconstruction or the verification fails.

The modular screening elimination (:func:`_modp_pivots`) reduces wide
systems in panels of ``_PANEL = 64`` columns.  Each panel's update of the
other rows is one matrix product mod ``_P``, done by :func:`_mulmod` as
float64 BLAS products on 16-bit limbs.  Residues are below ``2**31`` and
limbs below ``2**16``, so a sum of at most 64 products stays below ``2**53``
and every product is exact, whatever the BLAS summation order or thread
count.

Primary decompositions (:func:`primary_invariant_split`) split a matrix along
the irreducible factors of its minimal polynomial.
:func:`minimal_polynomial_exact` builds that polynomial from Krylov chains
with ``lcm(m, ann(e)) = m * ann(m(C) e)``, so it needs no polynomial gcd.
:func:`rational_factors` screens for rational roots with ``np.roots``, keeps
a candidate only when exact integer division by its linear factor leaves no
remainder, and hands whatever is left of degree 2 or more to sympy, which is
imported only then.  The screen can miss a root, which costs time, but it
cannot change a factor.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

EXACT = "exact"

_P = 2_147_483_647  # prime modulus for the screening eliminations
_PANEL = 64         # columns per elimination panel, fixed by the 2**53 bound in _mulmod
_CHUNK = 256        # rows per trailing panel update, to keep temporaries small


class ContractViolation(ValueError):
    """An operation was called outside its stated contract."""


class ExactComputationError(RuntimeError):
    """An exact kernel cannot produce a certified result for this input."""


# ---------------------------------------------------------------------------
# construction helpers for exact arrays
# ---------------------------------------------------------------------------

def q(value) -> Fraction:
    """Coerce ``value`` to an exact Fraction.  Floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, str):
        return Fraction(value)
    raise ContractViolation(f"cannot build an exact scalar from {value!r}")


def qarray(data) -> np.ndarray:
    """Object-dtype array with Fraction entries."""
    arr = np.array(data, dtype=object)
    flat = arr.reshape(-1)
    for i, v in enumerate(flat):
        flat[i] = q(v)
    return arr


def qzeros(shape) -> np.ndarray:
    arr = np.empty(shape, dtype=object)
    arr.fill(Fraction(0))
    return arr


def qeye(n: int) -> np.ndarray:
    arr = qzeros((n, n))
    for i in range(n):
        arr[i, i] = Fraction(1)
    return arr


def is_zero(arr: np.ndarray) -> bool:
    arr = np.asarray(arr)
    if arr.dtype != object:
        return not np.any(arr)
    return all(v == 0 for v in arr.reshape(-1))


def fraction_str(value: Fraction) -> str:
    value = q(value)
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


# ---------------------------------------------------------------------------
# integer scaling (shared fast path)
# ---------------------------------------------------------------------------

def clear_denominators(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """Return ``(ints, scale)`` with ``ints == arr * scale`` entrywise.

    The integer array uses dtype int64 when every entry fits comfortably,
    otherwise dtype object with python ints (still exact).
    """
    flat = np.asarray(arr, dtype=object).reshape(-1)
    scale = 1
    for v in flat:
        scale = scale * v.denominator // math.gcd(scale, v.denominator)
    ints = np.array([int(v.numerator) * (scale // v.denominator) for v in flat],
                    dtype=object).reshape(arr.shape)
    return _narrow(ints), scale


def _narrow(ints: np.ndarray) -> np.ndarray:
    """An array of Python ints as int64 when every entry is below 2**60."""
    return ints.astype(np.int64) if _max_abs(ints) < 2**60 else ints


def from_ints(ints: np.ndarray, denom: int = 1) -> np.ndarray:
    """Fraction array from an integer array divided by ``denom``."""
    flat = ints.reshape(-1)
    out = np.empty(flat.shape[0], dtype=object)
    for i in range(flat.shape[0]):
        out[i] = Fraction(int(flat[i]), denom)
    return out.reshape(ints.shape)


def _max_abs(arr: np.ndarray) -> int:
    return int(np.max(np.abs(arr))) if arr.size else 0


def _int64_safe(a: np.ndarray, b: np.ndarray, inner: int) -> bool:
    """Whether every sum of ``inner`` products of entries of ``a`` and ``b`` fits int64."""
    return (a.dtype == np.int64 and b.dtype == np.int64
            and max(1, _max_abs(a)) * max(1, _max_abs(b)) * max(1, inner) < 2**62)


def int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact ``a @ b`` of integer arrays: int64 when safe, Python ints otherwise."""
    if _int64_safe(a, b, a.shape[-1]):
        return a @ b
    return np.matmul(a.astype(object), b.astype(object))


def exact_matmul(A, B) -> np.ndarray:
    """Exact matrix product, vectorized over int64 whenever safe."""
    A = np.asarray(A, dtype=object)
    B = np.asarray(B, dtype=object)
    a, sa = clear_denominators(A)
    b, sb = clear_denominators(B)
    if _int64_safe(a, b, A.shape[-1] if A.ndim else 1):
        return from_ints(a @ b, sa * sb)
    return np.dot(A, B)


def _int_rows(arr: np.ndarray) -> np.ndarray:
    """:func:`_int_row_lists` as an array, int64 when small; integer arrays pass through."""
    if np.issubdtype(arr.dtype, np.integer):
        return arr
    return _narrow(np.array(_int_row_lists(arr), dtype=object).reshape(arr.shape))


def _int_row_lists(arr: np.ndarray) -> list[list[int]]:
    """Rows as lists of Python ints, each row's denominators cleared on its own
    (which keeps rank, rref and nullspace)."""
    if np.issubdtype(arr.dtype, np.integer):
        return arr.tolist()
    rows = []
    for row in arr.tolist():
        scale = math.lcm(*(v.denominator for v in row))
        rows.append([int(v.numerator) * (scale // v.denominator) for v in row])
    return rows


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------

def _nullspace_from_rref(rows: list[list], pivots: list[int], ncols: int, det: int = 1) -> np.ndarray:
    """Nullspace basis (rows) from ``rows``, which are ``det`` times an rref."""
    free = [c for c in range(ncols) if c not in pivots]
    basis = qzeros((len(free), ncols))
    for b, fc in enumerate(free):
        basis[b, fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            basis[b, pc] = Fraction(-rows[r][fc], det)
    return basis


def rank_exact(mat: np.ndarray) -> int:
    """Rank over the rationals via fraction-free (Bareiss) elimination."""
    return len(_eliminate_int(_int_row_lists(np.asarray(mat)), reduce_above=False)[0])


def _eliminate_int(work: list[list[int]], reduce_above: bool) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination of the integer rows ``work`` in place.

    Returns the pivot columns and the last pivot ``det``.  Each step replaces
    every other row by ``(p * row - head * pivot_row) // prev`` with ``p`` the
    new pivot and ``prev`` the one before; every quotient is a minor of the
    row-permuted input, so each division is exact.  Forward only, the first
    rows are an echelon form; with ``reduce_above`` (Gauss-Jordan) every
    pivot row ends equal to ``det`` times its row of the rref.
    """
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    piv_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        wr = work[r]
        p = wr[c]
        lo = 0 if reduce_above else c
        for i in range(0 if reduce_above else r + 1, nrows):
            wi = work[i]
            head = wi[c]
            if i == r:
                continue
            if head:
                wi[lo:] = [(x * p - head * y) // prev for x, y in zip(wi[lo:], wr[lo:])]
            elif p != prev and any(wi):         # a zero row stays zero
                wi[lo:] = [x * p // prev for x in wi[lo:]]
        prev = p
        piv_cols.append(c)
        r += 1
    return piv_cols, prev


def rref_exact(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Nonzero rows of the reduced row echelon form (Fractions) and its pivot columns."""
    arr = np.asarray(mat)
    rows = _int_row_lists(arr)
    pivots, det = _eliminate_int(rows, reduce_above=True)
    top = np.array(rows[:len(pivots)], dtype=object).reshape(len(pivots), arr.shape[1])
    return from_ints(top, det), pivots


def inverse_int(ints: np.ndarray, scale: int = 1) -> tuple[np.ndarray, int]:
    """``(ints, scale)`` of the inverse of ``M = ints / scale``, exactly as
    :func:`clear_denominators` gives it, from Gauss-Jordan on ``[ints | scale*I]``.

    A tall ``M`` of full column rank gets the right block ``T`` of the rref of
    ``[M | I]``, with ``T @ M = [I; 0]``.  Raises if the columns are dependent.
    """
    n, k = ints.shape
    rows = [row + [scale * (i == j) for j in range(n)] for i, row in enumerate(ints.tolist())]
    pivots, det = _eliminate_int(rows, reduce_above=True)
    if pivots[:k] != list(range(k)):
        raise ContractViolation("matrix columns are linearly dependent")
    g = math.gcd(det, *(v for row in rows for v in row[k:]))
    g = -g if det < 0 else g
    inv = np.array([[v // g for v in row[k:]] for row in rows], dtype=object)
    return _narrow(inv.reshape(n, n)), det // g


def _eliminate_modp(work: np.ndarray, reduce_above: bool) -> tuple[list[int], list[tuple[int, int]]]:
    """Scalar elimination mod ``_P`` of ``work`` in place, one pivot at a time.

    Returns the pivot columns and the row swaps ``(r, pr)`` in the order made.
    """
    nrows, ncols = work.shape
    piv_cols: list[int] = []
    swaps: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(work[r:, c])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            work[[r, pr]] = work[[pr, r]]
            swaps.append((r, pr))
        inv = pow(int(work[r, c]), _P - 2, _P)
        work[r, c:] = (work[r, c:] * inv) % _P
        lo = 0 if reduce_above else r + 1
        others = lo + np.flatnonzero(work[lo:, c])
        others = others[others != r]
        if others.size:
            work[others, c:] = (work[others, c:] - work[others, c][:, None] * work[r, c:][None, :]) % _P
        piv_cols.append(c)
        r += 1
    return piv_cols, swaps


def _mulmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact ``(a @ b) % _P`` of int64 residues, with at most ``_PANEL`` inner terms.

    Float64 products on the 16-bit limbs of ``b``: every partial sum is an
    integer below ``_PANEL * (_P - 1) * 0xFFFF < 2**53``, hence exact in any
    summation order.
    """
    if a.shape[-1] > _PANEL:
        raise ContractViolation(f"_mulmod sums at most {_PANEL} products")
    af = a.astype(np.float64)
    low = (af @ (b & 0xFFFF).astype(np.float64)).astype(np.int64) % _P
    high = (af @ (b >> 16).astype(np.float64)).astype(np.int64) % _P
    return (low + (high << 16)) % _P


def _modp_pivots(mat_int: np.ndarray, reduce_above: bool = False):
    """Row echelon elimination mod ``_P``.

    Returns ``(rank, pivot row ids, pivot cols, reduced)`` where pivot row
    ids refer to the original numbering and ``reduced`` is the working array
    (fully reduced rref when ``reduce_above``).

    With ``reduce_above`` and more than ``_PANEL`` columns this is blocked
    Gauss-Jordan over panels of ``_PANEL`` columns.  The scalar loop, forward
    only, finds a panel's pivots and row swaps on the narrow block; the pivot
    rows are multiplied by the inverse of their pivot block, and every other
    row drops its pivot-column part as one :func:`_mulmod` product (exact:
    ``_PANEL`` inner terms keep float64 partial sums below ``2**53``).  The
    rref mod p is unique, so all four outputs equal the scalar loop's.
    """
    work = (np.asarray(mat_int) % _P).astype(np.int64)
    nrows, ncols = work.shape
    row_ids = np.arange(nrows)
    if not reduce_above or ncols <= _PANEL:
        piv_cols, swaps = _eliminate_modp(work, reduce_above)
        _swap_rows(row_ids, swaps)
        return len(piv_cols), row_ids[:len(piv_cols)].tolist(), piv_cols, work
    piv_cols = []
    r = 0
    for c0 in range(0, ncols, _PANEL):
        if r == nrows:
            break
        cols, swaps = _eliminate_modp(work[r:, c0:c0 + _PANEL].copy(), reduce_above=False)
        if not cols:
            continue
        swaps = [(r + a, r + b) for a, b in swaps]
        _swap_rows(work, swaps)
        _swap_rows(row_ids, swaps)
        k = len(cols)
        pcols = [c0 + c for c in cols]
        pivots = work[r:r + k, c0:]
        pivots[:] = _mulmod(_inverse_modp(work[r:r + k, pcols]), pivots)
        for lo, hi in ((0, r), (r + k, nrows)):
            for start in range(lo, hi, _CHUNK):
                rows = work[start:min(start + _CHUNK, hi)]
                rows[:, c0:] -= _mulmod(rows[:, pcols], pivots)
                rows[:, c0:] %= _P
        piv_cols.extend(pcols)
        r += k
    return r, row_ids[:r].tolist(), piv_cols, work


def _swap_rows(arr: np.ndarray, swaps: list[tuple[int, int]]) -> None:
    for a, b in swaps:
        arr[[a, b]] = arr[[b, a]]


def _inverse_modp(block: np.ndarray) -> np.ndarray:
    """Inverse mod ``_P`` of an invertible square residue block, by the scalar loop on ``[A | I]``."""
    k = block.shape[0]
    aug = np.concatenate([block, np.eye(k, dtype=np.int64)], axis=1)
    piv_cols, _ = _eliminate_modp(aug, reduce_above=True)
    if piv_cols != list(range(k)):
        raise ExactComputationError("pivot block is singular mod p")
    return aug[:, k:]


def _rational_reconstruct(a: int, modulus: int = _P) -> Fraction | None:
    """Rational n/d with n = a*d mod modulus and |n|, d below sqrt(modulus/2)."""
    bound = math.isqrt(modulus // 2)
    r0, r1 = modulus, a % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        quo = r0 // r1
        r0, r1 = r1, r0 - quo * r1
        s0, s1 = s1, s0 - quo * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    n, d = (r1, s1) if s1 > 0 else (-r1, -s1)
    if math.gcd(abs(n), d) != 1:
        return None
    return Fraction(n, d)


def _reconstruct_nullspace(reduced: np.ndarray, piv_cols: list[int], ncols: int):
    """Candidate rational nullspace from a fully reduced modular rref."""
    free = [c for c in range(ncols) if c not in piv_cols]
    basis = qzeros((len(free), ncols))
    for b, fc in enumerate(free):
        basis[b, fc] = Fraction(1)
        for r, pc in enumerate(piv_cols):
            value = int(reduced[r, fc])
            if value == 0:
                continue
            rec = _rational_reconstruct(_P - value)
            if rec is None:
                return None
            basis[b, pc] = rec
    return basis


def _annihilates(ints: np.ndarray, basis: np.ndarray) -> bool:
    """Whether the integer matrix ``ints`` kills every row of the rational ``basis``."""
    return not np.any(int_matmul(ints, _int_rows(basis).T))


def nullspace_exact(mat: np.ndarray) -> np.ndarray:
    """Certified rational nullspace basis (rows) of ``mat``.

    Small systems run fraction-free (Bareiss) Gauss-Jordan on the row-cleared
    integers.  Larger ones are screened mod ``_P``: the modular pivots locate
    independent rows and rational reconstruction gives a candidate, verified
    against the full matrix as an integer product (int64 when safe, Python
    ints otherwise).  Rank over GF(p) never exceeds rank over the rationals,
    so a verified candidate pins the nullity exactly.  Otherwise Bareiss runs
    on the modular pivot rows and, if that candidate fails too, on all rows.
    """
    arr = np.asarray(mat)
    if arr.ndim != 2:
        raise ContractViolation("nullspace expects a 2-d matrix")
    nrows, ncols = arr.shape
    if nrows * ncols <= 1_200:
        return _nullspace_int(_int_row_lists(arr), ncols)
    ints = _int_rows(arr)
    rank_p, piv_rows, piv_cols, reduced = _modp_pivots(ints, reduce_above=True)
    if rank_p == ncols:
        return qzeros((0, ncols))
    candidate = _reconstruct_nullspace(reduced[:rank_p], piv_cols, ncols)
    if candidate is not None and _annihilates(ints, candidate):
        return candidate
    candidate = _nullspace_int(ints[piv_rows].tolist(), ncols)
    if candidate.shape[0] == ncols - rank_p and _annihilates(ints, candidate):
        return candidate
    return _nullspace_int(ints.tolist(), ncols)


def _nullspace_int(rows: list[list[int]], ncols: int) -> np.ndarray:
    """Nullspace basis (rows) of integer rows, by fraction-free Gauss-Jordan in place."""
    pivots, det = _eliminate_int(rows, reduce_above=True)
    return _nullspace_from_rref(rows, pivots, ncols, det)


# ---------------------------------------------------------------------------
# linear solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Solution:
    """A particular solution together with a nullspace basis (rows)."""

    x: np.ndarray
    nullspace: np.ndarray


@dataclass(frozen=True)
class Inconsistent:
    """Witness that ``A x = b`` has no solution: ``rank_a < rank_ab``."""

    rank_a: int
    rank_ab: int


def solve_linear(A, b):
    """Solve ``A x = b`` returning :class:`Solution` or :class:`Inconsistent`."""
    A = np.asarray(A)
    b = np.asarray(b)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ContractViolation(f"solve_linear shape mismatch: {A.shape} vs {b.shape}")
    aug = np.concatenate([np.asarray(A, dtype=object), np.asarray(b, dtype=object)[:, None]], axis=1)
    return solve_int(_int_rows(aug))


def solve_int(aug: np.ndarray):
    """Solve the rational system whose integer augmented matrix is ``aug = [A | b]``.

    Any row may carry its own positive scale.  One fraction-free Gauss-Jordan
    pass leaves ``det * rref``; ``x`` sets the free variables to 0 and the
    nullspace is read off ``rows / det``, so both equal the rref's.
    """
    ncols = aug.shape[1] - 1
    rows = aug.tolist()
    pivots, det = _eliminate_int(rows, reduce_above=True)
    if ncols in pivots:
        return Inconsistent(rank_a=len(pivots) - 1, rank_ab=len(pivots))
    x = qzeros(ncols)
    for r, pc in enumerate(pivots):
        x[pc] = Fraction(rows[r][ncols], det)
    return Solution(x=x, nullspace=_nullspace_from_rref(rows, pivots, ncols, det))


# ---------------------------------------------------------------------------
# symmetric operators
# ---------------------------------------------------------------------------

def is_self_adjoint(S, form=None) -> bool:
    """Whether ``S`` is self-adjoint for the positive form ``form`` (default: dot)."""
    S = np.asarray(S)
    G = np.asarray(form) if form is not None else qeye(S.shape[0])
    GS = np.dot(G, S)
    return is_zero(GS - GS.T)


def is_positive_definite_exact(S: np.ndarray) -> bool:
    """Exact positive definiteness of a symmetric rational matrix (pivot signs)."""
    S = np.asarray(S, dtype=object)
    if not is_zero(S - S.T):
        raise ContractViolation("positive definiteness test expects a symmetric matrix")
    n = S.shape[0]
    work = [[q(v) for v in row] for row in S]
    for k in range(n):
        pivot = work[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            f = work[i][k] / pivot
            if f != 0:
                for j in range(k, n):
                    work[i][j] = work[i][j] - f * work[k][j]
    return True


def minimal_polynomial_exact(C: np.ndarray) -> list[Fraction]:
    """Monic minimal polynomial of a rational square matrix, coefficients
    highest degree first, via Krylov chains.

    The minimal polynomial is the least common multiple of the local
    annihilators ``ann(e)`` of the standard basis vectors.  Each step uses
    ``lcm(m, ann(e)) = m * ann(m(C) e)``: a vector that the running ``m``
    does not kill starts a Krylov chain at ``m(C) e``, and ``m`` is multiplied
    by that chain's monic dependence polynomial.  The loop stops early once
    the degree reaches the matrix size.  A monic lcm is unique, so this is
    the polynomial sympy's ``lcm`` gives, without sympy; :func:`rational_factors`
    factors it by a screened, exactly verified rational-root search and
    imports sympy only for a factor of degree 2 or more.
    """
    C = np.asarray(C, dtype=object)
    n = C.shape[0]
    poly = [Fraction(1)]
    for seed in range(n):
        if len(poly) > n:
            break
        start = _eval_poly_vector(poly, C, _unit(n, seed))
        if is_zero(start):
            continue
        chain = [start]
        echelon: list[list[Fraction]] = []
        while (rep := _reduce_against(echelon, chain[-1])) is not None:
            echelon.append(rep)
            chain.append(np.dot(C, chain[-1]))
        poly = _poly_mul(poly, _dependence(chain)[::-1])
    return poly


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def rational_factors(poly: list) -> list[list[int]]:
    """Distinct irreducible factors over the rationals of a polynomial with
    rational coefficients (highest degree first).

    Each factor is a primitive integer coefficient list with a positive lead,
    and the list is in ``sympy.Poly.factor_list`` order: by length, then
    multiplicity, then coefficients.  Rational roots are screened
    numerically: each root ``z`` of ``np.roots`` on the primitive integer form
    ``a_d x^d + ... + a_0`` gives the candidate
    ``Fraction(z.real).limit_denominator(|a_d|)`` (a root ``p/q`` in lowest
    terms has ``q | a_d``).  A candidate counts only when exact division by
    ``q x - p`` leaves remainder 0, so the screen can miss a root but never
    invent one.  Whatever is left of degree 2 or more is factored by sympy,
    which is imported only then.
    """
    rest = _primitive(poly)
    mults: Counter[tuple[int, ...]] = Counter()
    for root in _root_candidates(rest):
        while len(rest) > 1 and (quotient := _deflate(rest, root)) is not None:
            rest = quotient
            mults[root.denominator, -root.numerator] += 1
    if len(rest) == 2:
        mults[tuple(rest)] += 1
    elif len(rest) > 2:
        import sympy
        for factor, mult in sympy.Poly(rest, sympy.Symbol("x")).factor_list()[1]:
            mults[tuple(_primitive([int(c) for c in factor.all_coeffs()]))] += mult
    return [list(f) for f in sorted(mults, key=lambda f: (len(f), mults[f], f))]


def _primitive(poly: list) -> list[int]:
    """The primitive integer multiple of ``poly`` with a positive lead."""
    coeffs = [Fraction(c) for c in poly]
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c.numerator) * (scale // c.denominator) for c in coeffs]
    g = math.gcd(*ints)
    g = -g if ints[0] < 0 else g
    return [v // g for v in ints]


def _root_candidates(ints: list[int]) -> set[Fraction]:
    """Rational numbers near the real parts of the roots ``np.roots`` finds."""
    try:
        roots = np.roots(np.array([float(v) for v in ints]))
    except (OverflowError, np.linalg.LinAlgError):
        return set()
    bound = abs(ints[0])
    return {Fraction(float(z.real)).limit_denominator(bound)
            for z in roots if np.isfinite(z.real)}


def _deflate(ints: list[int], root: Fraction) -> list[int] | None:
    """Quotient of the integer polynomial ``ints`` by ``q x - p`` for
    ``root = p/q``, or None when it leaves a remainder."""
    p, d = root.numerator, root.denominator
    out: list[int] = []
    prev = 0
    for a in ints[:-1]:
        num = a + p * prev
        if num % d:
            return None
        prev = num // d
        out.append(prev)
    return out if ints[-1] + p * prev == 0 else None


def _unit(n: int, i: int) -> np.ndarray:
    v = qzeros(n)
    v[i] = Fraction(1)
    return v


def _reduce_against(echelon: list[list[Fraction]], vec: np.ndarray):
    """Reduce ``vec`` against echelon rows; append-ready row or None if dependent."""
    work = [q(v) for v in vec]
    for row in echelon:
        lead = next(i for i, v in enumerate(row) if v != 0)
        if work[lead] != 0:
            f = work[lead] / row[lead]
            for j in range(lead, len(work)):
                work[j] = work[j] - f * row[j]
    if all(v == 0 for v in work):
        return None
    return work


def _dependence(chain: list[np.ndarray]) -> list[Fraction]:
    """Monic dependence coefficients: chain[-1] = sum c_i chain[i]."""
    mat = np.stack(chain[:-1]).T
    sol = solve_linear(mat, chain[-1])
    if isinstance(sol, Inconsistent):  # pragma: no cover - contradicts chain construction
        raise ExactComputationError("krylov dependence solve failed")
    coeffs = [-c for c in sol.x]
    coeffs.append(Fraction(1))
    return coeffs


def _eval_poly_vector(poly: list, C: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = qzeros(v.shape[0])
    for c in poly:
        out = np.dot(C, out) + c * v
    return out


def _eval_poly_matrix(poly: list, C: np.ndarray) -> np.ndarray:
    n = C.shape[0]
    out = qzeros((n, n))
    eye = qeye(n)
    for c in poly:
        out = np.dot(C, out) + c * eye
    return out


def primary_invariant_split(C: np.ndarray) -> list[tuple[list[int], np.ndarray]]:
    """Primary decomposition of a rational matrix over the rationals.

    Returns ``(factor, basis rows)`` per irreducible factor of the minimal
    polynomial, in :func:`rational_factors` form and order; the kernels are
    exact and their dimensions sum to the ambient dimension whenever ``C`` is
    diagonalizable (always, for form-symmetric inputs).
    """
    C = np.asarray(C, dtype=object)
    n = C.shape[0]
    pieces = []
    total = 0
    for factor in rational_factors(minimal_polynomial_exact(C)):
        kernel = nullspace_exact(_eval_poly_matrix(factor, C))
        if kernel.shape[0]:
            pieces.append((factor, kernel))
            total += kernel.shape[0]
    if total != n:
        raise ExactComputationError("primary decomposition did not exhaust the space "
                                    "(matrix is not semisimple over the rationals)")
    return pieces


def symmetric_eigenspaces(S, form=None) -> list[tuple[Fraction, np.ndarray]]:
    """Eigen-decomposition of an operator self-adjoint for a positive form.

    Returns ``(eigenvalue, basis rows)`` sorted by eigenvalue.  The spectrum
    must be rational (guaranteed for block-scalar operators built by this
    package); :class:`ExactComputationError` is raised otherwise.
    """
    if not is_self_adjoint(S, form):
        raise ContractViolation("operator is not self-adjoint for the supplied form")
    out = []
    for factor, basis in primary_invariant_split(np.asarray(S, dtype=object)):
        if len(factor) != 2:
            raise ExactComputationError(f"irrational eigenvalues (factor coefficients {factor})")
        lead, constant = factor
        out.append((Fraction(-constant, lead), basis))
    out.sort(key=lambda p: p[0])
    return out
