"""Exact rational arithmetic and dense linear-algebra kernels.

Exact data lives in :class:`Scaled` values, an integer array over one
positive scale, like FLINT's cleared-denominator rational matrices
(``fmpq_mat_get_fmpz_mat_matwise``, ``fmpq_mat_mul_cleared``).  Fractions
appear only at the edges: parsing (:meth:`Scaled.of`), single entries and the
report.  There is no floating-point backend, and zero tests are literal.

Exact ranks, solves, nullspaces, rrefs and inverses all run
:func:`_eliminate_int`, fraction-free elimination on primitive rows:
forward for :func:`rank_exact` and :func:`is_positive_definite_exact`
(Sylvester's criterion on the pivot signs), Gauss-Jordan for
:func:`solve_int`, :func:`nullspace_exact`, :func:`rref_exact` and
:func:`inverse`.  Rows with head 0 are left alone, and every other row is the
primitive part of the row Bareiss (Math. Comp. 22, 1968) elimination holds,
so no entry is larger than Bareiss's; Gauss-Jordan leaves ``det * rref``.
Products run on float64 BLAS while every partial sum is an integer below
``2**53``, exact in any summation order (Dumas, Giorgi and Pernet, ACM TOMS
35(3), 2008), on int64 below ``2**62``, and on Python ints past that.  The
bounds that decide are carried from the operands to every int64 result
(``bound_a * bound_b * inner`` for a product), and entries are scanned only
when a carried bound would cross a limit.

Nullspaces are certified: every exact kernel has one checked lift and one
elimination fallback.  The lift, :func:`_crt_lift`, starts from the rational
reconstruction of the canonical kernel mod ``_P`` and, while the candidate
fails, combines it with the kernels mod the further primes of
``_CRT_PRIMES`` by the Chinese remainder theorem (Dixon, Numer. Math. 40,
1982; von zur Gathen and Gerhard, Modern Computer Algebra, ch. 5); each
candidate is verified by an exact integer product before it is returned.
Exact elimination of all rows takes over when no lift verifies, at once
when a further prime shows that the rank dropped mod ``_P``.

Stacks of small systems, the witness systems of a geodesic-orbit verdict, go
to :func:`solve_stack`: one Gauss-Jordan elimination mod ``_P`` over the
whole stack; each system consistent mod ``_P`` gets its particular solution
and, when asked, its canonical nullspace, both rationally reconstructed from
the same reduced stack and checked by one exact product.  Every other system
runs :func:`solve_int`, which also gives the exact rank gap of an
inconsistent one; every system up to the first exactly inconsistent one is
decided, and the stack lifts nothing after it.

Modular screening works over GF(p) for primes ``p < 2**31``, passed
explicitly: ``_P`` for screening, ranks and :func:`kernel_modp`, and
``_CRT_PRIMES`` for the multi-prime lift.  :func:`kernel_modp` gives the
canonical kernel (identity on the free columns of the rref) and
:func:`_reconstruct` its rational reconstruction, for :func:`nullspace_exact`
and the equivariance solver of :mod:`goverify.reps`; the rank estimate of
:mod:`goverify.subspaces` and the Casimir test of :mod:`goverify.reps` decide
by :func:`rank_modp` alone.  The elimination (:func:`_modp_pivots`) reduces
wide systems in panels of ``_PANEL = 64`` columns; each panel's update of
the other rows is one :func:`_mulmod` product mod p (float64 BLAS products
on 16-bit limbs), and :func:`matmul_modp` sums such products over longer
inner dimensions.  Residues are below ``2**31`` and limbs below ``2**16``,
so a sum of at most 64 products stays below ``2**53`` and every product is
exact, whatever the BLAS summation order or thread count.

Primary decompositions (:func:`primary_invariant_split`) split a matrix along
the irreducible factors of its minimal polynomial, built from Krylov chains
of the integer matrix with ``lcm(m, ann(e)) = m * ann(m(C) e)`` and evaluated
by Horner's rule on the same integers.  :func:`rational_factors` screens for rational roots with
``np.roots``, keeps a candidate only when exact integer division by its
linear factor leaves no remainder, and hands whatever is left of degree 2 or
more to sympy, which is imported only then.  The screen can miss a root,
which costs time, but it cannot change a factor.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

EXACT = "exact"

_P = 2_147_483_647  # prime modulus for the screening eliminations
# further primes below 2**31 (so that _mulmod stays exact) for the multi-prime lift
_CRT_PRIMES = (2_147_483_629, 2_147_483_587, 2_147_483_579, 2_147_483_563, 2_147_483_549,
               2_147_483_543, 2_147_483_497, 2_147_483_489, 2_147_483_477, 2_147_483_423,
               2_147_483_399, 2_147_483_353, 2_147_483_323, 2_147_483_269, 2_147_483_249,
               2_147_483_237, 2_147_483_179, 2_147_483_171, 2_147_483_137, 2_147_483_123,
               2_147_483_077, 2_147_483_069, 2_147_483_059, 2_147_483_053, 2_147_483_033,
               2_147_483_029, 2_147_482_951, 2_147_482_949, 2_147_482_943, 2_147_482_937,
               2_147_482_921)
_PANEL = 64         # columns per elimination panel, fixed by the 2**53 bound in _mulmod
_CHUNK = 256        # rows per trailing panel update, to keep temporaries small
_DIRECT = 1_200     # systems with at most this many entries skip the modular screen


class ContractViolation(ValueError):
    """An operation was called outside its stated contract."""


class ExactComputationError(RuntimeError):
    """An exact kernel cannot produce a certified result for this input."""


# ---------------------------------------------------------------------------
# Fraction helpers for the edges
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


def is_zero(arr) -> bool:
    if isinstance(arr, Scaled):
        return not np.any(arr.ints)
    arr = np.asarray(arr)
    if arr.dtype != object:
        return not np.any(arr)
    return all(v == 0 for v in arr.reshape(-1))


def fraction_str(value: Fraction) -> str:
    value = q(value)
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def clear_denominators(arr) -> tuple[np.ndarray, int]:
    """Return ``(ints, scale)`` with ``ints == arr * scale`` entrywise and the least such scale."""
    value = Scaled.of(arr)
    return value.ints, value.scale


def from_ints(ints: np.ndarray, denom: int = 1) -> np.ndarray:
    """Fraction array from an integer array divided by ``denom``."""
    flat = ints.reshape(-1)
    out = np.empty(flat.shape[0], dtype=object)
    for i in range(flat.shape[0]):
        out[i] = Fraction(int(flat[i]), denom)
    return out.reshape(ints.shape)


# ---------------------------------------------------------------------------
# the scaled-integer array
# ---------------------------------------------------------------------------

_PRODUCT_LIMIT = 2**62   # int64 products, sums and their operands' bounds stay below this
_NARROW_LIMIT = 2**60    # Python-int arrays and scalar multiples below this become int64
_FLOAT_LIMIT = 2**53     # products whose every partial sum stays below this run on float64 BLAS


def _float_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of int64 arrays whose every partial sum is an integer below
    ``2**53`` through float64 BLAS, exact in any summation order (as in
    :func:`_mulmod`).  The operands that carry the result's first axis are
    converted in blocks of about ``_CHUNK`` rows into the int64 result."""
    if a.size <= _CHUNK * a.shape[-1] and b.size <= _CHUNK * b.shape[-1]:   # one block each
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    stacks = a.shape[:-2] == b.shape[:-2]
    cut_a, cut_b = a.ndim > 1 and (b.ndim <= 2 or stacks), b.ndim > 2 and (a.ndim <= 2 or stacks)
    lead = a if cut_a else b
    step = max(1, _CHUNK * max(1, lead.shape[-1]) // max(1, lead[:1].size))
    if not (cut_a or cut_b) or len(lead) <= step:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    whole_a, whole_b = (None if cut else x.astype(np.float64) for x, cut in ((a, cut_a), (b, cut_b)))
    out = None
    for s in range(0, len(lead), step):
        part = ((a[s:s + step].astype(np.float64) if cut_a else whole_a)
                @ (b[s:s + step].astype(np.float64) if cut_b else whole_b))
        if out is None:
            out = np.empty((len(lead),) + part.shape[1:], dtype=np.int64)
        out[s:s + step] = part
    return out


class Scaled:
    """The exact rational array ``ints / scale``: integers and one positive scale.

    ``ints`` is int64 or an object array of Python ints.  :attr:`bound`, an upper
    bound on the absolute entries, carried by int64 results and scanned before it
    rules a tier out, decides in O(1) whether a product can stay int64 (``bound *
    bound * inner < 2**62``), on float64 BLAS below ``2**53`` (:func:`_float_matmul`);
    past that, int64 operands are first divided by their gcd, and whatever still
    does not fit runs on Python ints, is divided by its gcd and goes back to
    int64 when it fits.  Values are immutable and support ``@``, ``+``, ``-``,
    scalar products, indexing (a single entry is a Fraction), ``.T`` and
    ``reshape``.  :meth:`fractions` (also ``np.asarray``) is the Fraction view,
    built on demand and never cached.
    """

    __slots__ = ("ints", "scale", "_bound", "_scanned")
    __array_ufunc__ = None     # ndarray operands defer to the reflected operators below

    def __init__(self, ints, scale: int = 1, bound: int | None = None):
        ints = np.asarray(ints)
        scanned = ints.dtype == object
        if scanned:
            bound = Scaled._scan(ints)
            if bound < _NARROW_LIMIT:
                ints = ints.astype(np.int64)
        elif ints.dtype != np.int64:
            if not np.issubdtype(ints.dtype, np.integer):
                raise ContractViolation(f"exact integers cannot have dtype {ints.dtype}")
            ints = ints.astype(np.int64)
        Scaled._carry(ints, int(scale), bound, scanned, self)

    @staticmethod
    def _carry(ints, scale: int, bound: int | None, scanned=False, value=None) -> "Scaled":
        """``ints / scale`` (a new value unless ``value`` is given), built without
        checks: entries at most ``bound`` (None: not known yet), attained if ``scanned``."""
        value = object.__new__(Scaled) if value is None else value
        put = object.__setattr__
        put(value, "ints", ints), put(value, "scale", scale), put(value, "_bound", bound)
        put(value, "_scanned", scanned)
        return value

    def __setattr__(self, name, value):
        raise AttributeError("Scaled values are immutable")

    @classmethod
    def of(cls, value) -> "Scaled":
        """``value`` as a Scaled: integer arrays at scale 1; Fractions, ints or
        numeric strings (nested lists or arrays) over their least common denominator."""
        if isinstance(value, Scaled):
            return value
        arr = np.asarray(value)
        if np.issubdtype(arr.dtype, np.integer):
            return cls(arr)
        flat = qarray(arr).reshape(-1)
        scale = math.lcm(*(v.denominator for v in flat))
        ints = np.array([v.numerator * (scale // v.denominator) for v in flat], dtype=object)
        return cls(ints.reshape(arr.shape), scale)

    @staticmethod
    def zeros(shape) -> "Scaled":
        return Scaled(np.zeros(shape, dtype=np.int64), 1, 0)

    @staticmethod
    def concat(parts, axis: int = 0) -> "Scaled":
        """The parts joined along ``axis`` over the lcm of their scales."""
        scale = math.lcm(*(p.scale for p in parts))
        parts = [p * (scale // p.scale) for p in parts]
        return Scaled(np.concatenate([p.ints for p in parts], axis=axis), scale,
                      max(p.bound for p in parts))

    @staticmethod
    def _scan(ints: np.ndarray) -> int:
        return max(int(ints.max()), -int(ints.min())) if ints.size else 0

    @staticmethod
    def _rescan(*values: "Scaled") -> bool:
        """Replace carried bounds by scanned ones; whether any bound was carried."""
        carried = [v for v in values if not v._scanned]
        for v in carried:
            Scaled._carry(v.ints, v.scale, Scaled._scan(v.ints), True, v)
        return bool(carried)

    @staticmethod
    def _exact(ints, scale: int) -> "Scaled":
        """A Python-int result over ``scale``, divided by the gcd of its entries and scale."""
        ints = np.asarray(ints, dtype=object)
        g = math.gcd(scale, *ints.reshape(-1).tolist())
        return Scaled(ints // g, scale // g) if g > 1 else Scaled(ints, scale)

    # -- queries -------------------------------------------------------------

    @property
    def bound(self) -> int:
        if self._bound is None:
            Scaled._rescan(self)
        return self._bound

    @property
    def shape(self) -> tuple[int, ...]:
        return self.ints.shape

    def __len__(self) -> int:
        return len(self.ints)

    def fits(self, other: "Scaled", inner: int, limit: int = _PRODUCT_LIMIT) -> bool:
        """Whether every sum of ``inner`` products of entries of both is below ``limit``."""
        return (self.ints.dtype == np.int64 and other.ints.dtype == np.int64
                and (max(1, self.bound) * max(1, other.bound) * max(1, inner) < limit
                     or Scaled._rescan(self, other) and self.fits(other, inner, limit)))

    def reduced(self) -> "Scaled":
        """The same value with the integers and the scale divided by their gcd."""
        if self.scale == 1:
            return self
        if self.ints.dtype == object:
            return Scaled._exact(self.ints, self.scale)
        g = math.gcd(self.scale, int(np.gcd.reduce(self.ints.reshape(-1))) if self.ints.size else 0)
        if g == 1:
            return self
        return Scaled._carry(self.ints // g, self.scale // g, self._bound and self._bound // g,
                             self._scanned)

    def equals(self, other) -> bool:
        """Equality of values (shape and every entry)."""
        other = Scaled.of(other)
        return self.shape == other.shape and not np.any((self - other).ints)

    def scalar(self) -> Fraction | None:
        """``c`` when this square matrix is ``c`` times the identity, else None."""
        diag = np.diagonal(self.ints)
        if np.any(self.ints - np.diag(diag)) or np.any(diag != diag[0]):
            return None
        return Fraction(int(diag[0]), self.scale)

    def strs(self) -> list[str]:
        """:func:`fraction_str` of every entry in row-major order, read off the integers."""
        out = []
        for n in self.ints.reshape(-1).tolist():
            g = math.gcd(n, self.scale)
            out.append(str(n // g) if g == self.scale else f"{n // g}/{self.scale // g}")
        return out

    def fractions(self) -> np.ndarray:
        """The Fraction array of the value, built afresh on every call."""
        return from_ints(self.ints, self.scale)

    def __array__(self, dtype=None, copy=None):
        return self.fractions() if dtype is None else self.fractions().astype(dtype)

    def tolist(self) -> list:
        return self.fractions().tolist()

    # -- views ---------------------------------------------------------------

    def __getitem__(self, key):
        part = self.ints[key]
        if isinstance(part, np.ndarray):
            return (Scaled._carry(part, self.scale, self._bound) if part.dtype == np.int64
                    else Scaled(part, self.scale))      # a part of a Python-int array may fit int64
        return Fraction(int(part), self.scale)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def T(self) -> "Scaled":
        return Scaled._carry(self.ints.T, self.scale, self._bound, self._scanned)

    def transpose(self, *axes) -> "Scaled":
        return Scaled._carry(self.ints.transpose(*axes), self.scale, self._bound, self._scanned)

    def reshape(self, *shape) -> "Scaled":
        return Scaled._carry(self.ints.reshape(*shape), self.scale, self._bound, self._scanned)

    # -- arithmetic ----------------------------------------------------------

    def __matmul__(self, other) -> "Scaled":
        a, b = self, Scaled.of(other)
        inner = a.ints.shape[-1] if a.ints.ndim else 1
        if not a.fits(b, inner):
            a, b = (s.reduced() if s.ints.dtype == np.int64 else s for s in (a, b))
        if not a.fits(b, inner):
            return Scaled._exact(np.matmul(a.ints.astype(object), b.ints.astype(object)),
                                 a.scale * b.scale)
        floats = a.fits(b, inner, _FLOAT_LIMIT)
        return Scaled._carry((_float_matmul if floats else np.matmul)(a.ints, b.ints),
                             a.scale * b.scale, a.bound * b.bound * inner)

    def __mul__(self, k) -> "Scaled":
        if isinstance(k, (Scaled, np.ndarray)):
            return NotImplemented
        k = q(k)
        num = k.numerator
        if self.ints.dtype == np.int64 and max(1, self.bound) * abs(num) >= _NARROW_LIMIT:
            Scaled._rescan(self)
        if self.ints.dtype == np.int64 and max(1, self.bound) * abs(num) < _NARROW_LIMIT:
            return Scaled._carry(self.ints * num if num != 1 else self.ints,
                                 self.scale * k.denominator, self.bound * abs(num), self._scanned)
        return Scaled(self.ints.astype(object) * num, self.scale * k.denominator)

    __rmul__ = __mul__

    def __neg__(self) -> "Scaled":
        return Scaled._carry(-self.ints, self.scale, self._bound, self._scanned)

    def __add__(self, other) -> "Scaled":
        if isinstance(other, int) and other == 0:   # the start of sum()
            return self
        other = Scaled.of(other)
        scale = math.lcm(self.scale, other.scale)
        fa, fb = scale // self.scale, scale // other.scale
        if self.ints.dtype == np.int64 and other.ints.dtype == np.int64 and (
                max(1, self.bound) * fa + max(1, other.bound) * fb < _PRODUCT_LIMIT
                or Scaled._rescan(self, other)
                and max(1, self.bound) * fa + max(1, other.bound) * fb < _PRODUCT_LIMIT):
            return Scaled._carry((self.ints if fa == 1 else self.ints * fa)
                                 + (other.ints if fb == 1 else other.ints * fb),
                                 scale, self.bound * fa + other.bound * fb)
        return Scaled._exact(self.ints.astype(object) * fa + other.ints.astype(object) * fb, scale)

    __radd__ = __add__

    def __sub__(self, other) -> "Scaled":
        return self + -Scaled.of(other)

    def __rsub__(self, other) -> "Scaled":
        return -self + other


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------

def _over(rows: list[list[int]], det: int, ncols: int) -> Scaled:
    """The integer ``rows`` divided by the positive ``det``, reduced."""
    return Scaled._exact(np.array(rows, dtype=object).reshape(len(rows), ncols), det)


def _nullspace_from_rref(rows: list[list], pivots: list[int], ncols: int, det: int) -> Scaled:
    """Nullspace basis (rows) from ``rows``, which are ``det`` times an rref."""
    free = [c for c in range(ncols) if c not in pivots]
    basis = [[0] * ncols for _ in free]
    for b, fc in enumerate(free):
        basis[b][fc] = det
        for r, pc in enumerate(pivots):
            basis[b][pc] = -rows[r][fc]
    return _over(basis, det, ncols)


def rank_exact(mat) -> int:
    """Rank over the rationals via fraction-free elimination."""
    return len(_eliminate_int(Scaled.of(mat).ints.tolist(), reduce_above=False)[0])


def _eliminate_int(work: list[list[int]], reduce_above: bool,
                   minors: list[int] | None = None) -> tuple[list[int], int]:
    """Fraction-free elimination of the integer rows ``work`` in place, on primitive rows.

    Returns the pivot columns and ``det``, the positive lcm of the pivot
    entries.  At a pivot ``p`` a row with head ``h`` becomes
    ``(a * row - b * pivot_row) / content`` (``a/b = p/h`` in lowest terms);
    a row with head 0 is left alone.  Each row is the input row or the
    primitive part of Bareiss's (Math. Comp. 22, 1968), so no entry is larger.
    Forward only, the first rows are an echelon form; with ``reduce_above``
    each pivot row ends as ``det`` times its row of the rref.  ``minors``
    receives each step's entry at the pivot position before any swap; while
    the earlier pivots are positive so is ``a``, and the entry is a positive
    multiple of the Schur-complement pivot.
    """
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    piv_cols: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if work[i][c]), None)
        if pr is None:
            continue
        if minors is not None:
            minors.append(work[r][c])
        work[r], work[pr] = work[pr], work[r]
        p = work[r][c]
        lo = 0 if reduce_above else c
        tail = work[r][lo:]
        for i in range(0 if reduce_above else r + 1, nrows):
            head = work[i][c]
            if head and i != r:
                g = math.gcd(p, head)
                a, b = p // g, head // g
                new = [a * x - b * y for x, y in zip(work[i][lo:], tail)]
                g = math.gcd(*new)
                work[i][lo:] = [v // g for v in new] if g > 1 else new
        piv_cols.append(c)
        r += 1
    det = math.lcm(*(work[r][c] for r, c in enumerate(piv_cols)))
    if reduce_above:
        for r, c in enumerate(piv_cols):
            if (f := det // work[r][c]) != 1:
                work[r] = [v * f for v in work[r]]
    return piv_cols, det


def rref_exact(mat) -> tuple[Scaled, list[int]]:
    """Nonzero rows of the reduced row echelon form and its pivot columns."""
    value = Scaled.of(mat)
    rows = value.ints.tolist()
    pivots, det = _eliminate_int(rows, reduce_above=True)
    return _over(rows[:len(pivots)], det, value.shape[1]), pivots


def inverse(mat) -> Scaled:
    """The inverse of a square ``mat``, from Gauss-Jordan on ``[ints | scale*I]``.

    A tall ``mat`` of full column rank gets the right block ``T`` of the rref
    of ``[mat | I]``, with ``T @ mat = [I; 0]``.  Raises if the columns are
    dependent.
    """
    value = Scaled.of(mat)
    n, k = value.shape
    rows = [row + [value.scale * (i == j) for j in range(n)]
            for i, row in enumerate(value.ints.tolist())]
    pivots, det = _eliminate_int(rows, reduce_above=True)
    if pivots[:k] != list(range(k)):
        raise ContractViolation("matrix columns are linearly dependent")
    return _over([row[k:] for row in rows], det, n)


def _eliminate_modp(work: np.ndarray, reduce_above: bool,
                    p: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Scalar elimination mod the prime ``p`` of ``work`` in place, one pivot at a time.

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
        inv = pow(int(work[r, c]), -1, p)
        work[r, c:] = (work[r, c:] * inv) % p
        lo = 0 if reduce_above else r + 1
        others = lo + np.flatnonzero(work[lo:, c])
        others = others[others != r]
        if others.size:
            work[others, c:] = (work[others, c:] - work[others, c][:, None] * work[r, c:][None, :]) % p
        piv_cols.append(c)
        r += 1
    return piv_cols, swaps


def _mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact ``(a @ b) % p`` of int64 residues mod a prime ``p < 2**31``, with
    at most ``_PANEL`` inner terms.

    Float64 products on the 16-bit limbs of ``b``: every partial sum is an
    integer below ``_PANEL * (p - 1) * 0xFFFF < 2**53``, hence exact in any
    summation order.
    """
    if a.shape[-1] > _PANEL:
        raise ContractViolation(f"_mulmod sums at most {_PANEL} products")
    af = a.astype(np.float64)
    low = (af @ (b & 0xFFFF).astype(np.float64)).astype(np.int64) % p
    high = (af @ (b >> 16).astype(np.float64)).astype(np.int64) % p
    return (low + (high << 16)) % p


def _modp_pivots(mat_int: np.ndarray, p: int):
    """Gauss-Jordan elimination mod the prime ``p < 2**31``.

    Returns ``(rank, pivot cols, reduced)`` where ``reduced`` is the working
    array, a fully reduced rref.

    Up to ``_PANEL`` columns this is the scalar loop.  Wider inputs run
    blocked Gauss-Jordan over panels of ``_PANEL`` columns: the scalar loop,
    forward only, finds a panel's pivots and row swaps on the narrow block;
    the pivot rows are multiplied by the inverse of their pivot block, and
    every other row drops its pivot-column part as one :func:`_mulmod`
    product (exact: ``_PANEL`` inner terms keep float64 partial sums below
    ``2**53``).  The rref mod ``p`` is unique, so all three outputs equal the
    scalar loop's.
    """
    work = (np.asarray(mat_int) % p).astype(np.int64)
    nrows, ncols = work.shape
    if ncols <= _PANEL:
        piv_cols, _ = _eliminate_modp(work, reduce_above=True, p=p)
        return len(piv_cols), piv_cols, work
    piv_cols = []
    r = 0
    for c0 in range(0, ncols, _PANEL):
        if r == nrows:
            break
        cols, swaps = _eliminate_modp(work[r:, c0:c0 + _PANEL].copy(), reduce_above=False, p=p)
        if not cols:
            continue
        for a, b in swaps:
            work[[r + a, r + b]] = work[[r + b, r + a]]
        k = len(cols)
        pcols = [c0 + c for c in cols]
        pivots = work[r:r + k, c0:]
        pivots[:] = _mulmod(_inverse_modp(work[r:r + k, pcols], p), pivots, p)
        for lo, hi in ((0, r), (r + k, nrows)):
            for start in range(lo, hi, _CHUNK):
                rows = work[start:min(start + _CHUNK, hi)]
                rows[:, c0:] -= _mulmod(rows[:, pcols], pivots, p)
                rows[:, c0:] %= p
        piv_cols.extend(pcols)
        r += k
    return r, piv_cols, work


def _inverse_modp(block: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod ``p`` of an invertible square residue block, by the scalar loop on ``[A | I]``."""
    k = block.shape[0]
    aug = np.concatenate([block, np.eye(k, dtype=np.int64)], axis=1)
    piv_cols, _ = _eliminate_modp(aug, reduce_above=True, p=p)
    if piv_cols != list(range(k)):
        raise ExactComputationError("pivot block is singular mod p")
    return aug[:, k:]


def matmul_modp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact ``(a @ b) % _P`` of int64 residues: :func:`_mulmod` summed over
    slices of at most ``_PANEL`` of the inner dimension."""
    out = _mulmod(a[..., :_PANEL], b[..., :_PANEL, :], _P)
    for s in range(_PANEL, a.shape[-1], _PANEL):
        out = (out + _mulmod(a[..., s:s + _PANEL], b[..., s:s + _PANEL, :], _P)) % _P
    return out


def _kernel_rows(reduced: np.ndarray, rank: int, piv_cols: list[int], p: int) -> np.ndarray:
    """Kernel basis (rows) mod ``p`` read off a fully reduced rref: the
    identity on the free columns, minus the rref's entries on the pivot columns."""
    free = sorted(set(range(reduced.shape[1])) - set(piv_cols))
    kernel = np.eye(reduced.shape[1], dtype=np.int64)[free]
    kernel[:, piv_cols] = (-reduced[:rank, free].T) % p
    return kernel


def kernel_modp(mat) -> np.ndarray:
    """The canonical kernel basis (rows) of an integer matrix over GF(``_P``):
    the identity on the free columns of its rref."""
    rank, piv_cols, reduced = _modp_pivots(mat, _P)
    return _kernel_rows(reduced, rank, piv_cols, _P)


def rank_modp(mat) -> int:
    """The rank of an integer matrix over GF(``_P``): a lower bound on its
    rational rank, equal to it when the matrix has full rank mod ``_P``."""
    return _modp_pivots(mat, _P)[0]


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


def _reconstruct(residues: np.ndarray, modulus: int) -> Scaled | None:
    """The rational matrix whose entries reconstruct from ``residues`` mod
    ``modulus``, or None as soon as one entry does not."""
    flat = residues.reshape(-1).tolist()
    fracs = {}
    for a in set(flat):
        if (v := _rational_reconstruct(a, modulus)) is None:
            return None
        fracs[a] = v
    scale = math.lcm(*(v.denominator for v in fracs.values()))
    ints = {a: v.numerator * (scale // v.denominator) for a, v in fracs.items()}
    return Scaled._exact(np.array([ints[a] for a in flat], dtype=object).reshape(residues.shape), scale)


def _crt_lift(value: Scaled, rank: int, piv_cols: list[int], kernel: np.ndarray) -> Scaled | None:
    """The verified nullspace lifted from ``kernel``, the canonical kernel mod
    ``_P``, and the kernels mod the primes of ``_CRT_PRIMES``, or None.

    The first candidate reconstructs ``kernel`` mod ``_P``; while it fails
    ``value @ candidate.T == 0``, the next prime adds its kernel by the
    Chinese remainder theorem and the combination is reconstructed over the
    product of the primes used.  A prime with a lower rank or other pivot
    columns is skipped.  A higher rank proves that ``kernel`` has more rows
    than the nullspace (a rank mod p never exceeds the rational rank), so no
    lift can verify and the loop stops.
    """
    residues, modulus = kernel.astype(object), _P
    for p in (_P, *_CRT_PRIMES):
        if p != _P:
            rank_p, cols, reduced = _modp_pivots(value.ints, p)
            if rank_p > rank:
                return None
            if rank_p < rank or cols != piv_cols:
                continue
            step = (_kernel_rows(reduced, rank, piv_cols, p) - residues) * pow(modulus, -1, p) % p
            residues, modulus = residues + modulus * step, modulus * p
        candidate = _reconstruct(residues, modulus)
        if candidate is not None and not np.any((value @ candidate.T).ints):
            return candidate
    return None


def nullspace_exact(mat) -> Scaled:
    """Certified rational nullspace basis (rows) of ``mat``.

    Small systems run fraction-free Gauss-Jordan on the integers.
    Larger ones are eliminated mod ``_P``, whose rref gives the canonical
    kernel (the identity on its free columns); :func:`_crt_lift` reconstructs
    it rationally, adding the kernels mod further primes by the Chinese
    remainder theorem while the candidate fails, and verifies each candidate
    against the full matrix as an integer product (int64 when safe, Python
    ints otherwise).  A candidate has ``ncols - rank_p`` independent rows and
    rank mod p never exceeds rank over the rationals, so a verified one pins
    the nullity exactly, and it is the one nullspace basis that is the
    identity on those free columns.  When no lift verifies, exact
    elimination runs on all rows.
    """
    value = Scaled.of(mat)
    if value.ints.ndim != 2:
        raise ContractViolation("nullspace expects a 2-d matrix")
    nrows, ncols = value.shape
    if nrows * ncols <= _DIRECT:
        return _nullspace_int(value.ints.tolist(), ncols)
    rank_p, piv_cols, reduced = _modp_pivots(value.ints, _P)
    if rank_p == ncols:
        return Scaled.zeros((0, ncols))
    candidate = _crt_lift(value, rank_p, piv_cols, _kernel_rows(reduced, rank_p, piv_cols, _P))
    if candidate is not None:
        return candidate
    return _nullspace_int(value.ints.tolist(), ncols)


def _nullspace_int(rows: list[list[int]], ncols: int) -> Scaled:
    """Nullspace basis (rows) of integer rows, by fraction-free Gauss-Jordan in place."""
    pivots, det = _eliminate_int(rows, reduce_above=True)
    return _nullspace_from_rref(rows, pivots, ncols, det)


# ---------------------------------------------------------------------------
# linear solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Solution:
    """A particular solution together with a nullspace basis (rows), which
    :func:`solve_stack` leaves None unless asked for kernels."""

    x: Scaled
    nullspace: Scaled | None


@dataclass(frozen=True)
class Inconsistent:
    """Witness that ``A x = b`` has no solution: ``rank_a < rank_ab``."""

    rank_a: int
    rank_ab: int


def solve_linear(A, b):
    """Solve ``A x = b`` returning :class:`Solution` or :class:`Inconsistent`."""
    A, b = Scaled.of(A), Scaled.of(b)
    if A.ints.ndim != 2 or b.ints.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ContractViolation(f"solve_linear shape mismatch: {A.shape} vs {b.shape}")
    return solve_int(Scaled.concat([A, b.reshape(-1, 1)], axis=1).ints)


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
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][ncols]
    return Solution(x=_over([x], det, ncols)[0],
                    nullspace=_nullspace_from_rref(rows, pivots, ncols, det))


def solve_stack(aug, kernels: bool) -> list:
    """The exact answers of the stacked systems ``aug[n] = [A_n | b_n]``, in stack order.

    ``aug`` holds integers (int64 or Python ints) of shape ``(N, rows, k + 1)``;
    each system may carry its own positive scale.  One Gauss-Jordan
    elimination mod ``_P`` runs on the whole stack, column by column, each
    system taking its own first free nonzero pivot row.  Entry ``n`` is

    - a :class:`Solution` read off the reduced stack for a system consistent
      mod ``_P`` whose lift verifies (see :func:`_lift_solutions`);
    - the :func:`solve_int` answer of every other system: rank can drop mod
      p, so only the exact solve decides a system inconsistent mod ``_P`` or one
      whose lift fails;
    - None for every system after the first one that :func:`solve_int` finds
      inconsistent, so that a stack with a counterexample lifts only the
      systems before it.

    ``kernels`` says whether the solutions carry their nullspaces.
    """
    aug = np.asarray(aug)
    if aug.ndim != 3:
        raise ContractViolation("solve_stack expects a stack of augmented matrices")
    nsys, nrows, ncols = aug.shape
    work = (aug % _P).astype(np.int64)
    every = np.arange(nsys)
    free = np.ones((nsys, nrows), dtype=bool)             # rows not yet holding a pivot
    pivot_row = np.full((nsys, ncols - 1), -1)
    for c in range(ncols - 1):
        open_rows = (work[:, :, c] != 0) & free
        pr = open_rows.argmax(axis=1)
        has = open_rows[every, pr]
        if not has.any():
            continue
        pivots = work[every, pr]
        inv = [pow(v, -1, _P) if h else 0 for v, h in zip(pivots[:, c].tolist(), has.tolist())]
        pivots = pivots * np.array(inv, dtype=np.int64)[:, None] % _P
        # residues stay below 2**31, so every product fits int64
        work -= (work[:, :, c] * has[:, None])[:, :, None] * pivots[:, None, :]
        work %= _P
        work[every[has], pr[has]] = pivots[has]
        free[every[has], pr[has]] = False
        pivot_row[has, c] = pr[has]
    # free rows are zero on A; a system is consistent mod p iff they are zero on b
    consistent = ~np.any((work[:, :, -1] != 0) & free, axis=1)
    out: list = [None] * nsys
    stop = nsys
    for n in np.flatnonzero(~consistent).tolist():
        out[n] = solve_int(aug[n])
        if isinstance(out[n], Inconsistent):
            stop = n
            break
    lift = np.flatnonzero(consistent[:stop])
    if lift.size:
        # row c of rref[n] is the pivot row of column c, zero where c is free
        piv = pivot_row[lift]
        rref = np.where((piv >= 0)[:, :, None], work[lift[:, None], np.maximum(piv, 0)], 0)
        for n, sol in zip(lift.tolist(), _lift_solutions(aug[lift], rref, kernels)):
            out[n] = sol
    for n in range(stop):
        if out[n] is None:
            out[n] = solve_int(aug[n])
            if isinstance(out[n], Inconsistent):
                return out[:n + 1] + [None] * (nsys - n - 1)
    return out


def _lift_solutions(aug: np.ndarray, rref: np.ndarray, kernels: bool) -> list:
    """Verified rational solutions of the systems ``aug[n]`` from their reduced
    forms mod ``_P``, or None for each one that does not lift.

    ``rref[n]`` is ``(k, k + 1)``: row c is the reduced pivot row of column c,
    zero on free columns; the system must be consistent mod ``_P``.  Its
    particular solution sets the free variables to 0, ``x = rref[n, :, -1]``,
    and its canonical nullspace (the identity on the free columns) is the
    rows of ``I - rref[n, :, :k].T``, which are zero on pivot columns.  Both are
    rationally reconstructed over one denominator ``d_n`` per system into
    ``Y_n = d_n [[N.T, x], [0, -1]]`` (only ``[x; -1]`` without ``kernels``),
    and one stacked :class:`Scaled` product checks ``aug[n] @ Y_n = 0``, that
    is ``A x = b`` and ``A N.T = 0``.  Rank mod p never exceeds the rational
    rank, so a verified kernel of ``k - rank_p`` independent rows is the
    whole nullspace.  ``Solution.nullspace`` is None without ``kernels``.
    """
    nsys, k = rref.shape[:2]
    y = np.zeros((nsys, k + 1, k + 1 if kernels else 1), dtype=np.int64)
    y[:, :k, -1] = rref[:, :, -1]
    if kernels:
        y[:, :k, :k] = (np.eye(k, dtype=np.int64) - rref[:, :, :k]) % _P
    fracs = {}
    for a in set(y.ravel().tolist()):     # np.unique would import numpy.ma, 1 MiB
        if (v := _rational_reconstruct(a)) is not None:
            fracs[a] = (v.numerator, v.denominator)
    ys, scales, lifted = [], [], []
    for n, residues in enumerate(y.tolist()):
        entries = [fracs.get(a) for row in residues for a in row]
        if None in entries:
            continue
        d = math.lcm(*(den for _, den in entries))
        ys.append([num * (d // den) for num, den in entries[:-1]] + [-d])
        scales.append(d)
        lifted.append(n)
    out: list = [None] * nsys
    if not lifted:
        return out
    ys = Scaled(np.array(ys, dtype=object).reshape(len(lifted), k + 1, -1))
    ok = ~np.any((Scaled(aug[lifted]) @ ys).ints != 0, axis=(1, 2))
    for n, d, good, yn in zip(lifted, scales, ok.tolist(), ys.ints):
        if good:
            # a pivot column's kernel row is zero, a free one's is d on the diagonal
            null = Scaled(yn[:k, :k][:, yn.diagonal()[:k] != 0].T, d) if kernels else None
            out[n] = Solution(x=Scaled(yn[:k, -1], d), nullspace=null)
    return out


# ---------------------------------------------------------------------------
# symmetric operators
# ---------------------------------------------------------------------------

def is_positive_definite_exact(S) -> bool:
    """Exact positive definiteness of a symmetric rational matrix.

    Sylvester's criterion: every Schur-complement pivot is positive, with no
    row swap.  While the earlier ones are, each recorded pivot entry of
    :func:`_eliminate_int` is a positive multiple of the next one.
    """
    value = Scaled.of(S)
    if np.any(value.ints != value.ints.T):
        raise ContractViolation("positive definiteness test expects a symmetric matrix")
    minors: list[int] = []
    pivots, _ = _eliminate_int(value.ints.tolist(), reduce_above=False, minors=minors)
    return pivots == list(range(value.shape[0])) and all(m > 0 for m in minors)


def minimal_polynomial_exact(C) -> list[Fraction]:
    """Monic minimal polynomial of a rational square matrix, coefficients
    highest degree first, via Krylov chains of the integer matrix.

    The minimal polynomial is the least common multiple of the local
    annihilators ``ann(e)`` of the standard basis vectors.  Each step uses
    ``lcm(m, ann(e)) = m * ann(m(C) e)``: a vector that the running ``m``
    does not kill starts a Krylov chain at ``m(C) e``, and ``m`` is multiplied
    by that chain's monic dependence polynomial.  The loop stops early once
    the degree reaches the matrix size.  A monic lcm is unique, so this is
    the polynomial sympy's ``lcm`` gives, without sympy.  The chains run on
    ``c = scale * C``, whose minimal polynomial ``m_c`` gives
    ``m_C(x) = m_c(scale * x) / scale**deg``.
    """
    value = Scaled.of(C)
    c, n = Scaled(value.ints), value.shape[0]
    poly = [Fraction(1)]
    for seed in range(n):
        if len(poly) > n:
            break
        start = _eval_poly(_primitive(poly), c, Scaled(np.eye(n, dtype=np.int64)[seed]))
        if is_zero(start):
            continue
        chain = [start]
        echelon: list[list[int]] = []
        while (rep := _reduce_against(echelon, chain[-1].ints.tolist())) is not None:
            echelon.append(rep)
            chain.append(c @ chain[-1])
        poly = _poly_mul(poly, _dependence(chain)[::-1])
    return [a / value.scale ** i for i, a in enumerate(poly)]


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


def _reduce_against(echelon: list[list[int]], work: list[int]) -> list[int] | None:
    """Reduce integer ``work`` fraction-free against echelon rows; the
    primitive row to append, or None if it is dependent."""
    for row in echelon:
        lead = next(i for i, v in enumerate(row) if v)
        if work[lead]:
            p, h = row[lead], work[lead]
            work = [p * w - h * x for w, x in zip(work, row)]
    if not any(work):
        return None
    g = math.gcd(*work)
    return [w // g for w in work]


def _dependence(chain: list[Scaled]) -> list[Fraction]:
    """Monic dependence coefficients: chain[-1] = sum c_i chain[i]."""
    mat = Scaled.concat([v.reshape(-1, 1) for v in chain[:-1]], axis=1)
    sol = solve_linear(mat, chain[-1])
    if isinstance(sol, Inconsistent):  # pragma: no cover - contradicts chain construction
        raise ExactComputationError("krylov dependence solve failed")
    return [-c for c in sol.x] + [Fraction(1)]


def _eval_poly(poly: list[int], c: Scaled, v: Scaled) -> Scaled:
    """``poly(c) @ v`` by Horner's rule, for integer coefficients (highest first)."""
    out = Scaled.zeros(v.shape)
    for a in poly:
        out = c @ out + v * a
    return out


def polynomial_at(poly: list, C) -> Scaled:
    """A positive multiple of ``poly(C)`` for a rational polynomial (highest
    degree first) with a positive lead: its primitive integer form
    ``sum(a_i x**(d-i))`` evaluated as ``sum(a_i scale**i c**(d-i))`` on the
    integers ``c = scale * C``, which is ``scale**d`` times it at ``C``."""
    value = Scaled.of(C)
    coeffs = [a * value.scale ** i for i, a in enumerate(_primitive(poly))]
    return _eval_poly(coeffs, Scaled(value.ints), Scaled(np.eye(len(value), dtype=np.int64)))


def primary_invariant_split(C) -> list[tuple[list[int], Scaled]]:
    """Primary decomposition of a rational matrix over the rationals.

    Returns ``(factor, basis rows)`` per irreducible factor of the minimal
    polynomial, in :func:`rational_factors` form and order; the kernels are
    exact and their dimensions sum to the ambient dimension whenever ``C`` is
    diagonalizable (always, for form-symmetric inputs).  Each factor's kernel
    is that of :func:`polynomial_at`, a positive multiple of it at ``C``.
    """
    value = Scaled.of(C)
    n = value.shape[0]
    pieces = []
    total = 0
    for factor in rational_factors(minimal_polynomial_exact(value)):
        kernel = nullspace_exact(polynomial_at(factor, value))
        if kernel.shape[0]:
            pieces.append((factor, kernel))
            total += kernel.shape[0]
    if total != n:
        raise ExactComputationError("primary decomposition did not exhaust the space "
                                    "(matrix is not semisimple over the rationals)")
    return pieces

