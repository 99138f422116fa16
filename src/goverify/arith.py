"""Exact rational arithmetic and dense linear-algebra kernels.

Exact data lives in :class:`Scaled` values, an integer array over one
positive scale, like FLINT's cleared-denominator rational matrices
(``fmpq_mat_get_fmpz_mat_matwise``, ``fmpq_mat_mul_cleared``), and it is the
only exact array type: ``np.asarray`` of a value raises.  Fractions appear
only at the edges: parsing (:meth:`Scaled.of`, through :func:`qarray`), single
entries and the report.  There is no floating-point backend, and zero tests
are literal.

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

Nullspaces are certified by :func:`certified_kernel` from a canonical kernel
mod ``_P`` (the identity on the free columns of the rref): its rational
reconstruction is verified by one exact product; failing that,
:func:`_padic_lift` lifts it on the pivot columns the kernel shows (Dixon,
Numer. Math. 40, 1982), and exact elimination of all rows runs when a lifted
candidate shows that the rank or the pivot columns moved mod ``_P``, or when
the lift passes its Hadamard bound.

Stacks of small systems, the witness systems of a geodesic-orbit verdict, go
to :func:`solve_stack`: one Gauss-Jordan elimination mod ``_P`` over the
stack, then one stacked :func:`_reconstruct` and one exact product for the
canonical kernels of the systems consistent mod ``_P``.  Every other system
runs :func:`solve_int`, which also gives the rank gap of an inconsistent one;
every system up to the first exactly inconsistent one is decided.

Modular screening works over GF(``_P``), one prime below ``2**31``.  The
rank estimate of :mod:`goverify.subspaces` and the Casimir test of
:mod:`goverify.reps` decide by :func:`rank_modp` alone.  The elimination
(:func:`_modp_pivots`) reduces wide systems in panels of ``_PANEL = 64``
columns; each panel's update of the other rows is one :func:`_mulmod`
product mod p (float64 BLAS products on 16-bit limbs), and
:func:`matmul_modp` sums such products over longer inner dimensions.
Residues are below ``2**31`` and limbs below ``2**16``, so a sum of at most
64 products stays below ``2**53`` and every product is exact, whatever the
BLAS summation order or thread count.

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


def is_zero(arr) -> bool:
    return not np.any(Scaled.of(arr).ints)


def fraction_str(value: Fraction) -> str:
    value = q(value)
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


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
    ``reshape``.  There is no Fraction-array view: ``np.asarray`` of a value
    raises ``TypeError``, and callers read ``ints`` and ``scale``.
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

    def __array__(self, *args, **kwargs):
        raise TypeError("a Scaled value has no implicit array form; read .ints and .scale")

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
        inv = pow(int(work[r, c]), -1, _P)
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


def _modp_pivots(mat_int: np.ndarray):
    """Gauss-Jordan elimination mod ``_P``.

    Returns ``(rank, pivot cols, reduced)`` where ``reduced`` is the working
    array, a fully reduced rref.

    Up to ``_PANEL`` columns this is the scalar loop.  Wider inputs run
    blocked Gauss-Jordan over panels of ``_PANEL`` columns: the scalar loop,
    forward only, finds a panel's pivots and row swaps on the narrow block;
    the pivot rows are multiplied by the inverse of their pivot block, and
    every other row drops its pivot-column part as one :func:`_mulmod`
    product (exact: ``_PANEL`` inner terms keep float64 partial sums below
    ``2**53``).  The rref mod ``_P`` is unique, so all three outputs equal the
    scalar loop's.
    """
    work = (np.asarray(mat_int) % _P).astype(np.int64)
    nrows, ncols = work.shape
    if ncols <= _PANEL:
        piv_cols, _ = _eliminate_modp(work, reduce_above=True)
        return len(piv_cols), piv_cols, work
    piv_cols = []
    r = 0
    for c0 in range(0, ncols, _PANEL):
        if r == nrows:
            break
        cols, swaps = _eliminate_modp(work[r:, c0:c0 + _PANEL].copy(), reduce_above=False)
        if not cols:
            continue
        for a, b in swaps:
            work[[r + a, r + b]] = work[[r + b, r + a]]
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
    return r, piv_cols, work


def _inverse_modp(block: np.ndarray) -> np.ndarray:
    """Inverse mod ``_P`` of an invertible square residue block, by the scalar loop on ``[A | I]``."""
    k = block.shape[0]
    aug = np.concatenate([block, np.eye(k, dtype=np.int64)], axis=1)
    piv_cols, _ = _eliminate_modp(aug, reduce_above=True)
    if piv_cols != list(range(k)):
        raise ExactComputationError("pivot block is singular mod p")
    return aug[:, k:]


def matmul_modp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact ``(a @ b) % _P`` of int64 residues: :func:`_mulmod` summed over
    slices of at most ``_PANEL`` of the inner dimension."""
    out = _mulmod(a[..., :_PANEL], b[..., :_PANEL, :])
    for s in range(_PANEL, a.shape[-1], _PANEL):
        out = (out + _mulmod(a[..., s:s + _PANEL], b[..., s:s + _PANEL, :])) % _P
    return out


def kernel_modp(mat) -> np.ndarray:
    """The canonical kernel basis (rows) of an integer matrix over GF(``_P``):
    the identity on the free columns of its rref, minus the rref's entries on
    the pivot columns."""
    rank, piv_cols, reduced = _modp_pivots(mat)
    free = sorted(set(range(reduced.shape[1])) - set(piv_cols))
    kernel = np.eye(reduced.shape[1], dtype=np.int64)[free]
    kernel[:, piv_cols] = (-reduced[:rank, free].T) % _P
    return kernel


def rank_modp(mat) -> int:
    """The rank of an integer matrix over GF(``_P``): a lower bound on its
    rational rank, equal to it when the matrix has full rank mod ``_P``."""
    return _modp_pivots(mat)[0]


def _rational_reconstruct(a: int, modulus: int) -> tuple[int, int] | None:
    """``(n, d)`` in lowest terms with n = a*d mod modulus and |n|, d below
    sqrt(modulus/2), or None."""
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
    return n, d


def _reconstruct(residues: np.ndarray, modulus: int) -> tuple[np.ndarray, list[int | None]]:
    """``(ints, scales)`` with ``ints[n] / scales[n]`` the rational reconstruction
    mod ``modulus`` of ``residues[n]`` over its least denominator, or a None
    scale (zero ints) once one of its entries fails.  The stack shares one
    table of reconstructed residues."""
    table: dict[int, tuple[int, int] | None] = {}
    ints, scales = [], []
    for system in residues.reshape(len(residues), -1).tolist():
        for a in set(system).difference(table):
            table[a] = _rational_reconstruct(a, modulus)
            if table[a] is None:
                break
        entries = list(map(table.get, system))
        d = None if None in entries else math.lcm(*(den for _, den in entries))
        ints.append([0] * len(system) if d is None else [num * (d // den) for num, den in entries])
        scales.append(d)
    return np.array(ints, dtype=object).reshape(residues.shape), scales


def certified_kernel(mat, kernel: np.ndarray) -> Scaled:
    """The certified canonical rational nullspace basis (rows) of the integer
    system ``mat`` from ``kernel``, its canonical kernel mod ``_P``.  ``mat`` is
    a :class:`Scaled` or any value with its ``ints`` and ``@``.

    The reconstruction of ``kernel`` mod ``_P`` is checked against every row
    by one exact product; when that fails, :func:`_padic_lift` lifts it on the
    pivot columns (each row's last nonzero entry is its free column), and
    without a candidate Bareiss runs on all rows.  Rank mod p never exceeds
    the rational rank, so a verified candidate of ``len(kernel)`` rows, zero
    right of each free column, is the canonical basis.
    """
    ncols = kernel.shape[1]
    ints, (scale,) = _reconstruct(kernel[None], _P)
    if scale is not None:
        candidate = Scaled(ints[0], scale)
        if not np.any((mat @ candidate.T).ints):
            return candidate
    free = ncols - 1 - np.argmax(kernel[:, ::-1] != 0, axis=1)
    lifted = _padic_lift(mat, free.tolist())
    return lifted if lifted is not None else _nullspace_int(mat.ints.tolist(), ncols)


def _padic_lift(value, free: list[int]) -> Scaled | None:
    """The canonical nullspace of ``value`` by Dixon's p-adic lift (Numer.
    Math. 40, 1982) on its pivot columns mod ``_P``, the complement of the
    ascending free columns ``free``, or None.

    ``rows`` are the first rows independent mod ``_P`` on the pivot columns,
    and ``B``, ``F`` their pivot and free columns; ``B`` is invertible mod
    ``_P``, hence over the rationals.  From ``r = -F``, each step adds
    ``x = B^-1 r mod _P`` to ``X = -B^-1 F mod _P^k`` and sets
    ``r = (r - B x) / _P``.  At ``k = 2, 4, 8, ...`` the kernel ``[X | I]`` is
    reconstructed and checked against every row with one product.  A
    candidate that solves ``rows`` is ``X``: the canonical kernel if it solves
    every row and is zero right of each free column; otherwise the rank or
    the pivot columns moved mod ``_P`` (None).  Cramer's rule bounds the
    numerators and denominators of ``X`` by the Hadamard bound ``H`` of
    ``[B | F]``, so ``X`` reconstructs once ``_P^k > 2 H**2``, where the lift stops.
    """
    ncols = value.ints.shape[1]
    piv_cols = sorted(set(range(ncols)) - set(free))
    rows = _modp_pivots(value.ints[:, piv_cols].T)[1]
    b, residual = Scaled(value.ints[rows][:, piv_cols]), -Scaled(value.ints[rows][:, free])
    inverse = _inverse_modp((b.ints % _P).astype(np.int64))
    limit = 2 * math.prod(sum(v * v for v in row) for row in value.ints[rows].tolist())
    kernel, beyond = np.eye(ncols, dtype=object)[free], np.arange(ncols) > np.array(free)[:, None]
    lifted, modulus, attempt = np.zeros(residual.shape, dtype=object), 1, _P**2
    while modulus <= limit:
        x = matmul_modp(inverse, (residual.ints % _P).astype(np.int64))
        lifted += x.astype(object) * modulus
        residual = Scaled((residual - b @ Scaled(x)).ints // _P)
        modulus *= _P
        if modulus == attempt or modulus > limit:
            attempt *= attempt
            kernel[:, piv_cols] = lifted.T
            ints, (scale,) = _reconstruct(kernel[None], modulus)
            if scale is not None:
                candidate = Scaled(ints[0], scale)
                product = (value @ candidate.T).ints
                if not np.any(product[rows]):
                    return None if np.any(product) or np.any(candidate.ints[beyond]) else candidate
    return None


def nullspace_exact(mat) -> Scaled:
    """Certified rational nullspace basis (rows) of ``mat``: fraction-free
    Gauss-Jordan on the integers for systems of at most ``_DIRECT`` entries,
    :func:`certified_kernel` of the canonical kernel mod ``_P`` for larger ones.
    """
    value = Scaled.of(mat)
    if value.ints.ndim != 2:
        raise ContractViolation("nullspace expects a 2-d matrix")
    if value.ints.size <= _DIRECT:
        return _nullspace_int(value.ints.tolist(), value.shape[1])
    return certified_kernel(value, kernel_modp(value.ints))


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
    zero on free columns; the system must be consistent mod ``_P``.  With
    ``x = rref[n, :, -1]`` (free variables 0) and ``N`` the rows of
    ``I - rref[n, :, :k].T``, ``Y_n = [[N.T, x], [0, -1]]`` (only ``[x; -1]``
    without ``kernels``) is the canonical kernel of ``[A | b]`` as columns, up
    to zero columns and the sign of ``[x; -1]``.  One stacked
    :func:`_reconstruct` lifts every ``Y_n`` and one stacked product checks
    ``aug[n] @ Y_n = 0``; rank mod p never exceeds the rational rank, so a
    verified kernel of ``k - rank_p`` rows is the whole nullspace.
    """
    nsys, k = rref.shape[:2]
    y = np.zeros((nsys, k + 1, k + 1 if kernels else 1), dtype=np.int64)
    y[:, :k, -1] = rref[:, :, -1]
    y[:, k, -1] = _P - 1
    if kernels:
        y[:, :k, :k] = (np.eye(k, dtype=np.int64) - rref[:, :, :k]) % _P
    ints, scales = _reconstruct(y, _P)
    lifted = [n for n, d in enumerate(scales) if d is not None]
    out: list = [None] * nsys
    if not lifted:
        return out
    ys = Scaled(ints[lifted])
    ok = ~np.any((Scaled(aug[lifted]) @ ys).ints != 0, axis=(1, 2))
    for n, good, yn in zip(lifted, ok.tolist(), ys.ints):
        if good:
            # a pivot column's kernel row is zero, a free one's is d on the diagonal
            null = Scaled(yn[:k, :k][:, yn.diagonal()[:k] != 0].T, scales[n]) if kernels else None
            out[n] = Solution(x=Scaled(yn[:k, -1], scales[n]), nullspace=null)
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

