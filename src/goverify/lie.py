"""Structure-constant models of compact Lie algebras.

An algebra is a basis ``e_1, ..., e_d`` with ``[e_i, e_j] = sum_k c[i,j,k] e_k``.
As in de Graaf, *Lie Algebras: Theory and Algorithms* (2000), ch. 1, only
nonzero constants are stored: :attr:`StructureAlgebra.coo` holds read-only
integer arrays ``(i, j, k, c)``, 0-based and sorted by ``(i, j, k)``, with
``c[i,j,k] = c / scale`` for one positive, reduced ``scale``.  Every
contraction with the constants goes through :meth:`StructureAlgebra.contract`,
which returns ``ad(v)`` as integers and a scale.  Validation is exact and sparse
and runs once per algebra (:attr:`StructureAlgebra.validated`): antisymmetry, then
one check, by COO joins in blocks of index pairs, that the adjoint matrices and
any realization ``R_a`` satisfy ``[R_a, R_b] = sum_k c[a,b,k] R_k``.

Basis conventions
-----------------
``so(n)``
    ``A[i,j] = E_ij - E_ji`` for ``1 <= i < j <= n``, ordered
    lexicographically by ``(i, j)``.

``su(n)``
    For every pair ``i < j`` the two elements ``S[i,j] = E_ij - E_ji`` and
    ``T[i,j] = i (E_ij + E_ji)``, in lexicographic pair order with S before
    T, followed by the diagonal elements ``D[k] = i (E_kk - E_{k+1,k+1})``
    for ``k = 1, ..., n-1``.

``sp(n)``
    The compact real form realized as complex ``2n x 2n`` matrices
    ``[[A, B], [-conj(B), conj(A)]]`` with ``A`` anti-Hermitian and ``B``
    complex symmetric.  The basis lists the ``A``-part (``S``/``T`` pairs as
    for ``su``, then ``i E_kk``) followed by the ``B``-part (real symmetric
    units, then ``i`` times them).

Complex matrices are stored through their real ``2m x 2m`` embedding
``[[Re, -Im], [Im, Re]]``, so every classical realization is an integer
stack and its check stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import arith
from .arith import ContractViolation, Scaled


# terms summed at once by the representation check (about 100 bytes each at the peak)
_TERM_BUDGET = 2**18


class ValidationError(ValueError):
    """A structure table or tensor violates an algebra axiom."""


# ---------------------------------------------------------------------------
# symmetric bilinear forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetricForm:
    """A symmetric bilinear form in basis coordinates."""

    matrix: Scaled

    def __post_init__(self):
        mat = Scaled.of(self.matrix)
        if np.any(mat.ints != mat.ints.T):
            raise ContractViolation("form matrix must be symmetric")
        object.__setattr__(self, "matrix", mat)

    @cached_property
    def positive_definite(self) -> bool:
        return arith.is_positive_definite_exact(self.matrix)

    @cached_property
    def degenerate(self) -> bool:
        n = self.matrix.shape[0]
        return arith.rank_exact(self.matrix) < n

    def inner(self, x, y) -> Fraction:
        return (Scaled.of(x) @ (self.matrix @ Scaled.of(y)))[()]

    def is_ad_invariant(self, algebra: "StructureAlgebra") -> bool:
        """Exact check of B([X,Y],Z) + B(Y,[X,Z]) = 0 on all basis triples."""
        return not np.any(algebra.skewness(self.matrix).ints)


# ---------------------------------------------------------------------------
# the algebra itself
# ---------------------------------------------------------------------------

class StructureAlgebra:
    """A finite-dimensional real Lie algebra given by structure constants.

    The constants come as ``coo=(i, j, k, c)`` and ``scale`` (integer entries
    in any order, repeats summed).
    ``realization`` optionally holds real-embedded basis matrices whose
    commutators must reproduce the constants: the classical families store
    an integer ``(dim, m, m)`` stack, and any exact stack is accepted.
    """

    def __init__(self, dim: int, labels: tuple[str, ...] = (),
                 realization=None, name: str = "",
                 inner_product: SymmetricForm | None = None, *, coo=None, scale: int = 1):
        self.dim = dim
        self.coo, self.scale = _canonical_coo(dim, coo or ((), (), (), ()), scale)
        self.labels = tuple(labels) or tuple(f"e{i+1}" for i in range(dim))
        if len(self.labels) != dim:
            raise ContractViolation("label count does not match dim")
        self.realization = realization
        self.name = name
        self.inner_product = inner_product
        self.validated = False
        self.form_fixed = False

    # -- basic operations ---------------------------------------------------

    def contract(self, v) -> Scaled:
        """``ad(v)``: entry ``[..., k, j]`` is ``[v, e_j]_k``.

        ``v`` is a vector or a stack of row vectors (a :class:`Scaled`, or
        anything :meth:`Scaled.of` takes).  The sums are int64, bounded by
        ``bound_v * bound_c * dim``, when that rules out overflow and Python ints otherwise.
        """
        v = Scaled.of(v)
        i, c, starts, places = self._contraction
        v_int, out = v.ints, np.zeros(v.shape[:-1] + (self.dim ** 2,), dtype=np.int64)
        if places.size:
            if not v.fits(self._constants, self.dim):    # a place sums at most dim terms
                v_int, c, out = v_int.astype(object), c.astype(object), out.astype(object)
            out[..., places] = np.add.reduceat(v_int[..., i] * c, starts, axis=-1)
        return Scaled(out.reshape(v.shape[:-1] + (self.dim, self.dim)), self.scale * v.scale,
                      v.bound * self._constants.bound * self.dim)

    @cached_property
    def _constants(self) -> Scaled:
        """The stored constants ``c`` (over ``scale``), which carry their bound."""
        return Scaled(self.coo[3], self.scale)

    @cached_property
    def _contraction(self):
        """Entries grouped by place ``k * dim + j`` in ``ad(v)``: their first indices
        and coefficients in group order, the group starts and the places."""
        i, j, k, c = self.coo
        order = np.argsort(k * self.dim + j, kind="stable")
        places, starts = np.unique((k * self.dim + j)[order], return_index=True)
        return i[order], c[order], starts, places

    def bracket(self, x, y) -> Scaled:
        return self.contract(x) @ Scaled.of(y)

    def skewness(self, h) -> Scaled:
        """``ad_i^T H + H ad_i`` stacked over i: ``[i,j,k] = H([e_i,e_j],e_k) + H(e_j,[e_i,e_k])``.
        For a symmetric ``H`` that is ``A + A.transpose(0, 2, 1)``, where ``A[i,j,:]`` is
        ``sum_k c[i,j,k] H[k,:]`` over the stored entries (int64 if it cannot overflow)."""
        h = Scaled.of(h)
        if h.ints.ndim != 2 or np.any(h.ints != h.ints.T):
            raise ContractViolation("skewness needs a symmetric matrix")
        (i, j, k, c), h_int = self.coo, h.ints
        if not self._constants.fits(h, 2 * self.dim):     # an entry of A + A^T sums 2 dim terms
            c, h_int = c.astype(object), h_int.astype(object)
        a = np.zeros((self.dim,) * 3, dtype=h_int.dtype)
        np.add.at(a, (i, j), c[:, None] * h_int[k])
        return Scaled(a + a.transpose(0, 2, 1), self.scale * h.scale)

    def basis_vector(self, i: int) -> Scaled:
        return Scaled(np.eye(self.dim, dtype=np.int64)[i], 1, 1)

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Exact antisymmetry, Jacobi and realization checks, run once (a success is recorded
        in ``validated``); raises on failure, naming the lexicographically first failing index.
        Given antisymmetry, ``J(i,j,k,l) = -([ad_i, ad_j] - ad_[e_i,e_j])[l, k]``, so Jacobi is
        :meth:`_check_representation` of ``ad_i[l, k] = c[i,k,l]``, as the realization is of
        its matrices.
        """
        if self.validated:
            return
        d = self.dim
        i, j, k, c = self.coo
        _check_sums("antisymmetry", d, np.ravel_multi_index(
            (np.r_[i, j], np.r_[j, i], np.r_[k, k]), (d,) * 3), np.r_[c, c])
        failing = self._check_representation((i, k, j, c), self.scale, d)
        if failing is not None:
            raise ValidationError(f"Jacobi fails at (i,j,k,l)={tuple(t + 1 for t in failing)}")
        if self.realization is not None:
            if len(self.realization) != d:
                raise ValidationError("realization length does not match dim")
            stack = Scaled.of(self.realization)
            entries = np.nonzero(stack.ints)
            failing = self._check_representation((*entries, stack.ints[entries]), stack.scale,
                                                 stack.shape[-1])
            if failing is not None:
                raise ValidationError(f"realization bracket mismatch at basis pair "
                                      f"({failing[0] + 1},{failing[1] + 1})")
        self.validated = True

    def _check_representation(self, mats, scale: int, size: int) -> tuple[int, ...] | None:
        """The first key ``(a, b, col, row)`` at which ``[R_a, R_b] - sum_k c[a,b,k] R_k`` is
        nonzero, or None; ``mats = (mat, row, col, value)`` are the nonzero entries of the
        ``size x size`` matrices ``R = value / scale``, sorted by ``mat``.

        The defect is antisymmetric in ``(a, b)`` as the constants are, so only ``a < b`` is
        joined.  The terms of key ``(a, b, ...)`` are counted per pair and summed by key in
        blocks of consecutive pairs of about ``_TERM_BUDGET`` terms (one pair at least), on
        int64 when a key's absolute terms sum below ``2**62`` and Python ints otherwise.
        """
        d, (mat, row, col, value), (i, j, k, c) = self.dim, mats, self.coo
        g, value = math.gcd(self.scale, scale), Scaled(value)
        s, t = self.scale // g, scale // g          # the defect times scale**2 * self.scale / g
        wide = s * 2 * size * value.bound ** 2 + t * d * self._constants.bound * value.bound
        value, c = (value.ints, c) if wide < arith._PRODUCT_LIMIT else (value.ints.astype(object),
                                                                        c.astype(object))
        starts, pair = np.searchsorted(mat, np.arange(d + 1)), i * d + j
        lo3, hi3 = starts[k], np.where(j > i, starts[k + 1], starts[k])
        by_row, by_col = np.lexsort((mat, row)), np.lexsort((mat, col))
        row_keys, col_keys = (row * d + mat)[by_row], (col * d + mat)[by_col]
        # terms per pair: where a column of R_a meets a row of R_b (R_a R_b), the converse, and c
        in_row, in_col = (np.bincount(mat * size + x, np.ones(mat.size), d * size).reshape(d, size)
                          for x in (row, col))
        meet = in_col @ in_row.T + np.bincount(pair, hi3 - lo3, d * d).reshape(d, d)
        block = np.cumsum(np.triu(meet + meet.T, 1)) // _TERM_BUDGET   # of each pair a * d + b
        heads = [0, *(np.flatnonzero(block[1:] != block[:-1]) + 1).tolist(), d * d]
        # key = ((a * d + b) * size + col) * size + row, split between the two factors of a term
        n2, cell = size * size, col * size + row
        a_row, a_col = mat * d * n2 + row, mat * d * n2 + col * size
        b_row, b_col = mat * n2 + row, mat * n2 + col * size
        for h0, h1 in zip(heads, heads[1:]):
            e = np.arange(starts[h0 // d], starts[-(-h1 // d)])
            bounds = np.clip(np.array([[h0], [h1]]) - mat[e] * d, mat[e] + 1, d)   # the b of each e
            (l1, p1), (l2, p2) = (_join(e, *np.searchsorted(keys, inner[e] * d + bounds))
                                  for keys, inner in ((row_keys, col), (col_keys, row)))
            q = np.arange(*np.searchsorted(pair, (h0, h1)))
            (l3, p3), p1, p2 = _join(q, lo3[q], hi3[q]), by_row[p1], by_col[p2]
            keys = np.concatenate([a_row[l1] + b_col[p1], a_col[l2] + b_row[p2],
                                   pair[l3] * n2 + cell[p3]])
            keys, sums = _sum_by_key(keys, np.concatenate([s * value[l1] * value[p1],
                                                            -s * value[p2] * value[l2],
                                                            -t * c[l3] * value[p3]]))
            failing = keys[sums != 0]
            if failing.size:
                return tuple(int(x) for x in np.unravel_index(failing[0], (d, d, size, size)))
        return None

    # -- derived structure ---------------------------------------------------

    @cached_property
    def killing(self) -> SymmetricForm:
        """``B[a,b] = tr(ad_a ad_b) = sum c[a,l,k] c[b,k,l]``, summed over the stored entries.

        Each entry ``(a, l, k)`` is joined with the entries ``(b, k, l)``,
        which :attr:`_contraction` keeps contiguous as the group of place
        ``k * dim + l``.
        """
        d = self.dim
        i, j, k, c = self.coo
        first, coef, starts, places = self._contraction
        group = np.minimum(np.searchsorted(places, j * d + k), max(places.size - 1, 0))
        hit = places[group] == j * d + k
        count = np.where(hit, np.diff(np.r_[starts, first.size])[group], 0)
        left, right = _join(np.arange(i.size), starts[group], starts[group] + count)
        if not self._constants.fits(self._constants, d * d):
            c, coef = c.astype(object), coef.astype(object)
        keys, sums = _sum_by_key(i[left] * d + first[right], c[left] * coef[right])
        out = np.zeros(d * d, dtype=sums.dtype)
        out[keys] = sums
        return SymmetricForm(Scaled(out.reshape(d, d), self.scale ** 2))

    @cached_property
    def canonical_form(self) -> SymmetricForm | None:
        """Q = -Killing when positive definite, else None (user form required)."""
        candidate = SymmetricForm(-self.killing.matrix)
        return candidate if candidate.positive_definite else None

    def form(self) -> SymmetricForm:
        """The attached invariant inner product, defaulting to -Killing.  The first
        read fixes it (``form_fixed``): results memoized on the algebra depend on it."""
        form = self.inner_product if self.inner_product is not None else self.canonical_form
        if form is None:
            raise ContractViolation(
                "the negative Killing form is not positive definite; checks need a compact "
                "semisimple algebra, or a form attached from Python with goverify.lie.attach_form")
        self.form_fixed = True
        return form


def _canonical_coo(dim: int, coo, scale: int) -> tuple[tuple[np.ndarray, ...], int]:
    """Read-only sorted COO arrays with repeats summed, zeros dropped and the scale reduced."""
    index = np.array(coo[:3], dtype=np.int64).reshape(3, -1)
    keys = np.ravel_multi_index(index, (dim,) * 3)     # a ValueError unless every index < dim
    keys, c = _sum_by_key(keys, np.asarray(coo[3], dtype=object).reshape(-1))
    keys, c = keys[c != 0], c[c != 0]
    g = math.gcd(scale, *c.tolist())
    arrays = (*np.unravel_index(keys, (dim,) * 3), Scaled(c // g).ints)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays, scale // g


def _join(left: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each entry of ``left`` once per position of its range ``lo:hi``, and those positions."""
    count = hi - lo
    offset = np.repeat(lo - np.cumsum(count) + count, count)
    return np.repeat(left, count), np.arange(offset.size) + offset


def _sum_by_key(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in ascending order and the exact sum of each key's values."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.concatenate((keys[:1] == keys[:1], keys[1:] != keys[:-1]))   # of each run, if any
    return keys[first], np.add.reduceat(values[order], np.flatnonzero(first))


def _check_sums(axiom: str, dim: int, keys: np.ndarray, values: np.ndarray) -> None:
    """Raise for the lexicographically first index ``(i, j, k)`` whose values sum to nonzero."""
    keys, sums = _sum_by_key(keys, values)
    failing = keys[sums != 0]
    if failing.size:
        index = np.unravel_index(failing[0], (dim,) * 3)
        raise ValidationError(f"{axiom} fails at (i,j,k)={tuple(int(t) + 1 for t in index)}")


def attach_form(algebra: StructureAlgebra, matrix) -> StructureAlgebra:
    """Attach a user-supplied invariant inner product, verifying its properties,
    before the algebra's form is first read (memoized results are keyed by span alone)."""
    if algebra.form_fixed:
        raise ContractViolation("the algebra's invariant form is already in use; "
                                "attach a form before its first use")
    form = SymmetricForm(matrix)
    if not form.positive_definite:
        raise ContractViolation("supplied form is not positive definite")
    if not form.is_ad_invariant(algebra):
        raise ContractViolation("supplied form is not ad-invariant")
    algebra.inner_product = form
    return algebra


# ---------------------------------------------------------------------------
# classical families
# ---------------------------------------------------------------------------

def so_pair_index(n: int, i: int, j: int) -> int:
    """Position of A[i,j] (1-based i < j) in the so(n) basis order."""
    if not (1 <= i < j <= n):
        raise ContractViolation(f"bad so({n}) pair ({i},{j})")
    return (i - 1) * n - (i - 1) * i // 2 + (j - i) - 1


def _so_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _build_so(n: int) -> StructureAlgebra:
    pairs = _so_pairs(n)
    d = len(pairs)
    first, second = np.array(pairs, dtype=np.int64).reshape(d, 2).T
    position = np.zeros((n + 1, n + 1), dtype=np.int64)
    position[first, second] = np.arange(d)
    x, y = np.divmod(np.arange(d * d), d)
    a, b, c, dd = first[x], second[x], first[y], second[y]
    # [A_ab, A_cd] = d_bc A_ad + d_ad A_bc - d_bd A_ac - d_ac A_bd, with A_qp = -A_pq, A_pp = 0
    entries = []
    for hit, p, r, sign in ((b == c, a, dd, 1), (a == dd, b, c, 1),
                            (b == dd, a, c, -1), (a == c, b, dd, -1)):
        hit &= p != r
        p, r = p[hit], r[hit]
        entries.append((x[hit], y[hit], position[np.minimum(p, r), np.maximum(p, r)],
                        np.where(p < r, sign, -sign)))
    coo = tuple(np.concatenate(column) for column in zip(*entries))
    labels = tuple(f"A{i}_{j}" for (i, j) in pairs)
    realization = np.zeros((d, n, n), dtype=np.int64)     # A_ij = E_ij - E_ji
    realization[np.arange(d), first - 1, second - 1] = 1
    realization[np.arange(d), second - 1, first - 1] = -1
    return StructureAlgebra(dim=d, coo=coo, labels=labels,
                            realization=realization, name=f"so({n})")


def _sparse_matrix(n: int, *entries) -> np.ndarray:
    """The n x n int64 matrix with the 1-based ``(row, col, value)`` entries, zero elsewhere."""
    m = np.zeros((n, n), dtype=np.int64)
    for r, c, v in entries:
        m[r - 1, c - 1] = v
    return m


def _complex_embed(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Real 2m x 2m embedding [[Re, -Im], [Im, Re]] of a complex integer matrix."""
    m = re.shape[0]
    out = np.zeros((2 * m, 2 * m), dtype=np.int64)
    out[:m, :m] = re
    out[m:, m:] = re
    out[:m, m:] = -im
    out[m:, :m] = im
    return out


def _su_basis(n: int) -> tuple[list[str], list[np.ndarray]]:
    z = np.zeros((n, n), dtype=np.int64)
    labels, mats = [], []
    for i, j in _so_pairs(n):
        labels += [f"S{i}_{j}", f"T{i}_{j}"]
        mats += [_complex_embed(_sparse_matrix(n, (i, j, 1), (j, i, -1)), z),
                 _complex_embed(z, _sparse_matrix(n, (i, j, 1), (j, i, 1)))]
    for k in range(1, n):
        labels.append(f"D{k}")
        mats.append(_complex_embed(z, _sparse_matrix(n, (k, k, 1), (k + 1, k + 1, -1))))
    return labels, mats


def _sp_basis(n: int) -> tuple[list[str], list[np.ndarray]]:
    """Basis of compact sp(n) in the complex 2n x 2n (quaternionic) picture."""
    m = 2 * n

    def block(a_re, a_im, b_re, b_im):
        re = np.zeros((m, m), dtype=np.int64)
        im = np.zeros((m, m), dtype=np.int64)
        re[:n, :n], im[:n, :n] = a_re, a_im
        re[n:, n:], im[n:, n:] = a_re, -a_im
        re[:n, n:], im[:n, n:] = b_re, b_im
        re[n:, :n], im[n:, :n] = -b_re, b_im
        return _complex_embed(re, im)

    z = np.zeros((n, n), dtype=np.int64)
    labels, mats = [], []
    for i, j in _so_pairs(n):
        labels += [f"AS{i}_{j}", f"AT{i}_{j}"]
        mats += [block(_sparse_matrix(n, (i, j, 1), (j, i, -1)), z, z, z),
                 block(z, _sparse_matrix(n, (i, j, 1), (j, i, 1)), z, z)]
    for k in range(1, n + 1):
        labels.append(f"AD{k}")
        mats.append(block(z, _sparse_matrix(n, (k, k, 1)), z, z))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            sym = _sparse_matrix(n, (i, j, 1), (j, i, 1))
            labels += [f"BR{i}_{j}", f"BI{i}_{j}"]
            mats += [block(z, z, sym, z), block(z, z, z, sym)]
    return labels, mats


def _tensor_from_realization(mats: list[np.ndarray]) -> tuple[tuple[np.ndarray, ...], int]:
    """Exact structure constants ``(coo, scale)`` of a closed family of realization matrices.

    Brackets are expanded over the basis through the inverse of the entrywise
    Gram matrix of the flattened realization, cleared to integers once; the
    coordinates and the closure check are integer products (int64 when safe,
    Python ints otherwise), and closure is verified exactly.
    """
    d = len(mats)
    cleared = Scaled.of(np.stack(mats))
    stack = Scaled(cleared.ints)                              # S_i = scale * R_i
    flat = stack.reshape(d, -1)
    try:
        gram_inv = arith.inverse(flat @ flat.T)
    except ContractViolation:
        raise ContractViolation("realization matrices are linearly dependent") from None
    comm = stack[:, None] @ stack[None, :]
    comm = (comm - comm.transpose(1, 0, 2, 3)).reshape(d * d, -1)
    coords = comm @ flat.T @ gram_inv                         # [S_i,S_j] = sum_a coords[(i,j),a] S_a
    if not (coords @ flat).equals(comm):
        raise ContractViolation("realization family is not bracket-closed")
    pair, k = np.nonzero(coords.ints)
    return (*np.divmod(pair, d), k, coords.ints[pair, k]), coords.scale * cleared.scale


def build_classical(family: str, n: int) -> StructureAlgebra:
    """Construct a classical compact algebra with exact structure constants.

    Supported families: ``so`` (n >= 2), ``su`` (n >= 2), ``sp`` (n >= 1) and
    ``abelian`` (any n >= 1).  The returned algebra is validated.
    """
    if n < 1:
        raise ContractViolation("n must be >= 1")
    if family == "abelian":
        alg = StructureAlgebra(dim=n, labels=tuple(f"Z{i+1}" for i in range(n)), name=f"abelian({n})")
        alg._known_simple = False
    elif family == "so":
        if n < 2:
            raise ContractViolation("so(n) requires n >= 2")
        alg = _build_so(n)
        alg._known_simple = n == 3 or n >= 5
    elif family == "su":
        if n < 2:
            raise ContractViolation("su(n) requires n >= 2")
        labels, mats = _su_basis(n)
        coo, scale = _tensor_from_realization(mats)
        alg = StructureAlgebra(dim=len(mats), coo=coo, scale=scale, labels=tuple(labels),
                               realization=np.stack(mats), name=f"su({n})")
        alg._known_simple = True
    elif family == "sp":
        labels, mats = _sp_basis(n)
        coo, scale = _tensor_from_realization(mats)
        alg = StructureAlgebra(dim=len(mats), coo=coo, scale=scale, labels=tuple(labels),
                               realization=np.stack(mats), name=f"sp({n})")
        alg._known_simple = True
    else:
        raise ContractViolation(f"unsupported family {family!r}")
    alg.validate()
    return alg


# ---------------------------------------------------------------------------
# block embeddings of orthogonal products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingLayout:
    """Block-diagonal embedding of so(k_1) x ... x so(k_s) inside so(n).

    ``factor_subspaces[i]`` spans the i-th diagonal block; ``offdiag_blocks``
    maps each pair ``(i, j)`` (1-based, i < j) to the span of the basis
    elements coupling blocks i and j, a module of dimension ``k_i * k_j``.
    ``subalgebra`` is the full diagonal product so(k_1) + ... + so(k_s) and
    ``complement`` the sum of the off-diagonal blocks.
    """

    algebra: StructureAlgebra
    partition: tuple[int, ...]
    factor_subspaces: tuple
    offdiag_blocks: dict
    subalgebra: Subspace
    complement: Subspace

    def named_subspaces(self) -> dict:
        names = {"k": self.subalgebra, "m": self.complement}
        for i, factor in enumerate(self.factor_subspaces, start=1):
            names[f"k{i}"] = factor
        for (i, j), block in self.offdiag_blocks.items():
            names[f"m{i}_{j}"] = block
        return names


def embed_so_partition(source, partition) -> EmbeddingLayout:
    """Layout of the diagonal so-product inside so(n) for a partition of n.

    ``source`` is either an existing so(n) algebra (reused) or the integer n.
    """
    from .subspaces import Subspace
    partition = tuple(int(k) for k in partition)
    if any(k < 1 for k in partition) or not partition:
        raise ContractViolation("partition parts must be >= 1")
    n = sum(partition)
    if isinstance(source, StructureAlgebra):
        algebra = source
        if algebra.dim != n * (n - 1) // 2 or not algebra.name.startswith("so("):
            raise ContractViolation(f"algebra {algebra.name!r} is not so({n})")
    else:
        if int(source) != n:
            raise ContractViolation(f"partition {partition} does not sum to n={source}")
        algebra = build_classical("so", n)
    offsets = [0]
    for k in partition:
        offsets.append(offsets[-1] + k)
    ranges = [range(offsets[i] + 1, offsets[i + 1] + 1) for i in range(len(partition))]
    factor_idx = [[so_pair_index(n, a, b) for a in rng for b in rng if a < b] for rng in ranges]
    block_idx = {(i + 1, j + 1): [so_pair_index(n, a, b) for a in ranges[i] for b in ranges[j]]
                 for i in range(len(partition)) for j in range(i + 1, len(partition))}
    # unit rows at the sorted union of the indices: already the rref of the sum
    return EmbeddingLayout(
        algebra=algebra, partition=partition,
        factor_subspaces=tuple(Subspace.from_indices(algebra, idx) for idx in factor_idx),
        offdiag_blocks={key: Subspace.from_indices(algebra, idx) for key, idx in block_idx.items()},
        subalgebra=Subspace.from_indices(algebra, sorted(sum(factor_idx, []))),
        complement=Subspace.from_indices(algebra, sorted(sum(block_idx.values(), []))))


# ---------------------------------------------------------------------------
# structure-table serialization
# ---------------------------------------------------------------------------

def serialize_structure_table(algebra: StructureAlgebra) -> str:
    """Text form of the structure constants: ``dim d`` then ``i j k value`` lines.

    Indices are 1-based and every nonzero entry is listed explicitly (both
    bracket orientations), in lexicographic index order, so the round-trip
    through :func:`ingest_structure_table` is bit-exact.
    """
    i, j, k, c = (a.tolist() for a in algebra.coo)
    lines = [f"dim {algebra.dim}"]
    lines += [f"{a+1} {b+1} {g+1} {arith.fraction_str(Fraction(v, algebra.scale))}"
              for a, b, g, v in zip(i, j, k, c)]
    return "\n".join(lines) + "\n"


def ingest_structure_table(source: str) -> StructureAlgebra:
    """Parse and validate a structure table; raises :class:`ValidationError`."""
    dim = None
    entries: dict[tuple[int, int, int], Fraction] = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "dim":
            if dim is not None:
                raise ValidationError(f"line {lineno}: duplicate dim header")
            try:
                dim = int(parts[1])
            except (IndexError, ValueError) as exc:
                raise ValidationError(f"line {lineno}: malformed dim header") from exc
            if dim < 1:
                raise ValidationError(f"line {lineno}: dim must be positive")
            continue
        if dim is None:
            raise ValidationError(f"line {lineno}: entry precedes dim header")
        if len(parts) != 4:
            raise ValidationError(f"line {lineno}: expected 'i j k value'")
        try:
            i, j, k = (int(p) for p in parts[:3])
            value = Fraction(parts[3])
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: malformed entry") from exc
        if not all(1 <= t <= dim for t in (i, j, k)):
            raise ValidationError(f"line {lineno}: index out of range")
        if entries.get((i, j, k), 0) != 0:
            raise ValidationError(f"duplicate entry for ({i},{j},{k})")
        entries[(i, j, k)] = value
    if dim is None:
        raise ValidationError("missing dim header")
    index = np.array(list(entries), dtype=np.int64).reshape(-1, 3) - 1
    values = Scaled.of(np.array(list(entries.values()), dtype=object))
    alg = StructureAlgebra(dim=dim, coo=(*index.T, values.ints), scale=values.scale, name="table")
    alg.validate()
    return alg
