"""Structure-constant models of compact Lie algebras.

An algebra is a basis ``e_1, ..., e_d`` with ``[e_i, e_j] = sum_k c[i,j,k] e_k``.
As in de Graaf, *Lie Algebras: Theory and Algorithms* (2000), ch. 1, only
nonzero constants are stored: :attr:`StructureAlgebra.coo` holds read-only
integer arrays ``(i, j, k, c)``, 0-based and sorted by ``(i, j, k)``, with
``c[i,j,k] = c / scale`` for one positive, reduced ``scale``.  Every
contraction with the constants goes through :meth:`StructureAlgebra.contract`,
which returns ``ad(v)`` as integers and a scale.  Validation (antisymmetry,
Jacobi, an optional matrix realization) is exact and sparse, and runs once per
algebra: a success is recorded in :attr:`StructureAlgebra.validated`.

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


# matrix entries of R_a R_b per block of the realization check: small enough that
# the block's temporaries go back to the allocator rather than grow the heap
_PAIR_BLOCK = 2**14


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
        """Exact antisymmetry, Jacobi and realization checks; raises on failure.

        A success is recorded in ``validated`` and a later call returns at
        once.  The axioms are summed over the stored entries, int64 when every
        Jacobi sum fits and Python ints otherwise; the reported index is the
        lexicographically first failing one.
        """
        if self.validated:
            return
        d = self.dim
        i, j, k, c = self.coo
        if not self._constants.fits(self._constants, 3 * d):
            c = c.astype(object)
        _check_sums("antisymmetry", d, np.ravel_multi_index(
            (np.r_[i, j], np.r_[j, i], np.r_[k, k]), (d,) * 3), np.r_[c, c])
        # T(a,b,g,l) = [[e_a,e_b],e_g]_l = sum_m c[a,b,m] c[m,g,l]: join each entry
        # (a,b,m) with the entries (m,g,l), which are contiguous since i is sorted
        lo, count = np.searchsorted(i, k), np.bincount(i, minlength=d)[k]
        left = np.repeat(np.arange(k.size), count)
        right = np.arange(left.size) + np.repeat(lo - np.cumsum(count) + count, count)
        a, b, g, l = i[left], j[left], j[right], k[right]
        term = c[left] * c[right]
        # J(i,j,k,l) = T(i,j,k,l) + T(k,i,j,l) + T(j,k,i,l), so T(a,b,g,l) is a
        # summand of J(a,b,g,l), J(b,g,a,l) and J(g,a,b,l)
        _check_sums("Jacobi", d, np.ravel_multi_index(
            (np.r_[a, b, g], np.r_[b, g, a], np.r_[g, a, b], np.r_[l, l, l]), (d,) * 4),
            np.tile(term, 3))
        if self.realization is not None:
            self._validate_realization()
        self.validated = True

    def _validate_realization(self) -> None:
        """``[R_a, R_b] = sum_k c[a,b,k] R_k`` for every pair ``a < b``, in blocks of rows ``a``
        of about ``_PAIR_BLOCK`` entries (no all-pairs stack).

        Both sides are exact :class:`Scaled` products, on float64 BLAS while
        bounded: ``R_a R_b`` and ``R_b R_a`` for a block's rows and every later
        b, and the block's constants times the ``R_k`` they name.  Pairs
        ``b <= a`` in a block are checked too; both sides are antisymmetric
        (the constants are checked first), so the first failure in row order is
        the lexicographically first failing pair ``a < b``, which is named.
        """
        if len(self.realization) != self.dim:
            raise ValidationError("realization length does not match dim")
        stack = Scaled.of(self.realization)
        d, m = self.dim, stack.shape[-1]
        i, j, k, c = self.coo
        starts = np.searchsorted(i, np.arange(d + 1))
        step = max(1, _PAIR_BLOCK // (d * m * m))
        for a0 in range(0, d - 1, step):
            rows, later = stack[a0:a0 + step], stack[a0 + 1:]
            size, count = len(rows), len(later)
            ab = (rows.reshape(-1, m) @ later.transpose(1, 0, 2).reshape(m, -1))   # [(a,r),(b,t)]
            ba = (later.reshape(-1, m) @ rows.transpose(1, 0, 2).reshape(m, -1))   # [(b,r),(a,t)]
            mine = np.arange(starts[a0], starts[a0 + size])
            mine = mine[j[mine] > a0]
            targets, column = np.unique(k[mine], return_inverse=True)
            coef = np.zeros((size, count, targets.size), dtype=c.dtype)
            coef[i[mine] - a0, j[mine] - a0 - 1, column] = c[mine]
            expected = (Scaled(coef.reshape(size * count, -1), self.scale)
                        @ stack[targets].reshape(targets.size, m * m))
            diff = (ab.reshape(size, m, count, m).transpose(0, 2, 1, 3)
                    - ba.reshape(count, m, size, m).transpose(2, 0, 1, 3)).reshape(size * count, -1)
            failing = (diff - expected).ints.any(axis=1).reshape(size, count)
            if failing.any():
                a, b = np.argwhere(failing)[0]
                raise ValidationError(
                    f"realization bracket mismatch at basis pair ({a0 + a + 1},{a0 + b + 2})")

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
        left = np.repeat(np.arange(i.size), count)
        right = np.arange(left.size) + np.repeat(starts[group] - np.cumsum(count) + count, count)
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


def _sum_by_key(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in ascending order and the exact sum of each key's values."""
    order = np.argsort(keys, kind="stable")
    keys, starts = np.unique(keys[order], return_index=True)
    return keys, np.add.reduceat(values[order], starts) if keys.size else values[:0]


def _check_sums(axiom: str, dim: int, keys: np.ndarray, values: np.ndarray) -> None:
    """Raise for the lexicographically first index tuple whose values sum to nonzero."""
    keys, sums = _sum_by_key(keys, values)
    failing = keys[sums != 0]
    if failing.size:
        letters = "ijk" if axiom == "antisymmetry" else "ijkl"
        index = np.unravel_index(failing[0], (dim,) * len(letters))
        raise ValidationError(f"{axiom} fails at ({','.join(letters)})="
                              f"{tuple(int(t) + 1 for t in index)}")


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
