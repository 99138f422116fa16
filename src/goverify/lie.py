"""Structure-constant models of compact Lie algebras.

An algebra is a basis ``e_1, ..., e_d`` together with the tensor ``c`` of
bracket coefficients, ``[e_i, e_j] = sum_k c[i,j,k] e_k``.  All structure
constants are exact rationals; validation (antisymmetry, Jacobi, agreement
with an optional matrix realization) is exact.

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
``[[Re, -Im], [Im, Re]]`` so that every realization check stays in exact
rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import arith
from .arith import ContractViolation, is_zero, q, qarray, qzeros


class ValidationError(ValueError):
    """A structure table or tensor violates an algebra axiom."""


# ---------------------------------------------------------------------------
# symmetric bilinear forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetricForm:
    """A symmetric bilinear form in basis coordinates."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=object)
        if not is_zero(mat - mat.T):
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
        return np.dot(np.asarray(x, dtype=object), np.dot(self.matrix, np.asarray(y, dtype=object)))

    def is_ad_invariant(self, algebra: "StructureAlgebra") -> bool:
        """Exact check of B([X,Y],Z) + B(Y,[X,Z]) = 0 on all basis triples."""
        c_int, _ = algebra.int_tensor
        b_int, _ = arith.clear_denominators(self.matrix)
        if not arith._int64_safe(c_int, b_int, 2 * algebra.dim):
            c_int, b_int = c_int.astype(object), b_int.astype(object)
        t1 = np.tensordot(c_int, b_int, axes=([2], [0]))          # t1[i,j,k] = B([e_i,e_j], e_k)
        t2 = np.tensordot(c_int, b_int, axes=([2], [1]))          # t2[i,k,j] = B(e_j, [e_i,e_k])
        return is_zero(t1 + np.transpose(t2, (0, 2, 1)))


# ---------------------------------------------------------------------------
# the algebra itself
# ---------------------------------------------------------------------------

@dataclass
class StructureAlgebra:
    """A finite-dimensional real Lie algebra given by structure constants.

    Instances are treated as immutable after validation.  ``realization``
    optionally holds real-embedded basis matrices whose commutators must
    reproduce the tensor.
    """

    dim: int
    tensor: np.ndarray
    labels: tuple[str, ...] = ()
    realization: tuple[np.ndarray, ...] | None = None
    name: str = ""
    inner_product: SymmetricForm | None = field(default=None, repr=False)

    def __post_init__(self):
        self.tensor = np.asarray(self.tensor, dtype=object)
        if self.tensor.shape != (self.dim, self.dim, self.dim):
            raise ContractViolation("structure tensor shape does not match dim")
        if not self.labels:
            self.labels = tuple(f"e{i+1}" for i in range(self.dim))
        if len(self.labels) != self.dim:
            raise ContractViolation("label count does not match dim")

    # -- basic operations ---------------------------------------------------

    def bracket(self, x, y) -> np.ndarray:
        c_int, c_scale = self.int_tensor
        x_int, x_scale = arith.clear_denominators(np.asarray(x, dtype=object))
        y_int, y_scale = arith.clear_denominators(np.asarray(y, dtype=object))
        d = self.dim
        x_c = arith.int_matmul(x_int, c_int.reshape(d, d * d)).reshape(d, d)  # sum_i x_i c_ij^k
        return arith.from_ints(arith.int_matmul(y_int, x_c), c_scale * x_scale * y_scale)

    def ad(self, x) -> np.ndarray:
        """Matrix of ad_x, columns indexed by basis vectors."""
        c_int, c_scale = self.int_tensor
        x_int, x_scale = arith.clear_denominators(np.asarray(x, dtype=object))
        return arith.exact_tensordot(c_int, c_scale, x_int, x_scale, ([0], [0]), self.dim).T

    @cached_property
    def int_tensor(self) -> tuple[np.ndarray, int]:
        """Denominator-cleared structure tensor (ints, scale)."""
        return arith.clear_denominators(self.tensor)

    def basis_vector(self, i: int) -> np.ndarray:
        v = qzeros(self.dim)
        v[i] = Fraction(1)
        return v

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Exact antisymmetry, Jacobi and realization checks; raises on failure.

        Both axioms are checked on the denominator-cleared tensor, int64 when
        every Jacobi sum fits and Python ints otherwise.  Jacobi is checked one
        first index at a time, so no d**4 array is built; the reported index
        is the lexicographically first failing one.
        """
        c, _ = self.int_tensor
        d = self.dim
        if not arith._int64_safe(c, c, 3 * d):
            c = c.astype(object)
        failing = np.argwhere(c + np.transpose(c, (1, 0, 2)))
        if failing.size:
            raise ValidationError(
                f"antisymmetry fails at (i,j,k)={tuple(int(a)+1 for a in failing[0])}")
        right = c.reshape(d, d * d)                     # right[m, (k,l)] = c[m,k,l]
        left = c.reshape(d * d, d)                      # left[(j,k), m] = c[j,k,m]
        for i in range(d):
            # jac[j,k,l] = [[e_i,e_j],e_k]_l + [[e_k,e_i],e_j]_l + [[e_j,e_k],e_i]_l
            ci = c[:, i, :]                             # ci[a,m] = c[a,i,m]
            jac = (c[i] @ right).reshape(d, d, d)
            jac = jac + np.transpose((ci @ right).reshape(d, d, d), (1, 0, 2))
            jac = jac + (left @ ci).reshape(d, d, d)
            failing = np.argwhere(jac)
            if failing.size:
                raise ValidationError(
                    f"Jacobi fails at (i,j,k,l)={tuple(int(a)+1 for a in (i, *failing[0]))}")
        if self.realization is not None:
            self._validate_realization()

    def _validate_realization(self) -> None:
        if len(self.realization) != self.dim:
            raise ValidationError("realization length does not match dim")
        mats, _ = arith.clear_denominators(np.stack(self.realization))
        c_int, cscale = self.int_tensor
        # cscale * [R_i, R_j] must equal sum_k c_int[i,j,k] R_k, entrywise.
        if not (arith._int64_safe(mats, mats, 2 * mats.shape[-1] * cscale)
                and arith._int64_safe(c_int, mats, self.dim)):
            mats, c_int = mats.astype(object), c_int.astype(object)
        comm = mats[:, None] @ mats[None, :]
        comm = comm - np.transpose(comm, (1, 0, 2, 3))
        expected = np.tensordot(c_int, mats, axes=([2], [0]))
        diff = comm * cscale - expected
        if np.any(diff != 0):
            for i in range(self.dim):
                for j in range(i + 1, self.dim):
                    if np.any(diff[i, j] != 0):
                        raise ValidationError(
                            f"realization bracket mismatch at basis pair ({i+1},{j+1})")
            raise ValidationError("realization bracket mismatch")

    # -- derived structure ---------------------------------------------------

    @cached_property
    def killing(self) -> SymmetricForm:
        c_int, scale = self.int_tensor
        # B[i,j] = tr(ad_i ad_j) = sum_{k,l} c[i,k,l] c[j,l,k]
        return SymmetricForm(arith.exact_tensordot(c_int, scale, c_int, scale,
                                                   ([1, 2], [2, 1]), self.dim * self.dim))

    @cached_property
    def canonical_form(self) -> SymmetricForm | None:
        """Q = -Killing when positive definite, else None (user form required)."""
        candidate = SymmetricForm(-self.killing.matrix)
        return candidate if candidate.positive_definite else None

    def form(self) -> SymmetricForm:
        """The attached invariant inner product, defaulting to -Killing."""
        if self.inner_product is not None:
            return self.inner_product
        canonical = self.canonical_form
        if canonical is None:
            raise ContractViolation(
                "algebra has no positive canonical form; attach an invariant inner "
                "product with attach_form() first")
        return canonical


def attach_form(algebra: StructureAlgebra, matrix) -> StructureAlgebra:
    """Attach a user-supplied invariant inner product, verifying its properties."""
    form = SymmetricForm(qarray(matrix))
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
    tensor = qzeros((d, d, d))

    def add(a, b, cd, value):
        if a == b:
            return
        if a < b:
            tensor[cd][so_pair_index(n, a, b)] += value
        else:
            tensor[cd][so_pair_index(n, b, a)] -= value

    # [A_ab, A_cd] = d_bc A_ad + d_ad A_bc - d_bd A_ac - d_ac A_bd
    for x, (a, b) in enumerate(pairs):
        for y, (c, dd) in enumerate(pairs):
            if b == c:
                add(a, dd, (x, y), Fraction(1))
            if a == dd:
                add(b, c, (x, y), Fraction(1))
            if b == dd:
                add(a, c, (x, y), Fraction(-1))
            if a == c:
                add(b, dd, (x, y), Fraction(-1))
    labels = tuple(f"A{i}_{j}" for (i, j) in pairs)
    realization = tuple(_so_matrix(n, i, j) for (i, j) in pairs)
    return StructureAlgebra(dim=d, tensor=tensor, labels=labels,
                            realization=realization, name=f"so({n})")


def _so_matrix(n: int, i: int, j: int) -> np.ndarray:
    m = qzeros((n, n))
    m[i - 1, j - 1] = Fraction(1)
    m[j - 1, i - 1] = Fraction(-1)
    return m


def _complex_embed(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Real 2m x 2m embedding [[Re, -Im], [Im, Re]] of a complex matrix."""
    m = re.shape[0]
    out = qzeros((2 * m, 2 * m))
    out[:m, :m] = re
    out[m:, m:] = re
    out[:m, m:] = -im
    out[m:, :m] = im
    return out


def _su_basis(n: int) -> tuple[list[str], list[np.ndarray]]:
    labels, mats = [], []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            re = qzeros((n, n))
            re[i - 1, j - 1] = Fraction(1)
            re[j - 1, i - 1] = Fraction(-1)
            labels.append(f"S{i}_{j}")
            mats.append(_complex_embed(re, qzeros((n, n))))
            im = qzeros((n, n))
            im[i - 1, j - 1] = Fraction(1)
            im[j - 1, i - 1] = Fraction(1)
            labels.append(f"T{i}_{j}")
            mats.append(_complex_embed(qzeros((n, n)), im))
    for k in range(1, n):
        im = qzeros((n, n))
        im[k - 1, k - 1] = Fraction(1)
        im[k, k] = Fraction(-1)
        labels.append(f"D{k}")
        mats.append(_complex_embed(qzeros((n, n)), im))
    return labels, mats


def _sp_basis(n: int) -> tuple[list[str], list[np.ndarray]]:
    """Basis of compact sp(n) in the complex 2n x 2n (quaternionic) picture."""
    m = 2 * n

    def block(a_re, a_im, b_re, b_im):
        re = qzeros((m, m))
        im = qzeros((m, m))
        re[:n, :n], im[:n, :n] = a_re, a_im
        re[n:, n:], im[n:, n:] = a_re, -a_im
        re[:n, n:], im[:n, n:] = b_re, b_im
        re[n:, :n], im[n:, :n] = -b_re, b_im
        return _complex_embed(re, im)

    z = qzeros((n, n))
    labels, mats = [], []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            re = qzeros((n, n))
            re[i - 1, j - 1] = Fraction(1)
            re[j - 1, i - 1] = Fraction(-1)
            labels.append(f"AS{i}_{j}")
            mats.append(block(re, z, z, z))
            im = qzeros((n, n))
            im[i - 1, j - 1] = Fraction(1)
            im[j - 1, i - 1] = Fraction(1)
            labels.append(f"AT{i}_{j}")
            mats.append(block(z, im, z, z))
    for k in range(1, n + 1):
        im = qzeros((n, n))
        im[k - 1, k - 1] = Fraction(1)
        labels.append(f"AD{k}")
        mats.append(block(z, im, z, z))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            sym = qzeros((n, n))
            sym[i - 1, j - 1] += Fraction(1)
            sym[j - 1, i - 1] += Fraction(1)
            if i == j:
                sym[i - 1, j - 1] = Fraction(1)
            labels.append(f"BR{i}_{j}")
            mats.append(block(z, z, sym, z))
            labels.append(f"BI{i}_{j}")
            mats.append(block(z, z, z, sym))
    return labels, mats


def _tensor_from_realization(mats: list[np.ndarray]) -> np.ndarray:
    """Exact structure constants of a closed family of realization matrices.

    Brackets are expanded over the basis through the inverse of the entrywise
    Gram matrix of the flattened realization, cleared to integers once; the
    coordinates and the closure check are integer products (int64 when safe,
    Python ints otherwise), and closure is verified exactly.
    """
    d = len(mats)
    stack, fscale = arith.clear_denominators(np.stack(mats))
    flat = stack.reshape(d, -1)                               # S_i = fscale * R_i, flattened
    gram = arith.int_matmul(flat, flat.T)
    try:
        gram_inv, gscale = arith.inverse_int(gram)
    except ContractViolation:
        raise ContractViolation("realization matrices are linearly dependent") from None
    comm = arith.int_matmul(stack[:, None], stack[None, :])
    comm = (comm - np.transpose(comm, (1, 0, 2, 3))).reshape(d * d, -1)
    rhs = arith.int_matmul(comm, flat.T)                      # rhs[(i,j),a] = <[S_i,S_j], S_a>
    coords = arith.int_matmul(rhs, gram_inv)                  # [S_i,S_j] = sum_a coords S_a / gscale
    if not arith._int64_safe(comm, np.array([gscale]), 1):    # comm * gscale must not wrap
        comm = comm.astype(object)
    if np.any(arith.int_matmul(coords, flat) != comm * gscale):
        raise ContractViolation("realization family is not bracket-closed")
    return arith.from_ints(coords.reshape(d, d, d), gscale * fscale)


def build_classical(family: str, n: int) -> StructureAlgebra:
    """Construct a classical compact algebra with exact structure constants.

    Supported families: ``so`` (n >= 2), ``su`` (n >= 2), ``sp`` (n >= 1) and
    ``abelian`` (any n >= 1).  The returned algebra is validated.
    """
    if n < 1:
        raise ContractViolation("n must be >= 1")
    if family == "abelian":
        alg = StructureAlgebra(dim=n, tensor=qzeros((n, n, n)),
                               labels=tuple(f"Z{i+1}" for i in range(n)), name=f"abelian({n})")
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
        alg = StructureAlgebra(dim=len(mats), tensor=_tensor_from_realization(mats),
                               labels=tuple(labels), realization=tuple(mats), name=f"su({n})")
        alg._known_simple = True
    elif family == "sp":
        labels, mats = _sp_basis(n)
        alg = StructureAlgebra(dim=len(mats), tensor=_tensor_from_realization(mats),
                               labels=tuple(labels), realization=tuple(mats), name=f"sp({n})")
        alg._known_simple = True
    else:
        raise ContractViolation(f"unsupported family {family!r}")
    alg.validate()
    return alg


def direct_sum(algebras: list[StructureAlgebra]) -> StructureAlgebra:
    """Block-diagonal direct sum; summands commute."""
    dims = [a.dim for a in algebras]
    d = sum(dims)
    tensor = qzeros((d, d, d))
    labels = []
    offset = 0
    for idx, a in enumerate(algebras):
        sl = slice(offset, offset + a.dim)
        tensor[sl, sl, sl] = a.tensor
        labels.extend(f"{idx+1}:{lab}" for lab in a.labels)
        offset += a.dim
    name = " + ".join(a.name or "?" for a in algebras)
    out = StructureAlgebra(dim=d, tensor=tensor, labels=tuple(labels), name=name)
    if len(algebras) > 1:
        out._known_simple = False
    return out


# ---------------------------------------------------------------------------
# block embeddings of orthogonal products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingLayout:
    """Block-diagonal embedding of so(k_1) x ... x so(k_s) inside so(n).

    ``factor_subspaces[i]`` spans the i-th diagonal block; ``offdiag_blocks``
    maps each pair ``(i, j)`` (1-based, i < j) to the span of the basis
    elements coupling blocks i and j, a module of dimension ``k_i * k_j``.
    """

    algebra: StructureAlgebra
    partition: tuple[int, ...]
    factor_subspaces: tuple
    offdiag_blocks: dict

    @cached_property
    def subalgebra(self):
        """The full diagonal product so(k_1) + ... + so(k_s)."""
        from .subspaces import Subspace
        out = Subspace.zero(self.algebra)
        for factor in self.factor_subspaces:
            out = out.add(factor)
        return out

    @cached_property
    def complement(self):
        """The sum of the off-diagonal blocks."""
        from .subspaces import Subspace
        out = Subspace.zero(self.algebra)
        for block in self.offdiag_blocks.values():
            out = out.add(block)
        return out

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
    factors = []
    for rng in ranges:
        idx = [so_pair_index(n, a, b) for a in rng for b in rng if a < b]
        factors.append(Subspace.from_indices(algebra, idx))
    blocks = {}
    for i in range(len(partition)):
        for j in range(i + 1, len(partition)):
            idx = [so_pair_index(n, a, b) for a in ranges[i] for b in ranges[j]]
            blocks[(i + 1, j + 1)] = Subspace.from_indices(algebra, idx)
    return EmbeddingLayout(algebra=algebra, partition=partition,
                           factor_subspaces=tuple(factors), offdiag_blocks=blocks)


# ---------------------------------------------------------------------------
# structure-table serialization
# ---------------------------------------------------------------------------

def serialize_structure_table(algebra: StructureAlgebra) -> str:
    """Text form of the structure tensor: ``dim d`` then ``i j k value`` lines.

    Indices are 1-based and every nonzero entry is listed explicitly (both
    bracket orientations), so the round-trip through
    :func:`ingest_structure_table` is bit-exact.
    """
    lines = [f"dim {algebra.dim}"]
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            for k in range(algebra.dim):
                v = algebra.tensor[i, j, k]
                if v != 0:
                    lines.append(f"{i+1} {j+1} {k+1} {arith.fraction_str(v)}")
    return "\n".join(lines) + "\n"


def ingest_structure_table(source: str) -> StructureAlgebra:
    """Parse and validate a structure table; raises :class:`ValidationError`."""
    dim = None
    entries: list[tuple[int, int, int, Fraction]] = []
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
            if dim < 0:
                raise ValidationError(f"line {lineno}: dim must be nonnegative")
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
        entries.append((i, j, k, value))
    if dim is None:
        raise ValidationError("missing dim header")
    tensor = qzeros((dim, dim, dim))
    for i, j, k, value in entries:
        if tensor[i - 1, j - 1, k - 1] != 0:
            raise ValidationError(f"duplicate entry for ({i},{j},{k})")
        tensor[i - 1, j - 1, k - 1] = value
    alg = StructureAlgebra(dim=dim, tensor=tensor, name="table")
    alg.validate()
    return alg
