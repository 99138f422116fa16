"""Subspace calculus over a fixed structure algebra.

A :class:`Subspace` is an ordered list of coordinate vectors (rows of
``basis``, an :class:`arith.Scaled` over its least common denominator)
spanning a linear subspace of the ambient algebra.  All computations here
are exact integer products and eliminations on those rows.

Orthogonality, Gram matrices and projectors use the algebra's one invariant
inner product, ``space.algebra.form()``; no function here takes a form.

Structural results are memoized per span (:func:`span_memo`, keyed by the
rref in :meth:`Subspace.sort_key`), so a sweep that meets one subalgebra on
many metrics computes its complement, normalizer, ideals and projector once.
A stored subspace serves every basis of its span; that is sound because each
stored basis is canonical: an rref, or a nullspace basis read off an rref.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import arith
from .arith import ContractViolation, Scaled, is_zero, qarray
from .lie import StructureAlgebra


class Subspace:
    """A subspace of a structure algebra, spanned by independent basis rows."""

    def __init__(self, algebra: StructureAlgebra, basis, check: bool = True):
        self.algebra = algebra
        basis = Scaled.of(basis)
        if basis.ints.size == 0:
            basis = basis.reshape(0, algebra.dim)
        if basis.ints.ndim != 2 or basis.shape[1] != algebra.dim:
            raise ContractViolation(f"basis shape {basis.shape} does not match dim {algebra.dim}")
        if check and basis.shape[0] and arith.rank_exact(basis) != basis.shape[0]:
            raise ContractViolation("basis rows are linearly dependent")
        self.basis = basis.reduced()

    # -- construction --------------------------------------------------------

    @staticmethod
    def zero(algebra: StructureAlgebra) -> "Subspace":
        return Subspace(algebra, Scaled.zeros((0, algebra.dim)), check=False)

    @staticmethod
    def full(algebra: StructureAlgebra) -> "Subspace":
        return Subspace(algebra, np.eye(algebra.dim, dtype=np.int64), check=False)

    @staticmethod
    def from_indices(algebra: StructureAlgebra, indices) -> "Subspace":
        basis = np.zeros((len(indices), algebra.dim), dtype=np.int64)
        basis[np.arange(len(indices)), list(indices)] = 1
        return Subspace(algebra, basis, check=False)

    @staticmethod
    def span(algebra: StructureAlgebra, vectors) -> "Subspace":
        """Row-space of possibly dependent vectors."""
        vectors = Scaled.of(vectors)
        if vectors.ints.size == 0:
            return Subspace.zero(algebra)
        return Subspace(algebra, arith.rref_exact(vectors)[0], check=False)

    # -- basic queries --------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def _sort_key(self) -> tuple:
        """Dimension, pivots and the rref's entries as ``fraction_str`` strings."""
        rows, pivots = arith.rref_exact(self.basis)
        return (self.dim, tuple(pivots), tuple(rows.strs()))

    def sort_key(self) -> tuple:
        return self._sort_key

    @cached_property
    def _solver(self) -> Scaled:
        """The row-operation transform T with T @ basis.T = [I_k; 0] (stacked)."""
        return arith.inverse(self.basis.T)

    def locate(self, vectors: Scaled) -> tuple[Scaled, np.ndarray]:
        """Coordinates of the column ``vectors`` and whether each lies outside the span."""
        if self.dim == 0:
            return Scaled.zeros((0,) + vectors.shape[1:]), vectors.ints != 0
        y = self._solver @ vectors
        return y[:self.dim], y.ints[self.dim:] != 0

    def coords(self, vectors) -> Scaled | None:
        """Coordinates of a vector or of column vectors; None if any is outside."""
        y, outside = self.locate(Scaled.of(vectors))
        return None if np.any(outside) else y

    def contains(self, vector) -> bool:
        return self.coords(vector) is not None

    def contains_space(self, other: "Subspace") -> bool:
        return self.coords(other.basis.T) is not None

    def spans_equal(self, other: "Subspace") -> bool:
        return self.dim == other.dim and self.contains_space(other)

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace.span(self.algebra, Scaled.concat([self.basis, other.basis]))

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.algebra)
        null = arith.nullspace_exact(Scaled.concat([self.basis.T, -other.basis.T], axis=1))
        return Subspace.span(self.algebra, null[:, :self.dim] @ self.basis)

    @cached_property
    def gram(self) -> Scaled:
        """Gram matrix of the basis rows for the algebra's invariant form."""
        return self.basis @ (self.algebra.form().matrix @ self.basis.T)

    @cached_property
    def gram_inverse(self) -> Scaled:
        """Inverse of :attr:`gram`, computed once per subspace."""
        return arith.inverse(self.gram)

    @cached_property
    def ad_matrices(self) -> Scaled:
        """Adjoint operators of the basis vectors, stacked as ambient matrices."""
        return self.algebra.contract(self.basis)

    def brackets(self, other: "Subspace") -> Scaled:
        """``[a, :, b]`` is the bracket of basis vector a with basis vector b of ``other``."""
        return self.ad_matrices @ other.basis.T

    def random_coefficients(self, rng: random.Random) -> list[int]:
        """Deterministic integer coefficients in [-9, 9], not all zero unless ``dim`` is 0:
        ``getrandbits(5) - 9``, drawn again from 19 up, which gives the values and the final
        ``rng`` state of ``rng.randint(-9, 9)`` (CPython's ``_randbelow_with_getrandbits``)."""
        dim, bits = self.dim, rng.getrandbits
        while True:
            coeffs = []
            while len(coeffs) < dim:
                r = bits(5)
                if r < 19:
                    coeffs.append(r - 9)
            if any(coeffs) or dim == 0:
                return coeffs

    def random_element(self, rng: random.Random) -> Scaled:
        """Deterministic random combination with coefficients in [-9, 9]."""
        return Scaled(np.array(self.random_coefficients(rng), dtype=np.int64), 1, 9) @ self.basis

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.algebra.name or self.algebra.dim})"


def serialize_subspace(space: Subspace) -> str:
    """Text form: an ``ambient``/``rows`` header, then one coordinate vector
    per line as rationals (same format family as structure tables)."""
    lines = [f"ambient {space.algebra.dim}", f"rows {space.dim}"]
    for r in range(space.dim):
        lines.append(" ".join(arith.fraction_str(v) for v in space.basis[r]))
    return "\n".join(lines) + "\n"


def parse_subspace(algebra, text: str) -> Subspace:
    """Parse the subspace text format against an ambient algebra."""
    rows = None
    vectors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] in ("ambient", "rows"):
            try:
                value = int(parts[1])
            except (IndexError, ValueError):
                raise ContractViolation(f"line {lineno}: malformed header {line!r}") from None
            if parts[0] == "rows":
                rows = value
            elif value != algebra.dim:
                raise ContractViolation(f"line {lineno}: ambient {value} != {algebra.dim}")
        else:
            try:
                vectors.append([Fraction(v) for v in parts])
            except (ValueError, ZeroDivisionError) as exc:
                raise ContractViolation(f"line {lineno}: malformed coordinate") from exc
            if len(vectors[-1]) != algebra.dim:
                raise ContractViolation(f"line {lineno}: expected {algebra.dim} coordinates")
    if rows is not None and rows != len(vectors):
        raise ContractViolation(f"expected {rows} rows, found {len(vectors)}")
    if not vectors:
        return Subspace.zero(algebra)
    return Subspace(algebra, qarray(vectors))


# ---------------------------------------------------------------------------
# memoization of structural results (algebras and subspaces are immutable)
# ---------------------------------------------------------------------------

def span_memo(space: Subspace, build, kind: str, *extras):
    """``build()``, computed once per algebra for the key ``(kind, *extras, span)``; the key
    needs no form, since the algebra's form is fixed by its first read."""
    memo = space.algebra.__dict__.setdefault("_memo", {})
    key = (kind, *extras, space.sort_key())
    if key not in memo:
        memo[key] = build()
    return memo[key]


def forget_spans(algebra: StructureAlgebra) -> None:
    """Drop the span memo of an algebra that is no longer used.  Its entries
    reference the algebra, a cycle that only a full garbage collection frees."""
    algebra.__dict__.pop("_memo", None)


def shared_subspace(space: Subspace, kind: str) -> Subspace:
    """The subspace stored under ``kind`` for this span (``space`` itself if
    new), sharing its cached integer data; ``space``'s basis must be canonical,
    so a stored basis that differs from it is an error."""
    stored = span_memo(space, lambda: space, kind)
    if not stored.basis.equals(space.basis):
        raise arith.ExactComputationError(f"stored {kind} basis differs for the same span")
    return stored


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def orthogonal_complement(space: Subspace) -> Subspace:
    """Form-orthogonal complement; requires a positive-definite form."""
    form = space.algebra.form()
    if not form.positive_definite:
        raise ContractViolation("orthogonal complement needs a positive definite form")
    if space.dim == 0:
        return Subspace.full(space.algebra)
    return span_memo(space, lambda: Subspace(space.algebra, arith.nullspace_exact(
        space.basis @ form.matrix), check=False), "complement")


def projector(space: Subspace) -> Scaled:
    """``B^T G^-1 B Q``, the form-orthogonal projection onto ``space`` (memoized
    per span).  Scaling ``B`` or ``Q`` leaves it unchanged, so it is formed
    from their integers around ``G^-1``."""
    def build():
        b = Scaled(space.basis.ints)
        bq = b @ Scaled(space.algebra.form().matrix.ints)
        return b.T @ (arith.inverse(bq @ b.T) @ bq)
    return span_memo(space, build, "projector")


def centralizer_in(target: Subspace, within: Subspace) -> Subspace:
    """Elements of ``within`` commuting with every element of ``target``."""
    if within.dim == 0 or target.dim == 0:
        return within
    system = target.brackets(within)     # [t_i, w] = -[w, t_i]: the same kernel
    null = arith.nullspace_exact(system.reshape(-1, within.dim))
    return Subspace(target.algebra, null @ within.basis, check=False)


@dataclass(frozen=True)
class SubalgebraCheck:
    ok: bool
    witness_pair: tuple[int, int] | None = None

    def __bool__(self):
        return self.ok


def is_subalgebra(space: Subspace) -> SubalgebraCheck:
    """Closure of the span under the bracket, with an offending pair on failure."""
    i, j = np.triu_indices(space.dim, 1)
    _, outside = space.locate(space.brackets(space)[i, :, j].T)
    failing = np.flatnonzero(outside.any(axis=0))
    return SubalgebraCheck(False, (int(i[failing[0]]), int(j[failing[0]]))) if failing.size \
        else SubalgebraCheck(True)


def normalizer(space: Subspace) -> Subspace:
    """Normalizer of a subalgebra, cross-checked against k + centralizer-in-m.

    The ambient algebra's invariant form is used for the cross-check
    decomposition; the normalizer itself is form-independent.
    """
    algebra = space.algebra
    def build():
        check = is_subalgebra(space)
        if not check:
            raise ContractViolation(f"normalizer requires a subalgebra; pair {check.witness_pair} escapes")
        if space.dim == 0:
            return Subspace.full(algebra)
        complement = orthogonal_complement(space)
        proj = complement.basis @ algebra.form().matrix   # row kernel of this = Q-orthogonal to m
        system = proj @ space.ad_matrices       # [k_i, X] in k for all i
        result = Subspace(algebra, arith.nullspace_exact(system.reshape(-1, algebra.dim)),
                          check=False)
        # structural cross-check: n_g(k) = k + c_m(k), Q-orthogonally
        cm = centralizer_in_complement(space)
        if result.dim != space.dim + cm.dim or not (result.contains_space(space)
                                                    and result.contains_space(cm)):
            raise arith.ExactComputationError("normalizer differs from k + c_m(k)")
        return result
    return span_memo(space, build, "normalizer")


def centralizer_in_complement(space: Subspace) -> Subspace:
    """c_m(k): centralizer of the subalgebra inside its form-complement (memoized)."""
    return span_memo(space, lambda: centralizer_in(space, orthogonal_complement(space)), "c_m")


# ---------------------------------------------------------------------------
# rank and regularity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CartanWitness:
    """The centralizer of the generic element that realized the rank estimate."""

    centralizer_basis: Scaled
    abelian: bool

    @property
    def dim(self) -> int:
        return self.centralizer_basis.shape[0]


@dataclass(frozen=True)
class RankEstimate:
    value: int
    witness: CartanWitness


def rank_estimate(space: Subspace) -> RankEstimate:
    """Rank of a compact subalgebra as the minimal generic-centralizer dimension
    (memoized per span).

    Five fixed pseudo-random elements ``h`` (stream ``rank:0:{dim}``) are
    drawn and each system ``ad(h)`` on the subalgebra is ranked mod ``_P``.
    A rank mod p never exceeds the rational rank, so ``dim - rank_p`` bounds
    the centralizer from above; only the first element of largest modular
    rank gets its centralizer computed exactly, and that centralizer must be
    abelian.  While it is not, further elements are drawn (13 in all at
    most), and one is computed exactly only when its modular nullity is below
    the best exact dimension.  An abelian centralizer in a compact algebra is
    a Cartan subalgebra, so its dimension is the rank, whichever element
    produced it, and no other draw can undercut it.
    """
    if space.dim == 0:
        return RankEstimate(0, CartanWitness(Scaled.zeros((0, space.algebra.dim)), True))

    def build():
        rng = random.Random(f"rank:0:{space.dim}")
        elements = [space.random_element(rng) for _ in range(5)]
        nullities = [_nullity_modp(space, h) for h in elements]
        best = _centralizer_witness(space, elements[nullities.index(min(nullities))])
        for _ in range(8):
            if best.abelian:
                break
            element = space.random_element(rng)
            if _nullity_modp(space, element) < best.dim:
                best = _centralizer_witness(space, element)
        if not best.abelian:
            raise arith.ExactComputationError("rank estimate failed to find an abelian centralizer")
        return RankEstimate(best.dim, best)
    return span_memo(space, build, "rank")


def _nullity_modp(space: Subspace, element) -> int:
    """``dim`` minus the rank mod ``_P`` of ``ad(element)`` on the subalgebra: an
    upper bound on the dimension of the element's centralizer in it."""
    system = space.algebra.contract(element) @ space.basis.T
    return space.dim - arith.rank_modp(system.ints)


def _centralizer_witness(space: Subspace, element) -> CartanWitness:
    null = arith.nullspace_exact(space.algebra.contract(element) @ space.basis.T)
    vectors = null @ space.basis
    brackets = (space.algebra.contract(vectors) @ vectors.T).ints   # [a, k, b] = [v_a, v_b]_k
    abelian = not np.any(np.transpose(brackets, (0, 2, 1))[np.triu_indices(len(vectors), 1)])
    return CartanWitness(vectors, abelian)


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    maximal_rank: bool
    rank_ambient: int
    rank_subalgebra: int
    rank_normalizer: int

    def __bool__(self):
        return self.regular


def is_regular(space: Subspace) -> RegularityReport:
    """Regularity: the normalizer attains the ambient rank.

    A subalgebra normalized by a Cartan subalgebra t of the ambient algebra
    has t inside its normalizer, so regularity is equivalent to the
    normalizer having maximal rank.  The zero subalgebra counts as regular.
    """
    algebra = space.algebra
    full = Subspace.full(algebra)
    rank_g = rank_estimate(full).value
    if space.dim == 0:
        return RegularityReport(True, rank_g == 0, rank_g, 0, rank_g)
    rank_k = rank_estimate(space).value
    norm = normalizer(space)
    rank_n = rank_estimate(norm).value
    return RegularityReport(rank_n == rank_g, rank_k == rank_g, rank_g, rank_k, rank_n)


# ---------------------------------------------------------------------------
# ideal decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecomposedSubalgebra:
    center: Subspace
    ideals: tuple[Subspace, ...]


def derived_subalgebra(space: Subspace) -> Subspace:
    i, j = np.triu_indices(space.dim, 1)
    return Subspace.span(space.algebra, space.brackets(space)[i, :, j])


def ideal_decomposition(space: Subspace) -> DecomposedSubalgebra:
    """Split a compact subalgebra into its center and simple ideals.

    The center is the kernel of the adjoint action of the subalgebra on
    itself; the ideals are the irreducible pieces of the derived part acting
    on itself (:func:`reps.split_pieces`).  Two distinct simple ideals are
    never equivalent, since each acts trivially on the other, so no
    intertwiner is solved; a piece not labeled irreducible raises.
    """
    def build():
        check = is_subalgebra(space)
        if not check:
            raise ContractViolation("ideal decomposition requires a subalgebra")
        center = centralizer_in(space, space)
        derived = derived_subalgebra(space)
        if center.dim + derived.dim != space.dim or center.intersect(derived).dim != 0:
            raise ContractViolation("subalgebra is not reductive (center + derived != whole); "
                                    "only compact-type inputs are supported")
        if derived.dim == 0:
            return DecomposedSubalgebra(center=center, ideals=())
        from . import reps  # local import: reps builds on this module
        pieces = reps.split_pieces(derived, derived)
        if any(label != "irreducible" for _, label in pieces):
            raise arith.ExactComputationError("derived algebra did not split into simple ideals")
        ideals = tuple(piece for piece, _ in pieces)
        for ideal in ideals:
            if not is_subalgebra(ideal):
                raise arith.ExactComputationError("ideal candidate is not bracket-closed")
        for a in range(len(ideals)):
            for b in range(a + 1, len(ideals)):
                if not is_zero(ideals[a].brackets(ideals[b])):
                    raise arith.ExactComputationError("ideal candidates do not commute")
        return DecomposedSubalgebra(center=center, ideals=ideals)
    return span_memo(space, build, "ideals")
