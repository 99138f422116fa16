"""Metric endomorphisms and their structural analysis.

A left-invariant metric on the group is encoded by its metric endomorphism:
the positive-definite operator L, self-adjoint for the fixed invariant inner
product Q, with metric(X, Y) = Q(L X, Y).  This module builds block-scalar
operators, checks equivariance, computes the full isometry subalgebra, and
recognizes the naturally reductive normal form on simple algebras (scalar
blocks on the ideals of the isometry subalgebra, one scalar on the
complement, any positive block on the center).  Operators are
:class:`arith.Scaled` matrices; building, checking, applying and restricting
them are integer products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import arith
from .arith import ContractViolation, Scaled, is_zero, q
from .lie import StructureAlgebra
from .subspaces import (DecomposedSubalgebra, Subspace, ideal_decomposition,
                        is_subalgebra, orthogonal_complement, projector,
                        shared_subspace, span_memo)


@dataclass(frozen=True)
class BlockSpec:
    """Scalar blocks (subspace, positive parameter) plus an optional free block.

    The free block carries an arbitrary inner product on a designated center
    subspace, given as a symmetric positive-definite matrix in that
    subspace's basis coordinates (the corresponding operator block is
    recovered through the center's Gram matrix).
    """

    blocks: tuple[tuple[Subspace, Fraction], ...]
    center_block: tuple[Subspace, Scaled | np.ndarray] | None = None

    def subspaces(self):
        out = [s for s, _ in self.blocks]
        if self.center_block is not None:
            out.append(self.center_block[0])
        return out


class MetricOperator:
    """A positive Q-self-adjoint operator with the block data it was built from."""

    def __init__(self, algebra: StructureAlgebra, matrix, block_spec: BlockSpec):
        self.algebra = algebra
        self.matrix = Scaled.of(matrix).reduced()
        self.block_spec = block_spec
        h = self.metric_matrix
        if np.any(h.ints != h.ints.T):
            raise ContractViolation("operator is not self-adjoint for the form")
        if not arith.is_positive_definite_exact(h):
            raise ContractViolation("metric operator is not positive definite")

    @cached_property
    def metric_matrix(self) -> Scaled:
        """Matrix H of the metric inner product: metric(x,y) = x^T H y."""
        return self.algebra.form().matrix @ self.matrix

    def apply(self, x) -> Scaled:
        return self.matrix @ Scaled.of(x)

    @cached_property
    def invariant_pieces(self) -> tuple[Subspace, ...]:
        """Finest exact L-invariant splitting read off the block data.

        The scalar blocks sharing a value span one eigenspace (as an rref), in
        increasing order of value.  A free center block adds its primary
        components, which stand in for its eigenspaces when its spectrum is
        irrational; every piece is still exactly L-invariant, which is all the
        sampling strategies need.
        """
        by_value: dict[Fraction, list[Scaled]] = {}
        for space, value in self.block_spec.blocks:
            by_value.setdefault(value, []).append(space.basis)
        pieces = [Subspace.span(self.algebra, Scaled.concat(bases))
                  for _, bases in sorted(by_value.items(), key=lambda p: p[0])]
        if self.block_spec.center_block is not None:
            center, _ = self.block_spec.center_block
            if center.dim:
                for _factor, rows in arith.primary_invariant_split(restrict_operator(self, center)):
                    pieces.append(Subspace(self.algebra, rows @ center.basis, check=False))
        return tuple(pieces)

    @cached_property
    def isometry_subalgebra(self) -> Subspace:
        """Maximal subalgebra whose adjoint operators are metric-skew.

        Solves ad_X^T H + H ad_X = 0 for X, with H the metric's matrix; the
        solution space is verified to be bracket-closed.  Q is ad-invariant, so
        ad_X^T H + H ad_X = Q [L, ad_X]: X is an isometry exactly when ad_X
        commutes with L.  With scalar blocks only, L = sum(value_a * E_a) over
        distinct values, each E_a a polynomial in L, so that holds exactly when
        ad_X preserves each E_a's range: the solve is memoized per block set and
        grouping of the blocks by equal value.
        """
        def solve():
            space = Subspace(self.algebra, arith.nullspace_exact(skewness_system(self)), check=False)
            shared = shared_subspace(space, "isometry")   # closure is checked once per span
            if shared is space and not is_subalgebra(space):  # pragma: no cover - mathematically impossible
                raise arith.ExactComputationError("isometry candidate is not a subalgebra")
            return shared
        if self.block_spec.center_block and self.block_spec.center_block[0].dim:
            return solve()
        blocks = [(s, v) for s, v in self.block_spec.blocks if s.dim]
        groups = {v: tuple(i for i, (_, w) in enumerate(blocks) if w == v) for _, v in blocks}
        return span_memo(blocks[0][0], solve, "isometry-of", tuple(sorted(groups.values())),
                         *(s.sort_key() for s, _ in blocks[1:]))

    def is_scalar(self) -> Fraction | None:
        return self.matrix.scalar()


def metric_from_blocks(algebra: StructureAlgebra, spec: BlockSpec) -> MetricOperator:
    """Assemble the operator acting as parameter * Id on each scalar block.

    Blocks must be pairwise orthogonal for the form and span the algebra;
    parameters must be positive.  The optional center block contributes an
    arbitrary positive-definite symmetric matrix in its subspace coordinates.
    The operator is ``sum(value * P)`` over the blocks' form-orthogonal
    projectors ``P``; the projectors and both checks on the blocks depend on
    the spans alone, so they are made once per block set (:func:`_block_projectors`).
    """
    form = algebra.form()
    if any(q(value) <= 0 for _, value in spec.blocks):
        raise ContractViolation("block parameters must be positive")
    if spec.center_block is not None:
        center, inner = spec.center_block
        inner = Scaled.of(inner)
        if inner.shape != (center.dim, center.dim):
            raise ContractViolation("center block shape mismatch")
        if not arith.is_positive_definite_exact(inner):
            raise ContractViolation("center block must be a symmetric positive definite "
                                    "inner-product matrix")
    spaces = [s for s in spec.subspaces() if s.dim]
    total = sum(s.dim for s in spaces)
    if total != algebra.dim:
        raise ContractViolation(f"blocks span dimension {total}, expected {algebra.dim}")
    projectors = _block_projectors(spaces)
    # the center's projector, if any, comes last and is left out by zip
    matrix = sum(p * v for p, v in zip(projectors, [v for s, v in spec.blocks if s.dim]))
    if spec.center_block is not None and center.dim:
        # Q(L u, v) = inner(u, v) on the center: L = B^T G^-1 inner G^-1 B Q there
        gram_inv = center.gram_inverse
        matrix = matrix + center.basis.T @ (gram_inv @ inner @ gram_inv) @ center.basis @ form.matrix
    return MetricOperator(algebra, matrix, spec)


def _block_projectors(spaces: list[Subspace]) -> tuple[Scaled, ...]:
    """Projectors of nonzero blocks, checked pairwise orthogonal and spanning the algebra,
    memoized per block set (the spans, in order); failing blocks raise and store nothing."""
    def build():
        algebra = spaces[0].algebra
        # each block's rows are scaled by a positive integer, which keeps zero blocks zero
        basis = Scaled.concat([Scaled(s.basis.ints) for s in spaces])
        gram = (basis @ Scaled(algebra.form().matrix.ints) @ basis.T).ints
        starts = np.cumsum([0] + [s.dim for s in spaces])
        for a in range(len(spaces)):
            if np.any(gram[starts[a]:starts[a + 1], starts[a + 1]:]):
                raise ContractViolation("blocks are not orthogonal for the form")
        projectors = tuple(projector(s) for s in spaces)
        if not sum(projectors).equals(np.eye(algebra.dim, dtype=np.int64)):
            raise ContractViolation("blocks do not span the algebra")
        return projectors
    return span_memo(spaces[0], build, "blocks", *(s.sort_key() for s in spaces[1:]))


# ---------------------------------------------------------------------------
# equivariance and the isometry subalgebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivarianceResult:
    ok: bool
    witness_index: int | None = None

    def __bool__(self):
        return self.ok


def equivariance_check(operator: MetricOperator, space: Subspace) -> EquivarianceResult:
    """Whether the operator commutes with ad_X for every basis vector of ``space``.

    All commutators are one stacked integer product each way; the witness
    is the first basis vector whose commutator is nonzero.
    """
    ads, op = space.ad_matrices, operator.matrix
    failing = np.flatnonzero((ads @ op - op @ ads).ints.any(axis=(1, 2)))
    return EquivarianceResult(False, int(failing[0])) if failing.size else EquivarianceResult(True)


def skewness_system(operator: MetricOperator) -> Scaled:
    """Columns i: the matrix of ad_{e_i}^T H + H ad_{e_i}, flattened."""
    d = operator.algebra.dim
    return operator.algebra.skewness(operator.metric_matrix).reshape(d, d * d).T


def isometry_subalgebra(operator: MetricOperator) -> Subspace:
    """Maximal subalgebra whose adjoint operators are metric-skew (cached on the operator)."""
    return operator.isometry_subalgebra


# ---------------------------------------------------------------------------
# restriction and bi-invariance
# ---------------------------------------------------------------------------

def invariant_subspace(operator: MetricOperator, space: Subspace) -> bool:
    return space.dim == 0 or space.coords(operator.matrix @ space.basis.T) is not None


def restrict_operator(operator: MetricOperator, space: Subspace) -> Scaled:
    """Matrix of the operator on an invariant subspace, in its basis."""
    coords = space.coords(operator.matrix @ space.basis.T)
    if coords is None:
        raise ContractViolation("subspace is not invariant under the operator")
    return coords


def bi_invariance_check(operator: MetricOperator, subalgebra: Subspace) -> bool:
    """Whether the restriction to a subalgebra k defines a bi-invariant metric.

    By definition Q(L., .) must be ad(k)-invariant on k.  Q is ad-invariant
    and nondegenerate on k and L is Q-self-adjoint, so
    ``Q(L[Z,X], Y) + Q(LX, [Z,Y]) = Q((L ad_Z - ad_Z L) X, Y)``: L must
    preserve k and commute with ad_Z on k for every basis vector Z of k, one
    stacked integer product.
    """
    if not invariant_subspace(operator, subalgebra):
        return False
    ads, op = subalgebra.ad_matrices, operator.matrix
    return is_zero((ads @ op - op @ ads) @ subalgebra.basis.T)


# ---------------------------------------------------------------------------
# naturally reductive normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DaZiReport:
    """Outcome of the naturally-reductive normal-form recognition."""

    verdict: bool
    isometry_subalgebra: Subspace
    decomposition: DecomposedSubalgebra | None
    ideal_scalars: tuple[Fraction, ...]
    complement_scalar: Fraction | None
    reason: str = ""

    def __bool__(self):
        return self.verdict


def _is_simple(algebra: StructureAlgebra) -> bool:
    if getattr(algebra, "_known_simple", None) is not None:
        return algebra._known_simple
    if algebra.canonical_form is None:
        algebra._known_simple = False
        return False
    if algebra.dim > 28:
        raise arith.ExactComputationError(
            "cannot certify simplicity of user algebras beyond dimension 28")
    dec = ideal_decomposition(Subspace.full(algebra))
    algebra._known_simple = dec.center.dim == 0 and len(dec.ideals) == 1
    return algebra._known_simple


def dazi_structure_check(operator: MetricOperator) -> DaZiReport:
    """Recognize the naturally reductive normal form on a simple algebra.

    Computes the full isometry subalgebra k', decomposes it into center and
    simple ideals, and reports true iff the operator is block-diagonal for
    center + ideals + complement with a scalar on each ideal, one scalar on
    the whole complement, and any positive block on the center.  A rebuilt
    operator from the reported data must reproduce the input exactly.
    """
    algebra = operator.algebra
    if not _is_simple(algebra):
        raise ContractViolation("normal-form recognition requires a simple ambient algebra")
    scalar = operator.is_scalar()
    full = Subspace.full(algebra)
    if scalar is not None:
        dec = DecomposedSubalgebra(center=Subspace.zero(algebra), ideals=(full,))
        return DaZiReport(True, full, dec, (scalar,), None, "scalar (bi-invariant)")
    kprime = operator.isometry_subalgebra
    dec = ideal_decomposition(kprime)
    complement = orthogonal_complement(kprime)
    pieces = [dec.center, *dec.ideals, complement]
    for piece in pieces:
        if not invariant_subspace(operator, piece):
            return DaZiReport(False, kprime, dec, (), None,
                              "operator does not preserve the isometry block decomposition")
    scalars = []
    for ideal in dec.ideals:
        value = restrict_operator(operator, ideal).scalar()
        if value is None:
            return DaZiReport(False, kprime, dec, tuple(scalars), None,
                              "non-scalar block on a simple ideal of the isometry subalgebra")
        scalars.append(value)
    complement_scalar = None
    if complement.dim:
        complement_scalar = restrict_operator(operator, complement).scalar()
        if complement_scalar is None:
            return DaZiReport(False, kprime, dec, tuple(scalars), None,
                              "complement of the isometry subalgebra carries several eigenvalues")
    # rebuild from the reported blocks and compare
    blocks = [(ideal, value) for ideal, value in zip(dec.ideals, scalars)]
    if complement.dim:
        blocks.append((complement, complement_scalar))
    center_block = None
    if dec.center.dim:
        center_operator = restrict_operator(operator, dec.center)
        center_block = (dec.center, dec.center.gram @ center_operator)
    rebuilt = metric_from_blocks(algebra, BlockSpec(tuple(blocks), center_block))
    if not rebuilt.matrix.equals(operator.matrix):  # pragma: no cover - rebuild identity
        raise arith.ExactComputationError("normal-form rebuild mismatch")
    return DaZiReport(True, kprime, dec, tuple(scalars), complement_scalar, "normal form")
