"""The geodesic-orbit decision machinery.

A metric operator L on the algebra is geodesic-orbit for the two-sided
action iff for every direction X there is a witness W in the subalgebra k
with [W + X, L X] = 0.  Per direction this is a linear system in W; an
inconsistent system in exact arithmetic is a proof that the metric is not
geodesic orbit (the criterion is an equivalence), while a solvable sweep
over sampled directions is reported as NotDisproved, never as a proof.

A verdict screens all sampled directions as one stack: where [X, L X] = 0
the zero witness already works.  The witness systems of the other directions
go to one stacked modular solve, :func:`arith.solve_stack`, whether or not
the verdict keeps certificates: a solution it lifts is checked exactly and
gives the minimal-norm witness of a kept certificate, and every system it
cannot lift gets its exact solve there, in label order, so the first
inconsistent direction and its exact rank gap are those of solving every
direction with :func:`go_solve_at`.

Replay checks a record's certificates as stacks too, with one outcome per
certificate (:func:`replay_certificates`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arith
from .arith import ContractViolation, Scaled, is_zero
from .metrics import (MetricOperator, bi_invariance_check, equivariance_check,
                      invariant_subspace)
from .subspaces import (Subspace, centralizer_in, centralizer_in_complement, normalizer,
                        orthogonal_complement, projector, span_memo)


@dataclass(frozen=True)
class SamplingStrategy:
    """Deterministic direction sampling: basis vectors, sums of generic
    vectors from two distinct eigenspaces, and seeded random vectors."""

    seed: int = 0
    random_count: int = 64
    structured: bool = True
    basis_vectors: bool = True

    def __post_init__(self):
        if self.random_count < 0:
            raise ContractViolation("random_count must be >= 0")


@dataclass(frozen=True)
class GoCertificate:
    """A replayable witness: [W + X, L X] = 0 exactly.  For
    :func:`replay_certificates` the fields are the ``(N, dim)`` stacks of N
    certificates."""

    direction: Scaled
    witness: Scaled


@dataclass(frozen=True)
class Unsolvable:
    """Exact certificate that no witness exists for this direction."""

    direction: Scaled
    rank_a: int
    rank_ab: int


@dataclass(frozen=True)
class GoVerdict:
    disproved: bool
    samples: int
    strategy: SamplingStrategy
    counterexample: Unsolvable | None = None
    counterexample_label: str = ""
    certificates: tuple[GoCertificate, ...] = ()

    @property
    def kind(self) -> str:
        return "Disproved" if self.disproved else "NotDisproved"


def _witness_system(operator: MetricOperator, subalgebra: Subspace, direction: Scaled):
    """Integer augmented matrix ``[A | b]`` for [W, L X] = [L X, X] in W, and ``ad(L X)``.

    Column i of A is [k_i, L X] and b is [L X, X]: ``ad(L X)`` applied to the
    basis of k and to the direction, brought to one common scale, so
    ``[A | b]`` is a positive multiple of the rational system.
    """
    ad_lx = operator.algebra.contract(operator.apply(direction))
    aug = Scaled.concat([-(ad_lx @ subalgebra.basis.T), (ad_lx @ direction).reshape(-1, 1)], axis=1)
    return aug.ints, ad_lx


def go_solve_at(operator: MetricOperator, subalgebra: Subspace, direction,
                check_equivariance: bool = True):
    """Witness solve for one direction: GoCertificate or Unsolvable.

    The metric must be equivariant over the subalgebra (two-sided invariance);
    the returned witness has minimal norm for the ambient inner product among
    all solutions, making certificates deterministic and replayable.
    """
    if check_equivariance and not equivariance_check(operator, subalgebra):
        raise ContractViolation("metric operator is not equivariant over the subalgebra")
    direction = Scaled.of(direction)
    aug, ad_lx = _witness_system(operator, subalgebra, direction)
    if not np.any(aug[:, -1]):
        # [X, L X] = 0 already; the zero witness is minimal
        return GoCertificate(direction, Scaled.zeros(operator.algebra.dim))
    return _outcome(operator, subalgebra, direction, ad_lx, arith.solve_int(aug))


def _outcome(operator: MetricOperator, subalgebra: Subspace, direction: Scaled, ad_lx: Scaled,
             sol: arith.Solution | arith.Inconsistent):
    """Unsolvable with the rank gap of an inconsistent witness system, or the
    GoCertificate of a solvable one, whose minimal-norm witness is checked by
    ``[W + X, L X] = 0``."""
    if isinstance(sol, arith.Inconsistent):
        return Unsolvable(direction, sol.rank_a, sol.rank_ab)
    witness = _minimal_norm(sol, subalgebra) @ subalgebra.basis
    if not is_zero(ad_lx @ (witness + direction)):  # [W + X, L X]; pragma: no cover - solver identity
        raise arith.ExactComputationError("witness verification failed")
    return GoCertificate(direction, witness)


def _minimal_norm(sol: arith.Solution, subalgebra: Subspace):
    """Minimal ambient-norm coefficient vector among x0 + nullspace.

    The form is positive definite on k, so the Gram matrix of the nullspace
    basis is invertible and the minimum is unique: the form-orthogonal
    projection of the origin onto x0 + nullspace, whichever particular
    solution and nullspace basis describe that affine space.
    """
    if sol.nullspace.shape[0] == 0 or subalgebra.dim == 0:
        return sol.x
    gram = subalgebra.gram
    n = sol.nullspace
    return sol.x - (n @ (gram @ sol.x)) @ arith.inverse(n @ gram @ n.T) @ n


# ---------------------------------------------------------------------------
# direction sampling and the verdict
# ---------------------------------------------------------------------------

def _directions(operator: MetricOperator, strategy: SamplingStrategy,
                within: Subspace | None = None) -> tuple[list[str], Scaled]:
    """Deterministic ordered samples: their labels and the ``(N, dim)`` stack
    of directions (basis rows, then pair sums, then random elements)."""
    space = within if within is not None else Subspace.full(operator.algebra)
    labels, parts = [], []
    if strategy.basis_vectors:
        labels += [f"basis:{i}" for i in range(space.dim)]
        parts.append(space.basis)
    if strategy.structured:
        pieces = operator.invariant_pieces if within is None else tuple(
            span_memo(p, lambda p=p: p.intersect(within), "intersect", within.sort_key())
            for p in operator.invariant_pieces)
        pieces = [p for p in pieces if p.dim > 0]
        rows = []      # pair coefficients on the pieces' bases stacked together
        for i, j in ((i, j) for i in range(len(pieces)) for j in range(i + 1, len(pieces))):
            rng = random.Random(f"pair:{strategy.seed}:{i}:{j}")
            drawn = {n: pieces[n].random_coefficients(rng) for n in (i, j)}     # i first
            rows.append([c for n, p in enumerate(pieces) for c in drawn.get(n, [0] * p.dim)])
            labels.append(f"pair:{i}:{j}")
        if rows:
            parts.append(Scaled(np.array(rows, dtype=np.int64), 1, 9)
                         @ Scaled.concat([p.basis for p in pieces]))
    coeffs = [space.random_coefficients(random.Random(f"random:{strategy.seed}:{r}"))
              for r in range(strategy.random_count)]
    labels += [f"random:{r}" for r in range(strategy.random_count)]
    parts.append(Scaled(np.array(coeffs, dtype=np.int64).reshape(len(coeffs), space.dim), 1, 9)
                 @ space.basis)
    return labels, Scaled.concat(parts)


def go_verdict(operator: MetricOperator, subalgebra: Subspace,
               strategy: SamplingStrategy = SamplingStrategy(),
               within: Subspace | None = None,
               keep_certificates: bool = False) -> GoVerdict:
    """Sweep sampled directions; Disproved on the first exact inconsistency.

    All directions are screened as one stack: ``L X``, ``ad(L X)`` and
    ``[L X, X]`` are batched products.  A direction with ``[L X, X] = 0`` has
    the zero witness.  The witness systems of all other directions go to one
    :func:`arith.solve_stack`, which lifts their solutions (with nullspaces
    when certificates are kept) and solves every system it cannot lift
    exactly, up to the first inconsistent one.  The labels are walked in
    order: a solution gives its minimal-norm witness, and a negative verdict
    carries the exact rank gap of the first failing direction.
    NotDisproved is explicitly a sampling outcome, not a proof.
    """
    if not equivariance_check(operator, subalgebra):
        raise ContractViolation("metric operator is not equivariant over the subalgebra")
    labels, directions = _directions(operator, strategy, within)
    ad_lx = operator.algebra.contract(directions @ operator.matrix.T)   # row n: ad(L X_n)
    bracket = ad_lx @ directions.reshape(*directions.shape, 1)          # row n: [L X_n, X_n]
    moving = np.flatnonzero(np.any(bracket.ints != 0, axis=(1, 2)))
    aug = Scaled.concat([-(ad_lx[moving] @ subalgebra.basis.T), bracket[moving]], axis=2)
    solved = dict(zip(moving.tolist(), arith.solve_stack(aug.ints, keep_certificates)))
    certificates = []
    for n, label in enumerate(labels):
        if n not in solved:
            if keep_certificates:
                certificates.append(GoCertificate(directions[n], Scaled.zeros(operator.algebra.dim)))
            continue
        if not keep_certificates and not isinstance(solved[n], arith.Inconsistent):
            continue
        result = _outcome(operator, subalgebra, directions[n], ad_lx[n], solved[n])
        if isinstance(result, Unsolvable):
            return GoVerdict(True, n + 1, strategy, counterexample=result,
                             counterexample_label=label, certificates=tuple(certificates))
        if keep_certificates:
            certificates.append(result)
    return GoVerdict(False, len(labels), strategy, certificates=tuple(certificates))


def replay_certificates(operator: MetricOperator, certificates: GoCertificate,
                        subalgebra: Subspace) -> list[bool]:
    """Re-verify N witnesses exactly, as stacks; one outcome per certificate.

    ``certificates`` holds the ``(N, dim)`` stacks of the directions X and
    witnesses W.  Certificate n holds when W_n lies in k and
    ``[W_n + X_n, L X_n] = 0``: the membership is one :meth:`Subspace.locate`
    of all witnesses, and the brackets are one stacked product
    ``contract(W + X) @ (L X)``.
    """
    directions, witnesses = certificates.direction, certificates.witness
    _, outside = subalgebra.locate(witnesses.T)
    lx = directions @ operator.matrix.T
    brackets = operator.algebra.contract(witnesses + directions) @ lx.reshape(*lx.shape, 1)
    return (~outside.any(axis=0) & ~brackets.ints.any(axis=(1, 2))).tolist()


def replay_counterexample(operator: MetricOperator, subalgebra: Subspace,
                          counterexample: Unsolvable) -> bool:
    """Re-verify the exact rank gap of a disproving direction."""
    aug, _ = _witness_system(operator, subalgebra, Scaled.of(counterexample.direction))
    rank_a = arith.rank_exact(aug[:, :-1])
    rank_ab = arith.rank_exact(aug)
    return rank_a == counterexample.rank_a and rank_ab == counterexample.rank_ab \
        and rank_a < rank_ab


# ---------------------------------------------------------------------------
# naturally reductive trilinear condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NatredResult:
    ok: bool
    witness_triple: tuple[int, int, int] | None = None
    witness_value: Fraction | None = None

    def __bool__(self):
        return self.ok


def natred_condition_check(operator: MetricOperator, subalgebra: Subspace,
                           complement: Subspace) -> NatredResult:
    """Vanishing of metric([X,Y]_m, X) for all X, Y in the complement.

    Checked through the symmetrized coefficient tensor on basis triples; the
    decomposition must be reductive ([k, m] inside m).
    """
    image = subalgebra.brackets(complement)                 # [i, :, c] = [k_i, v_c]
    if complement.coords(image.transpose(1, 0, 2).reshape(operator.algebra.dim, -1)) is None:
        raise ContractViolation("decomposition is not reductive: [k, m] escapes m")
    if complement.dim == 0:
        return NatredResult(True)
    m = complement.dim
    # U[a,b,c] = metric([v_a, v_c]_m, v_b); condition: U[a,b,c] + U[b,a,c] = 0
    flat = complement.brackets(complement).transpose(0, 2, 1).reshape(m * m, -1)  # [(a,c), k]
    proj = projector(complement)
    u = (flat @ (proj.T @ operator.metric_matrix @ complement.basis.T)).reshape(m, m, m)
    total = u.transpose(0, 2, 1) + u.transpose(2, 0, 1)    # u[a,c,b] = metric([v_a,v_c]_m, v_b)
    if is_zero(total):
        return NatredResult(True)
    a, b, c = (int(t) for t in np.argwhere(total.ints)[0])    # the first failing triple
    return NatredResult(False, (a, b, c), total[a, b, c])


# ---------------------------------------------------------------------------
# normalizer equivariance, two-step identity, splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypothesisFlags:
    semisimple: bool
    self_normalizing: bool

    @property
    def satisfied(self) -> bool:
        return self.semisimple or self.self_normalizing


def hypothesis_flags(subalgebra: Subspace) -> HypothesisFlags:
    """Whether k is semisimple and whether it is self-normalizing (memoized per span).

    A compact k is reductive, so it is semisimple exactly when its center,
    the centralizer of k in k, is zero; it is self-normalizing exactly when
    its centralizer in the complement is zero.
    """
    return span_memo(subalgebra, lambda: HypothesisFlags(
        semisimple=centralizer_in(subalgebra, subalgebra).dim == 0,
        self_normalizing=centralizer_in_complement(subalgebra).dim == 0), "flags")


@dataclass(frozen=True)
class NormalizerEquivarianceReport:
    ok: bool
    flags: HypothesisFlags
    normalizer_dim: int
    witness_index: int | None = None

    def __bool__(self):
        return self.ok


def normalizer_equivariance_check(operator: MetricOperator,
                                  subalgebra: Subspace) -> NormalizerEquivarianceReport:
    """Equivariance of the metric over the normalizer of the subalgebra.

    For geodesic-orbit metrics with a semisimple or self-normalizing
    subalgebra this must hold; the hypothesis flags are reported, not
    assumed.
    """
    flags = hypothesis_flags(subalgebra)
    norm = normalizer(subalgebra)
    result = equivariance_check(operator, norm)
    return NormalizerEquivarianceReport(result.ok, flags, norm.dim, result.witness_index)


@dataclass(frozen=True)
class SplitReport:
    ok: bool
    subalgebra_invariant: bool
    complement_invariant: bool
    bi_invariant_on_subalgebra: bool
    coset_verdict: GoVerdict | None

    def __bool__(self):
        return self.ok


def split_check(operator: MetricOperator, subalgebra: Subspace,
                strategy: SamplingStrategy = SamplingStrategy()) -> SplitReport:
    """Block-splitting of a candidate geodesic-orbit metric.

    Verifies that the operator preserves both the subalgebra k and its
    orthogonal complement m, that the restriction to k is bi-invariant (L
    commutes with ad(k) on k, :func:`metrics.bi_invariance_check`), and that
    the complement restriction passes the coset witness sweep
    ([W + X, L X] = 0 with X ranging over m).  The theorem's hypotheses on k
    are not decided here.
    """
    complement = orthogonal_complement(subalgebra)
    k_inv = invariant_subspace(operator, subalgebra)
    m_inv = invariant_subspace(operator, complement)
    bi = k_inv and bi_invariance_check(operator, subalgebra)
    coset = go_verdict(operator, subalgebra, strategy, within=complement) if m_inv else None
    ok = k_inv and m_inv and bi and coset is not None and not coset.disproved
    return SplitReport(ok=ok, subalgebra_invariant=k_inv, complement_invariant=m_inv,
                       bi_invariant_on_subalgebra=bi, coset_verdict=coset)
