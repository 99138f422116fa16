"""The geodesic-orbit decision machinery.

A metric operator L on the algebra is geodesic-orbit for the two-sided
action iff for every direction X there is a witness W in the subalgebra k
with [W + X, L X] = 0.  Per direction this is a linear system in W; an
inconsistent system in exact arithmetic is a proof that the metric is not
geodesic orbit (the criterion is an equivalence), while a solvable sweep
over sampled directions is reported as NotDisproved, never as a proof.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arith, reps
from .arith import ContractViolation, is_zero, qzeros
from .metrics import (MetricOperator, bi_invariance_check, equivariance_check,
                      invariant_subspace)
from .subspaces import (Subspace, centralizer_in_complement, ideal_decomposition, normalizer,
                        orthogonal_complement, projection_ints, span_memo)


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
    """A replayable witness: [W + X, L X] = 0 exactly."""

    direction: np.ndarray
    witness: np.ndarray


@dataclass(frozen=True)
class Unsolvable:
    """Exact certificate that no witness exists for this direction."""

    direction: np.ndarray
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


def _witness_system(operator: MetricOperator, subalgebra: Subspace, direction):
    """Integer augmented matrix ``[A | b]`` for [W, L X] = [L X, X] in W.

    Column i of A is [k_i, L X] and b is [L X, X]: ``ad(L X)`` applied to the
    cleared basis of k and to the cleared direction, with the two parts
    brought to one common scale, so ``[A | b]`` is a positive multiple of the
    rational system.  The products are :func:`arith.int_matmul`, int64 when
    safe and Python ints otherwise; the result holds Python ints.
    """
    ad_lx, _ = operator.algebra.contract(operator.apply_int(direction)[0])
    basis_int, basis_scale = subalgebra.int_basis
    x_int, x_scale = arith.clear_denominators(np.asarray(direction, dtype=object))
    a = arith.int_matmul(ad_lx, basis_int.T).astype(object) * -x_scale
    b = arith.int_matmul(ad_lx, x_int).astype(object) * basis_scale
    return np.concatenate([a, b[:, None]], axis=1)


def go_solve_at(operator: MetricOperator, subalgebra: Subspace, direction,
                check_equivariance: bool = True):
    """Witness solve for one direction: GoCertificate or Unsolvable.

    The metric must be equivariant over the subalgebra (two-sided invariance);
    the returned witness has minimal norm for the ambient inner product among
    all solutions, making certificates deterministic and replayable.
    """
    if check_equivariance and not equivariance_check(operator, subalgebra):
        raise ContractViolation("metric operator is not equivariant over the subalgebra")
    aug = _witness_system(operator, subalgebra, direction)
    if is_zero(aug[:, -1]):
        # [X, L X] = 0 already; the zero witness is minimal
        return GoCertificate(np.asarray(direction, dtype=object), qzeros(operator.algebra.dim))
    sol = arith.solve_int(aug)
    if isinstance(sol, arith.Inconsistent):
        return Unsolvable(np.asarray(direction, dtype=object), sol.rank_a, sol.rank_ab)
    coeffs = _minimal_norm(sol, subalgebra, operator)
    witness = arith.exact_matmul(coeffs, subalgebra.basis) if subalgebra.dim else qzeros(operator.algebra.dim)
    check = operator.algebra.bracket(witness + np.asarray(direction, dtype=object),
                                     operator.apply(direction))
    if not is_zero(check):  # pragma: no cover - solver identity
        raise arith.ExactComputationError("witness verification failed")
    return GoCertificate(np.asarray(direction, dtype=object), witness)


def _minimal_norm(sol: arith.Solution, subalgebra: Subspace, operator: MetricOperator):
    """Minimal ambient-norm coefficient vector among x0 + nullspace."""
    if sol.nullspace.shape[0] == 0 or subalgebra.dim == 0:
        return sol.x
    gram = subalgebra.gram(operator.form)
    n = sol.nullspace
    normal = arith.exact_matmul(n, arith.exact_matmul(gram, n.T))
    rhs = -arith.exact_matmul(n, arith.exact_matmul(gram, sol.x))
    t = arith.solve_linear(normal, rhs)
    if isinstance(t, arith.Inconsistent):  # pragma: no cover - gram is definite
        raise arith.ExactComputationError("minimal-norm solve failed")
    return sol.x + arith.exact_matmul(t.x, n)


# ---------------------------------------------------------------------------
# direction sampling and the verdict
# ---------------------------------------------------------------------------

def _directions(operator: MetricOperator, strategy: SamplingStrategy,
                within: Subspace | None = None):
    """Deterministic ordered stream of (label, direction) samples."""
    algebra = operator.algebra
    out = []
    if within is None:
        if strategy.basis_vectors:
            for i in range(algebra.dim):
                out.append((f"basis:{i}", algebra.basis_vector(i)))
        pieces = operator.invariant_pieces
    else:
        if strategy.basis_vectors:
            for i in range(within.dim):
                out.append((f"basis:{i}", within.basis[i]))
        pieces = tuple(span_memo(p, lambda p=p: p.intersect(within), "intersect", within.sort_key())
                       for p in operator.invariant_pieces)
    if strategy.structured:
        pieces = [p for p in pieces if p.dim > 0]
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                rng = random.Random(f"pair:{strategy.seed}:{i}:{j}")
                vi = pieces[i].random_element(rng)
                vj = pieces[j].random_element(rng)
                out.append((f"pair:{i}:{j}", vi + vj))
    space = within if within is not None else Subspace.full(algebra)
    for r in range(strategy.random_count):
        rng = random.Random(f"random:{strategy.seed}:{r}")
        out.append((f"random:{r}", space.random_element(rng)))
    return out


def go_verdict(operator: MetricOperator, subalgebra: Subspace,
               strategy: SamplingStrategy = SamplingStrategy(),
               within: Subspace | None = None,
               keep_certificates: bool = False) -> GoVerdict:
    """Sweep sampled directions; Disproved on the first exact inconsistency.

    Every witness system is solved exactly, so a negative verdict carries an
    exact rank-gap certificate.  NotDisproved is explicitly a sampling
    outcome, not a proof.
    """
    if not equivariance_check(operator, subalgebra):
        raise ContractViolation("metric operator is not equivariant over the subalgebra")
    certificates = []
    count = 0
    for label, direction in _directions(operator, strategy, within):
        count += 1
        result = go_solve_at(operator, subalgebra, direction, check_equivariance=False)
        if isinstance(result, Unsolvable):
            return GoVerdict(True, count, strategy, counterexample=result,
                             counterexample_label=label,
                             certificates=tuple(certificates) if keep_certificates else ())
        if keep_certificates:
            certificates.append(result)
    return GoVerdict(False, count, strategy,
                     certificates=tuple(certificates) if keep_certificates else ())


def replay_certificate(operator: MetricOperator, certificate: GoCertificate,
                       subalgebra: Subspace) -> bool:
    """Re-verify a witness exactly: membership in k and the defining identity."""
    if not subalgebra.contains(certificate.witness):
        return False
    check = operator.algebra.bracket(
        np.asarray(certificate.witness, dtype=object) + np.asarray(certificate.direction, dtype=object),
        operator.apply(certificate.direction))
    return is_zero(check)


def replay_counterexample(operator: MetricOperator, subalgebra: Subspace,
                          counterexample: Unsolvable) -> bool:
    """Re-verify the exact rank gap of a disproving direction."""
    aug = _witness_system(operator, subalgebra, counterexample.direction)
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
    m_int, m_scale = complement.int_basis
    for ad_int, ad_scale in subalgebra.int_ad_matrices:
        image = arith.from_ints(arith.int_matmul(ad_int, m_int.T), ad_scale * m_scale)
        if complement.coords_matrix(image) is None:
            raise ContractViolation("decomposition is not reductive: [k, m] escapes m")
    if complement.dim == 0:
        return NatredResult(True)
    m = complement.dim
    # U[a,b,c] = metric([v_a, v_c]_m, v_b); condition: U[a,b,c] + U[b,a,c] = 0
    ads, ad_scale = operator.algebra.contract(m_int)                         # ads[a] = ad(v_a)
    brackets = np.transpose(arith.int_matmul(ads, m_int.T), (0, 2, 1))       # [a, c, k] = [v_a, v_c]_k
    proj = _projection_matrix(complement, operator.form)
    h = operator.metric_matrix
    flat, flat_scale = brackets.reshape(m * m, -1), ad_scale * m_scale * m_scale
    p_int, p_scale = arith.clear_denominators(proj)
    h_int, h_scale = arith.clear_denominators(h)
    u = arith.int_matmul(arith.int_matmul(arith.int_matmul(flat, p_int.T), h_int), m_int.T)
    u = u.reshape(m, m, m)                      # u[a,c,b] = metric([v_a,v_c]_m, v_b) * scale
    total = np.transpose(u, (0, 2, 1)) + np.transpose(u, (2, 0, 1))
    if is_zero(total):
        return NatredResult(True)
    a, b, c = (int(t) for t in np.argwhere(total)[0])    # the first failing triple
    scale = flat_scale * p_scale * h_scale * m_scale
    return NatredResult(False, (a, b, c), Fraction(int(total[a, b, c]), scale))


def _projection_matrix(space: Subspace, form) -> np.ndarray:
    """Matrix of the form-orthogonal projection onto ``space``."""
    return arith.from_ints(*projection_ints(space, form))


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


def hypothesis_flags(subalgebra: Subspace, seed: int = 0) -> HypothesisFlags:
    return span_memo(subalgebra, lambda: HypothesisFlags(
        semisimple=ideal_decomposition(subalgebra, seed=seed).center.dim == 0,
        self_normalizing=centralizer_in_complement(subalgebra).dim == 0), "flags", seed)


@dataclass(frozen=True)
class NormalizerEquivarianceReport:
    ok: bool
    flags: HypothesisFlags
    normalizer_dim: int
    witness_index: int | None = None

    def __bool__(self):
        return self.ok


def normalizer_equivariance_check(operator: MetricOperator,
                                  subalgebra: Subspace, seed: int = 0) -> NormalizerEquivarianceReport:
    """Equivariance of the metric over the normalizer of the subalgebra.

    For geodesic-orbit metrics with a semisimple or self-normalizing
    subalgebra this must hold; the hypothesis flags are reported, not
    assumed.
    """
    flags = hypothesis_flags(subalgebra, seed=seed)
    norm = normalizer(subalgebra)
    result = equivariance_check(operator, norm)
    return NormalizerEquivarianceReport(result.ok, flags, norm.dim, result.witness_index)


def two_step_identity_check(operator: MetricOperator, subalgebra: Subspace,
                            z, w) -> bool:
    """Joint vanishing of the two equivalent geodesic expressions.

    With X = Z - W the expressions [Z-W, L(Z-W)] - L[Z,W] and [W+X, LX]
    coincide under equivariance over the subalgebra; they are evaluated
    independently and must vanish together.
    """
    algebra = operator.algebra
    z = np.asarray(z, dtype=object)
    w = np.asarray(w, dtype=object)
    if not subalgebra.contains(w):
        raise ContractViolation("second argument must lie in the subalgebra")
    x = z - w
    first = algebra.bracket(x, operator.apply(x)) - operator.apply(algebra.bracket(z, w))
    second = algebra.bracket(w + x, operator.apply(x))
    if is_zero(first) != is_zero(second):  # pragma: no cover - equivariance identity
        raise arith.ExactComputationError("two-step identity expressions disagree")
    return is_zero(first) and is_zero(second)


def geodesic_lemma_solvable(operator: MetricOperator, subalgebra: Subspace,
                            complement: Subspace, direction) -> bool:
    """Solvability of the projected form of the geodesic condition.

    System in W: metric([W + X, Y]_m, X) = 0 for all basis Y of m.  Kept as
    an independent route; agreement with the unprojected witness system is
    asserted on scenarios, and any disagreement is surfaced by tests rather
    than silently resolved.
    """
    algebra = operator.algebra
    x = np.asarray(direction, dtype=object)
    proj = _projection_matrix(complement, operator.form)
    h = operator.metric_matrix
    hx = arith.exact_matmul(arith.exact_matmul(proj.T, h), x)  # y -> metric(y_m ... ) weights
    rows = []
    rhs = []
    for j in range(complement.dim):
        y = complement.basis[j]
        ad_y = algebra.ad(y)
        # metric([W, Y]_m, X) = -(ad_Y W)^T proj^T H X
        rows.append(-arith.exact_matmul(arith.exact_matmul(subalgebra.basis, ad_y.T), hx))
        rhs.append(-np.dot(algebra.bracket(x, y), hx))
    a = np.stack(rows).reshape(complement.dim, subalgebra.dim) if subalgebra.dim else \
        qzeros((complement.dim, 0))
    sol = arith.solve_linear(a, np.asarray(rhs, dtype=object))
    return isinstance(sol, arith.Solution)


@dataclass(frozen=True)
class SplitReport:
    ok: bool
    hypotheses_met: bool
    weakly_regular: bool
    flags: HypothesisFlags
    subalgebra_invariant: bool
    complement_invariant: bool
    bi_invariant_on_subalgebra: bool
    coset_verdict: GoVerdict | None
    exploratory: bool

    def __bool__(self):
        return self.ok


def split_check(operator: MetricOperator, subalgebra: Subspace,
                strategy: SamplingStrategy = SamplingStrategy(),
                seed: int = 0) -> SplitReport:
    """Block-splitting of a candidate geodesic-orbit metric.

    Verifies that the operator preserves both the subalgebra and its
    orthogonal complement, that the restriction to the subalgebra is
    bi-invariant, and that the complement restriction passes the coset
    witness sweep ([W + X, L X] = 0 with X ranging over the complement).
    The hypotheses (weak regularity plus semisimple-or-self-normalizing) are
    computed and reported; when they fail the check still runs, labeled
    exploratory.
    """
    form = operator.algebra.form()
    weak = reps.is_weakly_regular(subalgebra, seed=seed)
    flags = hypothesis_flags(subalgebra, seed=seed)
    hypotheses = bool(weak) and flags.satisfied
    complement = orthogonal_complement(subalgebra, form)
    k_inv = invariant_subspace(operator, subalgebra)
    m_inv = invariant_subspace(operator, complement)
    bi = bi_invariance_check(operator, subalgebra, seed=seed) if k_inv else None
    coset = None
    if m_inv:
        coset = go_verdict(operator, subalgebra, strategy, within=complement)
    ok = k_inv and m_inv and bool(bi) and coset is not None and not coset.disproved
    return SplitReport(ok=ok, hypotheses_met=hypotheses, weakly_regular=bool(weak),
                       flags=flags, subalgebra_invariant=k_inv, complement_invariant=m_inv,
                       bi_invariant_on_subalgebra=bool(bi), coset_verdict=coset,
                       exploratory=not hypotheses)
