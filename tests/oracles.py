"""Fraction oracles for the tests.

Everything here works on plain ``Fraction`` object arrays with ``np.dot``.
They are built here, not by goverify: :func:`fractions` reads a ``Scaled``
value off its ``ints`` and ``scale``, and :func:`tensor` reads an algebra's
dense structure tensor off its ``coo`` and ``scale``.  So these checks share
no arithmetic with goverify's scaled-integer kernels, and are kept as
independent routes to results the package computes another way.  The one
exception is :func:`go_verdict_by_direction`, the per-direction route to a
geodesic-orbit verdict: one exact :func:`go_solve_at` for every sampled
direction, against which the batched screen of ``go.go_verdict`` is checked.
Another is :func:`symmetric_commutant_two_stage`, the commutant solved on all
entries of T and then cut to the form-symmetric maps, against which the solve
on the symmetric unknowns of ``reps.symmetric_commutant`` is checked.  And
:func:`bi_invariant_by_blocks` decides bi-invariance through the ideal
decomposition, against which the commutation check of
``metrics.bi_invariance_check`` is checked.  Last,
:func:`rank_estimate_all_exact` takes the rank from the exact centralizers of
drawn elements, against which the greedy maximal abelian subalgebra of
``subspaces.rank_estimate`` is checked.  :func:`bareiss` is the classic
fraction-free elimination, against which the primitive-row elimination
``arith._eliminate_int`` is checked.
And :func:`replay_certificate` re-verifies one GO certificate at a time, the
per-certificate route against which the stacked ``go.replay_certificates`` of
replay is checked.  :func:`direct_sum` builds product algebras for the tests,
and :func:`unimodular` with :func:`change_basis` writes an algebra in another
integer basis, where its structure table is dense.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from goverify import arith, go, reps
from goverify.arith import ContractViolation, q
from goverify.go import GoCertificate, GoVerdict, SamplingStrategy, Unsolvable
from goverify.lie import StructureAlgebra
from goverify.metrics import (BlockSpec, MetricOperator, equivariance_check, invariant_subspace,
                              restrict_operator)
from goverify.subspaces import RankEstimate, Subspace, ideal_decomposition, projector


def _fraction(value) -> Fraction:
    """``value`` (an int, a NumPy integer or a Fraction) as a Fraction."""
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"no exact Fraction for {value!r}")


def fractions(x) -> np.ndarray:
    """The Fraction array of ``x``: a ``Scaled`` read off its ``ints`` and ``scale``,
    nested lists (which may hold ``Scaled`` rows) item by item, and an array or a
    scalar entry by entry."""
    if isinstance(x, arith.Scaled):
        entries, shape = [Fraction(v, x.scale) for v in x.ints.reshape(-1).tolist()], x.shape
    elif isinstance(x, (list, tuple)):
        return np.array([fractions(item) for item in x], dtype=object)
    else:
        arr = np.asarray(x, dtype=object)
        entries, shape = [_fraction(v) for v in arr.reshape(-1)], arr.shape
    return np.array(entries, dtype=object).reshape(shape)


def all_zero(x) -> bool:
    """Whether every entry of a Fraction array (or of :func:`fractions` of ``x``) is 0."""
    return all(v == 0 for v in np.ravel(fractions(x)))


def fzeros(shape) -> np.ndarray:
    """A Fraction array of zeros."""
    return np.full(shape, Fraction(0), dtype=object)


def tensor(algebra: StructureAlgebra) -> np.ndarray:
    """The dense ``d x d x d`` Fraction structure tensor, read off ``algebra.coo`` and
    ``algebra.scale``."""
    out = fzeros((algebra.dim,) * 3)
    for i, j, k, c in zip(*(a.tolist() for a in algebra.coo)):
        out[i, j, k] = Fraction(c, algebra.scale)
    return out


def direct_sum(algebras: list[StructureAlgebra]) -> StructureAlgebra:
    """Block-diagonal direct sum; summands commute."""
    scale = math.lcm(*(a.scale for a in algebras))
    offsets = np.cumsum([0] + [a.dim for a in algebras])
    parts = [(*(index + offset for index in a.coo[:3]), a.coo[3].astype(object) * (scale // a.scale))
             for a, offset in zip(algebras, offsets)]
    labels = tuple(f"{idx+1}:{lab}" for idx, a in enumerate(algebras) for lab in a.labels)
    out = StructureAlgebra(dim=int(offsets[-1]), coo=[np.concatenate(col) for col in zip(*parts)],
                           scale=scale, labels=labels, name=" + ".join(a.name or "?" for a in algebras))
    if len(algebras) > 1:
        out._known_simple = False
    return out


def first_failing_pair(dense, mats) -> tuple[int, int] | None:
    """The first pair ``a < b`` with ``[R_a, R_b] != sum_k c[a,b,k] R_k``, pair by pair in
    Fractions (``dense`` the Fraction structure tensor), or None.  Nothing of
    ``goverify.arith`` is used: the matrices are read entry by entry."""
    mats = [np.array([[_fraction(v) for v in row] for row in m], dtype=object) for m in mats]
    for a, b in itertools.combinations(range(len(mats)), 2):
        defect = np.dot(mats[a], mats[b]) - np.dot(mats[b], mats[a])
        defect = defect - sum(dense[a, b, k] * mats[k] for k in range(len(mats)))
        if any(v != 0 for v in defect.ravel()):
            return a, b
    return None


def unimodular(dim: int, operations: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A unimodular integer ``P`` and its inverse (Python-int object arrays), the product of
    ``operations`` elementary row operations ``row_p += t * row_q`` with ``t`` in +-1, +-2."""
    rng = random.Random(f"unimodular:{seed}")
    p, inverse = np.eye(dim, dtype=object), np.eye(dim, dtype=object)
    for _ in range(operations):
        r, s = rng.sample(range(dim), 2)
        t = rng.choice((-2, -1, 1, 2))
        p[r] += t * p[s]                        # P <- E P
        inverse[:, s] -= t * inverse[:, r]      # P^-1 <- P^-1 E^-1
    return p, inverse


def change_basis(dense, p, inverse) -> np.ndarray:
    """The structure tensor in the basis ``f_i = sum_a P[i,a] e_a``: ``c'[i,j,l] =
    sum P[i,a] P[j,b] c[a,b,k] P^-1[k,l]``, in Fractions."""
    dense = np.tensordot(np.tensordot(p, np.tensordot(p, dense, axes=(1, 1)), axes=(1, 1)),
                         inverse, axes=1)
    return np.array([_fraction(v) for v in dense.ravel()], dtype=object).reshape(dense.shape)


def algebra_from_tensor(dense) -> StructureAlgebra:
    """The (unvalidated) algebra whose dense rational structure tensor is ``dense``,
    stored as the COO arrays of its nonzero entries."""
    dense = np.asarray(dense, dtype=object)
    where = np.nonzero(dense != 0)
    entries = arith.Scaled.of(dense[where])
    return StructureAlgebra(dim=dense.shape[0], coo=(*where, entries.ints), scale=entries.scale)


def replay_certificate(operator: MetricOperator, certificate: GoCertificate,
                       subalgebra: Subspace) -> bool:
    """Re-verify one witness exactly: membership in k and the defining identity."""
    witness = arith.Scaled.of(certificate.witness)
    if not subalgebra.contains(witness):
        return False
    return all_zero(operator.algebra.bracket(witness + certificate.direction,
                                             operator.apply(certificate.direction)))


def stacked(certificates) -> GoCertificate:
    """GO certificates as one ``GoCertificate`` of ``(N, dim)`` direction and witness stacks."""
    return GoCertificate(*(arith.Scaled.concat([getattr(c, field).reshape(1, -1) for c in certificates])
                           for field in ("direction", "witness")))


def fmatmul(a, b) -> np.ndarray:
    """The exact product of two rational arrays, as Fractions."""
    return np.dot(fractions(a), fractions(b))


def fbracket(algebra, x, y) -> np.ndarray:
    """``[x, y]`` summed over the dense Fraction structure tensor."""
    return np.dot(fractions(y), np.tensordot(fractions(x), tensor(algebra), axes=1))


def fad(algebra, x) -> np.ndarray:
    """The matrix of ``ad_x`` from the dense Fraction structure tensor."""
    return np.tensordot(fractions(x), tensor(algebra), axes=1).T


def bareiss(work: list[list[int]], reduce_above: bool) -> tuple[list[int], int]:
    """Classic fraction-free (Bareiss, Math. Comp. 22, 1968) elimination of the
    integer rows ``work`` in place; the pivot columns and the last pivot.

    Each step replaces every other row, including those with head 0, by
    ``(p * row - head * pivot_row) // prev``, ``p`` the new pivot and ``prev``
    the one before; every quotient is a minor of the row-permuted input.  With
    ``reduce_above`` every pivot row ends equal to the last pivot times its row
    of the rref.
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
            elif p != prev and any(wi):
                wi[lo:] = [x * p // prev for x in wi[lo:]]
        prev = p
        piv_cols.append(c)
        r += 1
    return piv_cols, prev


def positive_definite(S) -> bool:
    """Positive definiteness by Fraction Gaussian elimination (pivot signs)."""
    work = [[q(v) for v in row] for row in fractions(S)]
    n = len(work)
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


def rescale(operator: MetricOperator, factor) -> MetricOperator:
    """The operator times a positive scalar, with its block data scaled alike."""
    factor = q(factor)
    if factor <= 0:
        raise ContractViolation("scaling factor must be positive")
    center = operator.block_spec.center_block
    spec = BlockSpec(
        blocks=tuple((s, v * factor) for s, v in operator.block_spec.blocks),
        center_block=None if center is None else (center[0], arith.Scaled.of(center[1]) * factor))
    return MetricOperator(operator.algebra, operator.matrix * factor, spec)


def metric_inner(operator: MetricOperator, x, y) -> Fraction:
    """``metric(x, y) = x^T H y``."""
    return np.dot(fractions(x), fmatmul(operator.metric_matrix, y))


def check_homomorphism(restriction) -> bool:
    """Whether the action matrices of an ``AdRestriction`` respect brackets exactly."""
    h = restriction.acting
    mats = [fractions(m) for m in restriction.matrices]
    for i in range(h.dim):
        for j in range(i + 1, h.dim):
            coords = h.coords(fbracket(h.algebra, h.basis[i], h.basis[j]))
            if coords is None:
                return False
            expected = sum((c * m for c, m in zip(fractions(coords), mats)), fzeros(mats[0].shape))
            comm = np.dot(mats[i], mats[j]) - np.dot(mats[j], mats[i])
            if not all_zero(comm - expected):
                return False
    return True


def symmetric_commutant_two_stage(restriction) -> list:
    """The symmetric commutant in two stages: every map T commuting with the
    action (the equivariance solve on all p**2 entries of T), then the maps
    among them with ``G T`` symmetric (a second exact nullspace)."""
    p = restriction.space.dim
    if p == 0:
        return []
    if restriction.acting.dim:
        rho, = reps._int_stacks(restriction)
        comm = reps._solve_equivariance(rho, rho, np.arange(p * p).reshape(p, p))
    else:
        comm = arith.Scaled(np.eye(p * p, dtype=np.int64))
    if comm.shape[0] == 0:
        return []
    gt = restriction.space.gram @ comm.reshape(-1, p, p)
    sym_system = (gt - gt.transpose(0, 2, 1)).reshape(-1, p * p).T
    vectors = arith.nullspace_exact(sym_system) @ comm
    return [vectors[r].reshape(p, p) for r in range(vectors.shape[0])]


def bi_invariant_by_blocks(operator: MetricOperator, subalgebra) -> bool:
    """Bi-invariance on a subalgebra in block form: the operator preserves it,
    its center and each of its simple ideals, and is a scalar on each ideal."""
    if subalgebra.dim == 0:
        return True
    if not invariant_subspace(operator, subalgebra):
        return False
    dec = ideal_decomposition(subalgebra)
    return invariant_subspace(operator, dec.center) and all(
        invariant_subspace(operator, ideal) and restrict_operator(operator, ideal).scalar() is not None
        for ideal in dec.ideals)


def two_step_identity_check(operator: MetricOperator, subalgebra, z, w) -> bool:
    """Joint vanishing of the two equivalent geodesic expressions.

    With X = Z - W the expressions [Z-W, L(Z-W)] - L[Z,W] and [W+X, LX]
    coincide under equivariance over the subalgebra; they are evaluated
    independently and must vanish together.
    """
    algebra = operator.algebra
    z, w, op = fractions(z), fractions(w), fractions(operator.matrix)
    if not subalgebra.contains(w):
        raise ContractViolation("second argument must lie in the subalgebra")
    x = z - w
    first = fbracket(algebra, x, np.dot(op, x)) - np.dot(op, fbracket(algebra, z, w))
    second = fbracket(algebra, w + x, np.dot(op, x))
    if all_zero(first) != all_zero(second):
        raise arith.ExactComputationError("two-step identity expressions disagree")
    return all_zero(first) and all_zero(second)


def geodesic_lemma_solvable(operator: MetricOperator, subalgebra, complement, direction) -> bool:
    """Solvability of the projected form of the geodesic condition.

    System in W: metric([W + X, Y]_m, X) = 0 for all basis Y of m, an
    independent route to the unprojected witness system.
    """
    algebra = operator.algebra
    x = fractions(direction)
    proj = fractions(projector(complement))
    hx = np.dot(np.dot(proj.T, fractions(operator.metric_matrix)), x)
    rows, rhs = [], []
    for j in range(complement.dim):
        y = fractions(complement.basis[j])
        # metric([W, Y]_m, X) = -(ad_Y W)^T proj^T H X
        rows.append(-np.dot(np.dot(fractions(subalgebra.basis), fad(algebra, y).T), hx))
        rhs.append(-np.dot(fbracket(algebra, x, y), hx))
    a = np.stack(rows).reshape(complement.dim, subalgebra.dim) if subalgebra.dim else \
        fzeros((complement.dim, 0))
    return isinstance(arith.solve_linear(a, np.asarray(rhs, dtype=object)), arith.Solution)


def randint_coefficients(rng: random.Random, dim: int) -> list[int]:
    """``dim`` draws of ``rng.randint(-9, 9)``, all drawn again while every one is
    zero (unless ``dim`` is 0): the contract of ``Subspace.random_coefficients``."""
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(dim)]
        if any(coeffs) or dim == 0:
            return coeffs


def random_element(space: Subspace, rng: random.Random) -> np.ndarray:
    """A combination of the basis rows with ``space.random_coefficients(rng)``, in Fractions:
    the values of a sampled random direction of ``space``."""
    coeffs = np.array([Fraction(c) for c in space.random_coefficients(rng)], dtype=object)
    return np.dot(coeffs, fractions(space.basis)) if space.dim else fzeros(space.algebra.dim)


def randint_element(space: Subspace, rng: random.Random) -> np.ndarray:
    """A combination of the basis rows with :func:`randint_coefficients`, in Fractions."""
    coeffs = np.array([Fraction(c) for c in randint_coefficients(rng, space.dim)], dtype=object)
    return np.dot(coeffs, fractions(space.basis)) if space.dim else fzeros(space.algebra.dim)


def sampled_directions(operator: MetricOperator, strategy: SamplingStrategy, within=None) -> list:
    """``(label, direction)`` pairs built one direction at a time: basis rows,
    sums of random elements of two invariant pieces, then random elements.
    The coefficients are CPython's ``randint(-9, 9)`` draws, not
    ``Subspace.random_coefficients``, and the directions Fraction combinations."""
    space = within if within is not None else Subspace.full(operator.algebra)
    out = []
    if strategy.basis_vectors:
        out += [(f"basis:{i}", space.basis[i]) for i in range(space.dim)]
    if strategy.structured:
        pieces = [p if within is None else p.intersect(within) for p in operator.invariant_pieces]
        pieces = [p for p in pieces if p.dim > 0]
        for i, j in itertools.combinations(range(len(pieces)), 2):
            rng = random.Random(f"pair:{strategy.seed}:{i}:{j}")
            vi = randint_element(pieces[i], rng)
            vj = randint_element(pieces[j], rng)
            out.append((f"pair:{i}:{j}", vi + vj))
    for r in range(strategy.random_count):
        rng = random.Random(f"random:{strategy.seed}:{r}")
        out.append((f"random:{r}", randint_element(space, rng)))
    return out


def go_solve_at(operator: MetricOperator, subalgebra: Subspace, direction):
    """Witness solve for one direction: GoCertificate or Unsolvable.

    The metric must be equivariant over the subalgebra, which is not checked
    here.  The direction's own witness system gets its own exact solve; the
    witness has minimal norm for the ambient inner product among all solutions.
    """
    direction = arith.Scaled.of(direction)
    aug, ad_lx = go._witness_system(operator, subalgebra, direction)
    if not np.any(aug[:, -1]):
        # [X, L X] = 0 already; the zero witness is minimal
        return GoCertificate(direction, arith.Scaled.zeros(operator.algebra.dim))
    return go._outcome(operator, subalgebra, direction, ad_lx, arith.solve_int(aug))


def go_verdict_by_direction(operator: MetricOperator, subalgebra, strategy: SamplingStrategy,
                            within=None, keep_certificates: bool = False) -> GoVerdict:
    """The geodesic-orbit verdict with one :func:`go_solve_at` per sampled direction."""
    if not equivariance_check(operator, subalgebra):
        raise ContractViolation("metric operator is not equivariant over the subalgebra")
    certificates = []
    directions = sampled_directions(operator, strategy, within)
    for count, (label, direction) in enumerate(directions, start=1):
        result = go_solve_at(operator, subalgebra, direction)
        if isinstance(result, Unsolvable):
            return GoVerdict(True, count, strategy, counterexample=result,
                             counterexample_label=label,
                             certificates=tuple(certificates) if keep_certificates else ())
        if keep_certificates:
            certificates.append(result)
    return GoVerdict(False, len(directions), strategy,
                     certificates=tuple(certificates) if keep_certificates else ())


def rank_estimate_all_exact(space: Subspace) -> RankEstimate:
    """The rank from drawn elements: the exact centralizer of each element of the
    stream ``rank:0:{dim}`` (:func:`randint_coefficients`), five elements and more
    (13 in all at most) while the smallest centralizer so far is not abelian.  An
    abelian centralizer is a Cartan subalgebra; the first smallest one is returned."""
    algebra = space.algebra
    if space.dim == 0:
        return RankEstimate(arith.Scaled.zeros((0, algebra.dim)))
    rng = random.Random(f"rank:0:{space.dim}")
    best, abelian = None, False
    for attempt in range(13):
        if attempt >= 5 and abelian:
            break
        element = arith.Scaled.of(randint_element(space, rng))
        vectors = arith.nullspace_exact(algebra.contract(element) @ space.basis.T) @ space.basis
        if best is None or len(vectors) < len(best):
            best = vectors
            abelian = not np.any((algebra.contract(best) @ best.T).ints)
    if not abelian:
        raise arith.ExactComputationError("no drawn element has an abelian centralizer")
    return RankEstimate(best)
