"""Representation-theoretic engine over the adjoint action.

Provides intertwiner spaces between invariant subspaces, module
disjointness, isotypic decompositions and the weak-regularity decision.
Everything here is exact; equivalence of real modules is decided purely by
intertwiner-space dimension, which for the completely reducible actions of
compact subalgebras coincides with sharing an irreducible constituent.

The Casimir of the acting algebra (:func:`casimir`) commutes with the action
and is one scalar on each irreducible constituent.  It decides an
intertwiner space whose modules it separates, and it splits a module into
primary components that each contain whole isotypic components, before any
equivariance system is solved.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import arith
from .arith import ContractViolation, Scaled
from .subspaces import (Subspace, centralizer_in_complement, normalizer,
                        orthogonal_complement, span_memo)


@dataclass(frozen=True)
class AdRestriction:
    """The action of a subalgebra on an invariant subspace, in coordinates.

    ``matrices[i]`` is the operator of the i-th basis vector of ``acting`` on
    ``space``, written in the basis of ``space`` (one stacked array).
    """

    acting: Subspace
    space: Subspace
    matrices: Scaled


def ad_restriction(acting: Subspace, space: Subspace) -> AdRestriction:
    """Action matrices of ``acting`` on ``space``; raises if not invariant."""
    if acting.algebra is not space.algebra:
        raise ContractViolation("acting and space must share an ambient algebra")
    images = acting.brackets(space)                         # [i, :, c] = [a_i, v_c]
    k, d, p = images.shape
    coords, outside = space.locate(images.transpose(1, 0, 2).reshape(d, k * p))
    failing = np.flatnonzero(outside.reshape(len(outside), k, p).any(axis=(0, 2)))
    if failing.size:
        raise ContractViolation(f"subspace is not invariant under acting basis vector {failing[0]}")
    return AdRestriction(acting, space, coords.reshape(p, k, p).transpose(1, 0, 2))


# ---------------------------------------------------------------------------
# linear systems for intertwiners and commutants
# ---------------------------------------------------------------------------

def _int_stacks(*restrictions: AdRestriction) -> list[np.ndarray]:
    """Each restriction's action matrices as an integer stack (count, d, d).

    All stacks are brought to one common denominator, which is dropped:
    scaling every action matrix by the same nonzero integer leaves the
    equivariance nullspace unchanged.
    """
    scale = math.lcm(*(r.matrices.scale for r in restrictions))
    return [(r.matrices * (scale // r.matrices.scale)).ints for r in restrictions]


class _Stack:
    """The rows enforcing ``cod[i] T = T dom[i]`` for every generator i, stacked
    by generator, on the unknowns of T (``unknowns[a, b]`` numbers entry (a, b));
    each unknown's first entry (the upper triangle when ``unknowns`` is
    symmetric) has one equation.  ``ints`` scatters the rows straight from the
    action matrices; ``self @ x.T`` multiplies them by the maps T in the rows of
    ``x`` without building them, as ``cod[i] T - T dom[i]`` on the equations."""

    def __init__(self, dom: np.ndarray, cod: np.ndarray, unknowns: np.ndarray):
        self.dom, self.cod, self.unknowns = dom, cod, unknowns
        self.rows, self.cols = np.divmod(np.unique(unknowns, return_index=True)[1], unknowns.shape[1])

    @cached_property
    def ints(self) -> np.ndarray:
        count, size, rows, cols = len(self.dom), len(self.rows), self.rows, self.cols
        eq = size * np.arange(count * size).reshape(count, size, 1)   # flat start of each row
        block = np.zeros(count * size * size, dtype=self.dom.dtype)
        # 1-d indices and values: np.add.at is several times faster on them than on 3-d ones
        np.add.at(block, (eq + self.unknowns[:, cols].T).ravel(), self.cod[:, rows].ravel())
        np.subtract.at(block, (eq + self.unknowns[rows]).ravel(),
                       self.dom[:, :, cols].transpose(0, 2, 1).ravel())
        return block.reshape(count * size, size)

    def __matmul__(self, xt: Scaled) -> Scaled:
        maps = Scaled(xt.ints.T[:, self.unknowns], xt.scale)[:, None]       # (k, 1, d2, d1)
        residual = Scaled(self.cod) @ maps - maps @ Scaled(self.dom)        # (k, count, d2, d1)
        return (residual[:, :, self.rows, self.cols].transpose(1, 2, 0)
                .reshape(len(self.dom) * len(self.rows), -1))


def _solve_equivariance(dom: np.ndarray, cod: np.ndarray, unknowns: np.ndarray,
                        seed_tag: str) -> Scaled:
    """The maps T with cod[i] T = T dom[i] for every generator i, as rows of unknowns.

    ``dom`` and ``cod`` are integer stacks of the generators' action matrices
    (see :func:`_int_stacks`); ``unknowns`` numbers the unknowns of T by entry,
    every entry for intertwiners and the upper triangle of a symmetric T, whose
    equations are then symmetric too, for the commutant.  Over GF(p), the
    block of one constraint -- a random integer combination of the
    generators, or generator 0 when there are at most three -- is eliminated
    to its canonical kernel (identity on the free columns); each later
    constraint (a second combination, then every generator) replaces that
    basis by the canonical kernel of its residual ``cod[i] T - T dom[i]``
    times the basis.  The product is the canonical kernel mod p of the
    :class:`_Stack` of all generators, which :func:`arith.certified_kernel`
    lifts without eliminating the stack again.  Systems of at most
    ``arith._DIRECT`` entries skip the modular stage.
    """
    stack = _Stack(dom, cod, unknowns)
    count, size = len(dom), len(stack.rows)
    if count * size * size <= arith._DIRECT:
        return arith.nullspace_exact(stack.ints)
    res_dom, res_cod = ((gens % arith._P).astype(np.int64) for gens in (dom, cod))
    if count > 3:
        rng = random.Random(f"equiv:{seed_tag}:{count}:{size}")
        coeffs = np.array([[rng.randint(-9, 9) for _ in range(count)] for _ in range(2)]) % arith._P
        res_dom, res_cod = (np.concatenate([arith.matmul_modp(coeffs, res.reshape(count, -1))
                                            .reshape(2, *res.shape[1:]), res])
                            for res in (res_dom, res_cod))
    basis = arith.kernel_modp(_Stack(res_dom[:1], res_cod[:1], unknowns).ints)
    for dom_i, cod_i in zip(res_dom[1:], res_cod[1:]):
        maps = basis[:, unknowns]
        residual = (arith.matmul_modp(cod_i, maps) - arith.matmul_modp(maps, dom_i)) % arith._P
        if np.any(residual):
            basis = arith.matmul_modp(arith.kernel_modp(residual[:, stack.rows, stack.cols].T), basis)
    return arith.certified_kernel(stack, basis)


def casimir(restriction: AdRestriction) -> Scaled:
    """The Casimir ``Omega = sum_ij (G^-1)_ij rho_i rho_j`` of the action, G the
    Gram matrix of the acting basis.

    The form is invariant and nondegenerate on the acting algebra, so Omega
    commutes with every ``rho_i``: it acts by one scalar on each irreducible
    constituent.  One stacked product ``(d, k*d) @ (k*d, d)`` of ``rho`` with
    ``G^-1 rho``.
    """
    rho = restriction.matrices
    k, d, _ = rho.shape
    mixed = restriction.acting.gram_inverse @ rho.reshape(k, d * d)
    return rho.transpose(1, 0, 2).reshape(d, k * d) @ mixed.reshape(k * d, d)


def _casimirs_separate(dom: AdRestriction, cod: AdRestriction) -> bool:
    """True when the Casimirs prove that no nonzero intertwiner exists.

    Every intertwiner T has ``T Omega_V = Omega_W T``, hence
    ``f(Omega_W) T = T f(Omega_V)`` for every polynomial f.  Two scalar
    Casimirs separate iff they differ.  Otherwise f is the minimal polynomial
    of the smaller module's Omega (``x - c`` when it is scalar ``c``), so
    ``f(Omega_large) T = 0`` or ``T f(Omega_large) = 0``: T vanishes when
    ``f(Omega_large)`` is invertible, which a full rank mod ``_P`` proves (a
    rank mod p never exceeds the rational rank).
    """
    small, large = sorted((casimir(dom), casimir(cod)), key=len)
    c_small, c_large = small.scalar(), large.scalar()
    if c_small is not None and c_large is not None:
        return c_small != c_large
    poly = [1, -c_small] if c_small is not None else arith.minimal_polynomial_exact(small)
    return arith.rank_modp(arith.polynomial_at(poly, large).ints) == len(large)


@dataclass(frozen=True)
class IntertwinerSpace:
    """Basis of maps T with action_cod(X) T = T action_dom(X) for all X."""

    domain: AdRestriction
    codomain: AdRestriction
    basis: tuple[Scaled, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def intertwiner_space(acting: Subspace, space1: Subspace, space2: Subspace) -> IntertwinerSpace:
    """The maps T with ``cod(X) T = T dom(X)`` for every X of ``acting``.

    When the Casimirs of the two modules prove that no nonzero T exists
    (:func:`_casimirs_separate`: distinct scalars, or ``f(Omega)`` of full rank
    mod ``_P`` for f the smaller module's minimal polynomial), the space is
    empty with no linear system; this is exact because every T satisfies
    ``T Omega_V = Omega_W T``.  Otherwise the equivariance system is solved.
    """
    dom = ad_restriction(acting, space1)
    cod = ad_restriction(acting, space2)
    d1, d2 = space1.dim, space2.dim
    if d1 == 0 or d2 == 0:
        return IntertwinerSpace(dom, cod, ())
    if acting.dim == 0:
        null = Scaled(np.eye(d2 * d1, dtype=np.int64))
    elif _casimirs_separate(dom, cod):
        return IntertwinerSpace(dom, cod, ())
    else:
        entries = np.arange(d2 * d1).reshape(d2, d1)
        null = _solve_equivariance(*_int_stacks(dom, cod), entries, seed_tag=f"itw:{d1}:{d2}")
    return IntertwinerSpace(dom, cod, tuple(null[r].reshape(d2, d1) for r in range(null.shape[0])))


def intertwiner_dim(acting: Subspace, space1: Subspace, space2: Subspace) -> int:
    """Dimension of the intertwiner space, solved once per triple of spans."""
    return span_memo(acting, lambda: intertwiner_space(acting, space1, space2).dim,
                     "intertwiner", space1.sort_key(), space2.sort_key())


def modules_disjoint(acting: Subspace, space1: Subspace, space2: Subspace) -> bool:
    """True iff no nonzero intertwiner exists between the two modules.

    For completely reducible actions this is exactly the statement that the
    modules share no irreducible constituent.
    """
    return intertwiner_dim(acting, space1, space2) == 0


# ---------------------------------------------------------------------------
# symmetric commutant and isotypic decomposition
# ---------------------------------------------------------------------------

def symmetric_commutant(restriction: AdRestriction) -> list[Scaled]:
    """Basis of operators commuting with the action and symmetric for the invariant form.

    Operators are returned in the coordinates of ``restriction.space``.  T is
    form-symmetric iff ``S = G T`` is a symmetric matrix, G the Gram matrix of
    the space's basis, so the unknowns are the upper triangle of S.  The form
    is ad-invariant, ``rho^T G = -G rho``, so ``rho T = T rho`` iff
    ``S rho + rho^T S = 0``: the intertwining equation from ``rho`` to
    ``-rho^T`` on symmetric maps.  Returns ``T = G^-1 S``.
    """
    p = restriction.space.dim
    if p == 0:
        return []
    unknowns = np.zeros((p, p), dtype=np.int64)
    upper = np.triu_indices(p)
    unknowns[upper] = unknowns[upper[::-1]] = np.arange(len(upper[0]))
    if restriction.acting.dim:
        rho, = _int_stacks(restriction)
        sym = _solve_equivariance(rho, -rho.transpose(0, 2, 1), unknowns, seed_tag=f"comm:{p}")
    else:
        sym = Scaled(np.eye(len(upper[0]), dtype=np.int64))   # nothing acts: every symmetric S
    maps = restriction.space.gram_inverse @ Scaled(sym.ints[:, unknowns], sym.scale)
    return [maps[r] for r in range(len(maps))]


@dataclass(frozen=True)
class IsotypicDecomposition:
    components: tuple[Subspace, ...]
    labels: tuple[str, ...]
    multiplicities: tuple[int | None, ...]


def isotypic_decomposition(acting: Subspace, space: Subspace) -> IsotypicDecomposition:
    """Isotypic decomposition of the action of ``acting`` on ``space``.

    The pieces of :func:`split_pieces` are merged where their mutual
    intertwiner space is nonzero.  A piece that resists rational splitting
    stays labeled ``not-split-by-this-procedure`` -- downstream decisions only
    need the disjointness of distinct components, which holds either way.
    """
    if space.dim == 0:
        return IsotypicDecomposition((), (), ())
    if acting.dim == 0:
        return IsotypicDecomposition((space,), ("trivial",), (space.dim,))
    merged = _merge_equivalent(acting, split_pieces(acting, space))
    return IsotypicDecomposition(*(tuple(column) for column in zip(*merged)))


def split_pieces(acting: Subspace, space: Subspace) -> list[tuple[Subspace, str]]:
    """Invariant pieces of ``space`` under a nonzero ``acting`` in sort order,
    each labeled ``irreducible`` or ``not-split-by-this-procedure``.

    When the Casimir on ``space`` is not scalar, the split starts from its
    primary components: the Casimir is one scalar on each irreducible
    constituent, so each isotypic component lies inside one of them.  Each
    piece is then split with primary decompositions of generic symmetric
    commutant elements (up to three fixed pseudo-random combinations per
    piece, from the stream ``isotypic:0:{dim}``); these and the Casimir are
    form-symmetric, hence diagonalizable, so each primary split exhausts its
    piece.  A piece whose symmetric commutant is scalar is irreducible.
    """
    rng = random.Random(f"isotypic:0:{space.dim}")
    final: list[tuple[Subspace, str]] = []
    stack = [space]
    omega = casimir(ad_restriction(acting, space))
    if omega.scalar() is None:
        stack = _primary_pieces(space, omega)
    while stack:
        piece = stack.pop()
        commutant = symmetric_commutant(ad_restriction(acting, piece))
        if len(commutant) <= 1:
            final.append((piece, "irreducible"))
            continue
        split = _try_split(piece, commutant, rng)
        if split is None:
            final.append((piece, "not-split-by-this-procedure"))
        else:
            stack.extend(split)
    return sorted(final, key=lambda pair: pair[0].sort_key())


def _primary_pieces(piece: Subspace, operator: Scaled) -> list[Subspace]:
    """The subspaces of ``piece`` spanned by the primary components of an
    operator written in its coordinates."""
    return [Subspace(piece.algebra, rows @ piece.basis, check=False)
            for _, rows in arith.primary_invariant_split(operator)]


def _try_split(piece: Subspace, commutant: list[Scaled],
               rng: random.Random) -> list[Subspace] | None:
    for _ in range(3):
        combo = sum((rng.randint(-9, 9) * c for c in commutant), Scaled.zeros(commutant[0].shape))
        parts = _primary_pieces(piece, combo)
        if len(parts) > 1:
            return parts
    return None


def _merge_equivalent(acting: Subspace, pieces: list[tuple[Subspace, str]]):
    n = len(pieces)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if find(i) == find(j):
                continue
            if not modules_disjoint(acting, pieces[i][0], pieces[j][0]):
                parent[find(j)] = find(i)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    out = []
    for members in groups.values():
        total = pieces[members[0]][0]
        for idx in members[1:]:
            total = total.add(pieces[idx][0])
        all_irr = all(pieces[idx][1] == "irreducible" for idx in members)
        dims = {pieces[idx][0].dim for idx in members}
        if all_irr and len(dims) == 1:
            label = "irreducible" if len(members) == 1 else "isotypic"
            mult = len(members)
        else:
            label = "not-split-by-this-procedure"
            mult = None
        out.append((total, label, mult))
    out.sort(key=lambda triple: triple[0].sort_key())
    return out


# ---------------------------------------------------------------------------
# weak regularity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeakRegularityReport:
    weakly_regular: bool
    dim_subalgebra: int
    dim_centralizer_in_complement: int
    dim_opposite: int
    intertwiner_dim: int

    def __bool__(self):
        return self.weakly_regular


def is_weakly_regular(space: Subspace) -> WeakRegularityReport:
    """Decide weak regularity of a subalgebra.

    Computes the normalizer n, the orthogonal complement p of n, and tests
    that no nonzero ad_n-submodule of the subalgebra is equivalent to one of
    p -- i.e. that the total intertwiner space between them vanishes.  The
    zero subalgebra is weakly regular by convention.
    """
    if space.dim == 0:
        return WeakRegularityReport(True, 0, 0, space.algebra.dim, 0)

    def build():
        norm = normalizer(space)
        p = orthogonal_complement(norm)
        itw_dim = intertwiner_dim(norm, space, p)
        return WeakRegularityReport(
            weakly_regular=itw_dim == 0,
            dim_subalgebra=space.dim,
            dim_centralizer_in_complement=centralizer_in_complement(space).dim,
            dim_opposite=p.dim,
            intertwiner_dim=itw_dim,
        )
    return span_memo(space, build, "weakreg")


def criterion_weak_regularity(space: Subspace) -> bool:
    """Sufficient criterion: the subalgebra's own action separates k from m.

    If no nonzero ad_k-submodule of k is equivalent to one of the complement
    m, then the subalgebra is weakly regular (the normalizer only refines
    both sides).
    """
    if space.dim == 0:
        return True
    complement = orthogonal_complement(space)
    return modules_disjoint(space, space, complement)
