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

Homomorphism spaces are solved by spinning (Lux & Szoke, Exp. Math. 12,
2003): with V spanned by words in the generators applied to r start vectors,
a map is fixed by the images of the starts, ``r * dim W`` unknowns.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations

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
# homomorphism spaces by spinning
# ---------------------------------------------------------------------------

def _int_stacks(*restrictions: AdRestriction) -> list[np.ndarray]:
    """The action matrices as integer stacks (count, d, d) over one common
    denominator, which is dropped: it leaves the equivariance nullspace alone."""
    scale = math.lcm(*(r.matrices.scale for r in restrictions))
    return [(r.matrices * (scale // r.matrices.scale)).ints for r in restrictions]


def _spin(gens: np.ndarray):
    """Words spanning V mod ``_P``: from the first unit vector outside their span,
    every generator applied to every new word, breadth first, keeping each image
    independent of the words and images before it.  Word j is the start
    ``e_label[j]`` if ``parent[j]`` is -1, else generator ``label[j]``
    applied to word ``parent[j]``; ``levels`` are the index ranges made at once."""
    count, n, _ = gens.shape
    unit, vectors = np.eye(n, dtype=np.int64), np.zeros((0, n), dtype=np.int64)
    images, parent, label, levels = vectors, [], [], []
    while len(vectors) < n:
        found = np.array(arith._modp_pivots(np.concatenate([vectors, images, unit]).T)[1][len(vectors):])
        chosen = found[found < len(vectors) + len(images)] - len(vectors)
        words = ([(levels[-1][0] + i // count, i % count) for i in chosen] if len(chosen)
                 else [(-1, found[0] - len(vectors) - len(images))])
        levels.append((len(parent), len(parent) + len(words)))
        parent, label = parent + [p for p, _ in words], label + [g for _, g in words]
        vectors = np.concatenate([vectors, images[chosen] if len(chosen) else unit[label[-1:]]])
        images = arith.matmul_modp(gens, vectors[levels[-1][0]:].T).transpose(2, 0, 1).reshape(-1, n)
    return parent, label, levels


def _words(gens: np.ndarray, start, tree) -> Scaled:
    """The words of ``tree`` (:func:`_spin`) in ``gens``, from ``start(s)`` at the start ``e_s``."""
    parent, label, levels = tree
    values = start(label[0])
    for lo, hi in levels[1:]:
        values = Scaled.concat([values, start(label[lo]) if parent[lo] < 0
                                else Scaled(gens[label[lo:hi]]) @ values[parent[lo:hi]]])
    return values


class _Spun:
    """The equivariance system of ``dom`` and ``cod`` on the images ``u`` of the
    starts of the word basis ``B`` (:func:`_spin`), of full rank mod ``_P`` and
    hence over Q.  ``T = X B^-1`` with ``X_j = P_j u_block(j)``, ``P_j`` word j
    applied in W, intertwines iff ``D cod_k X_j = sum_l (D M_k)[l, j] X_l`` for
    every generator k and word j, ``D M_k`` the integer ``D B^-1 dom_k B``.
    ``self @ x`` evaluates these on the columns of x; ``ints`` builds the rows."""

    def __init__(self, dom: np.ndarray, cod: np.ndarray):
        n, self.dim = dom.shape[1], cod.shape[1]
        self.tree = parent, label, _ = _spin((dom % arith._P).astype(np.int64))
        self.starts, self.block = np.flatnonzero(np.array(parent) < 0), np.cumsum(np.array(parent) < 0) - 1
        self.unknowns = len(self.starts) * self.dim
        unit, eye = np.eye(n, dtype=np.int64), Scaled(np.eye(self.dim, dtype=np.int64)[None])
        basis = _words(dom, lambda s: Scaled(unit[[s], :, None]), self.tree).reshape(n, n).T
        self.inverse = arith.inverse(basis)
        coeffs = self.inverse @ Scaled(dom) @ basis                  # M_k = B^-1 dom_k B over D
        self.words, self.cod = _words(cod, lambda s: eye, self.tree), Scaled(cod)
        self.coeffs_t, self.scale = Scaled(coeffs.ints.transpose(0, 2, 1)), coeffs.scale

    def images(self, x: Scaled) -> Scaled:
        """``X_j`` for the unknowns in the columns of x, stacked by word j."""
        return self.words @ x.reshape(len(self.starts), self.dim, x.shape[-1])[self.block]

    def equations(self, x: Scaled, words=slice(None)) -> Scaled:
        """The equations at the words ``words`` on the columns of x, one row per
        generator, word and entry of ``X_j``."""
        images = self.images(x)
        (count, dim, _), (n, _, width) = self.cod.shape, images.shape
        chosen = images[words].transpose(1, 0, 2)
        first = self.cod.reshape(count * dim, dim) @ chosen.reshape(dim, -1)
        first = first.reshape(count, dim, chosen.shape[1], width).transpose(0, 2, 1, 3)
        second = self.coeffs_t[:, words].reshape(-1, n) @ images.reshape(n, -1)
        return (self.scale * first - second.reshape(first.shape)).reshape(math.prod(first.shape[:3]), width)

    __matmul__ = equations

    @cached_property
    def ints(self) -> np.ndarray:
        return (self @ Scaled(np.eye(self.unknowns, dtype=np.int64))).ints


def _hom(dom: np.ndarray, cod: np.ndarray) -> Scaled:
    """A basis (dim Hom, dim W, dim V) of the maps T with ``cod[i] T = T dom[i]``
    for every generator i.  The equations of :class:`_Spun` at the start words
    give a kernel mod ``_P``; unless it reconstructs to exact solutions of all
    equations (then the kernel: rank mod p <= rank), all equations cut it down."""
    spun = _Spun(dom, cod)
    first = spun.equations(Scaled(np.eye(spun.unknowns, dtype=np.int64)), spun.starts).ints % arith._P
    kernel = arith.kernel_modp(first[first.any(axis=1)])
    ints, (scale,) = arith._reconstruct(kernel[None], arith._P)
    if scale is None or np.any((spun @ (u := Scaled(ints[0], scale)).T).ints):
        rest = arith.kernel_modp(spun.equations(Scaled(kernel.T)).ints % arith._P)
        u = arith.certified_kernel(spun, arith.matmul_modp(rest, kernel))
    return spun.images(u.T).transpose(2, 1, 0) @ spun.inverse


def _solve_equivariance(dom: np.ndarray, cod: np.ndarray, unknowns: np.ndarray) -> Scaled:
    """The maps T with cod[i] T = T dom[i] for every generator i, as rows of unknowns.

    ``dom`` and ``cod`` are integer stacks (:func:`_int_stacks`); ``unknowns``
    numbers T's entries, all apart for intertwiners, the upper triangle of a
    symmetric T for the commutant.  The result is the canonical nullspace basis
    of the rows of every generator on the unknowns, solved directly up to
    ``arith._DIRECT`` entries.  Larger systems read it off the maps of
    :func:`_hom` that are equal where the unknowns are: the rref of their
    unknowns with the columns reversed, read back to front."""
    rows, cols = np.divmod(np.unique(unknowns, return_index=True)[1], unknowns.shape[1])
    count, size = len(dom), len(rows)
    if count * size * size <= arith._DIRECT:
        eq = size * np.arange(count * size).reshape(count, size, 1)   # flat start of each row
        block = np.zeros(count * size * size, dtype=dom.dtype)
        # 1-d indices and values: np.add.at is several times faster on them than on 3-d ones
        np.add.at(block, (eq + unknowns[:, cols].T).ravel(), cod[:, rows].ravel())
        np.subtract.at(block, (eq + unknowns[rows]).ravel(), dom[:, :, cols].transpose(0, 2, 1).ravel())
        return arith.nullspace_exact(block.reshape(count * size, size))
    maps = _hom(dom, cod)
    values = maps[:, rows, cols]
    if size < unknowns.size and len(maps):
        values = arith.nullspace_exact((maps - values[:, unknowns]).reshape(len(maps), -1).T) @ values
    return arith.rref_exact(values[:, ::-1])[0][::-1, ::-1]


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
    ``T Omega_V = Omega_W T``.  Otherwise the equivariance system is solved
    (with nothing acting, every map solves it).
    """
    dom, cod = ad_restriction(acting, space1), ad_restriction(acting, space2)
    d1, d2 = space1.dim, space2.dim
    if d1 == 0 or d2 == 0 or acting.dim and _casimirs_separate(dom, cod):
        return IntertwinerSpace(dom, cod, ())
    null = _solve_equivariance(*_int_stacks(dom, cod), np.arange(d2 * d1).reshape(d2, d1))
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
    unknowns, upper = np.zeros((p, p), dtype=np.int64), np.triu_indices(p)
    unknowns[upper] = unknowns[upper[::-1]] = np.arange(len(upper[0]))
    rho, = _int_stacks(restriction)
    sym = _solve_equivariance(rho, -rho.transpose(0, 2, 1), unknowns)
    return list(restriction.space.gram_inverse @ Scaled(sym.ints[:, unknowns], sym.scale))


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
    omega = casimir(ad_restriction(acting, space))
    stack = [space] if omega.scalar() is not None else _primary_pieces(space, omega)
    while stack:
        piece = stack.pop()
        commutant = symmetric_commutant(ad_restriction(acting, piece))
        for _ in range(3 if len(commutant) > 1 else 0):
            combo = sum((rng.randint(-9, 9) * c for c in commutant), Scaled.zeros(commutant[0].shape))
            if len(parts := _primary_pieces(piece, combo)) > 1:
                stack.extend(parts)
                break
        else:
            final.append((piece, "irreducible" if len(commutant) <= 1 else "not-split-by-this-procedure"))
    return sorted(final, key=lambda pair: pair[0].sort_key())


def _primary_pieces(piece: Subspace, operator: Scaled) -> list[Subspace]:
    """The subspaces of ``piece`` spanned by the primary components of an
    operator written in its coordinates."""
    return [Subspace(piece.algebra, rows @ piece.basis, check=False)
            for _, rows in arith.primary_invariant_split(operator)]


def _merge_equivalent(acting: Subspace, pieces: list[tuple[Subspace, str]]):
    """Pieces joined where chains of nonzero intertwiner spaces link them, labeled, in sort order."""
    parent = list(range(len(pieces)))

    def find(a):
        return a if parent[a] == a else find(parent[a])
    for i, j in combinations(range(len(pieces)), 2):
        if find(i) != find(j) and not modules_disjoint(acting, pieces[i][0], pieces[j][0]):
            parent[find(j)] = find(i)
    groups: dict[int, list[tuple[Subspace, str]]] = {}
    for i, piece in enumerate(pieces):
        groups.setdefault(find(i), []).append(piece)
    out = []
    for members in groups.values():
        equal = (all(label == "irreducible" for _, label in members)
                 and len({s.dim for s, _ in members}) == 1)
        kind = "irreducible" if len(members) == 1 else "isotypic"
        label = kind if equal else "not-split-by-this-procedure"
        out.append((reduce(Subspace.add, (s for s, _ in members)), label, len(members) if equal else None))
    return sorted(out, key=lambda triple: triple[0].sort_key())


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
        return WeakRegularityReport(itw_dim == 0, space.dim, centralizer_in_complement(space).dim,
                                    p.dim, itw_dim)
    return span_memo(space, build, "weakreg")


def criterion_weak_regularity(space: Subspace) -> bool:
    """Sufficient criterion: the subalgebra's own action separates k from m.

    If no nonzero ad_k-submodule of k is equivalent to one of the complement
    m, then the subalgebra is weakly regular (the normalizer only refines
    both sides).
    """
    return space.dim == 0 or modules_disjoint(space, space, orthogonal_complement(space))
