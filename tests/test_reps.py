"""Intertwiners, isotypic decompositions and the weak-regularity decision."""

import dataclasses
import functools
import random

import numpy as np
import pytest

from goverify import arith, reps
from goverify.arith import is_zero
from goverify.lie import build_classical, embed_so_partition, ingest_structure_table, \
    serialize_structure_table
from goverify.reps import (ad_restriction, criterion_weak_regularity, intertwiner_space,
                           is_weakly_regular, isotypic_decomposition, modules_disjoint,
                           symmetric_commutant)
from goverify.subspaces import Subspace, ideal_decomposition, orthogonal_complement
from oracles import check_homomorphism, fmatmul, fractions, symmetric_commutant_two_stage


@pytest.fixture(scope="module")
def so6_layout():
    return embed_so_partition(6, (2, 2, 2))


@pytest.fixture(scope="module")
def so4_ideals():
    so4 = build_classical("so", 4)
    full = Subspace.full(so4)
    dec = ideal_decomposition(full)
    return so4, full, dec.ideals


def test_ad_restriction_closure_and_homomorphism(so6_layout):
    g = so6_layout.algebra
    k = so6_layout.subalgebra
    m12 = so6_layout.offdiag_blocks[(1, 2)]
    action = ad_restriction(k, m12)
    assert check_homomorphism(action)
    with pytest.raises(arith.ContractViolation):
        ad_restriction(m12, k)  # k is not invariant under m12


def test_identity_intertwiner_always_present(so4_ideals):
    _, _, ideals = so4_ideals
    itw = intertwiner_space(ideals[0], ideals[0], ideals[0])
    assert itw.dim >= 1


def test_intertwiner_between_so4_ideals_vanishes(so4_ideals):
    so4, full, ideals = so4_ideals
    assert intertwiner_space(full, ideals[0], ideals[1]).dim == 0
    # each ideal acts trivially on the other, so even over one ideal the
    # adjoint module and the trivial module stay inequivalent
    assert modules_disjoint(ideals[0], ideals[0], ideals[1])


def test_intertwiner_k_vs_m_vanishes(so6_layout):
    g = so6_layout.algebra
    k = so6_layout.subalgebra
    m = orthogonal_complement(k)
    assert intertwiner_space(k, k, m).dim == 0


def test_intertwiner_identity_satisfied_exactly(so6_layout):
    k = so6_layout.subalgebra
    m12 = so6_layout.offdiag_blocks[(1, 2)]
    itw = intertwiner_space(k, m12, m12)
    dom = itw.domain
    cod = itw.codomain
    assert itw.dim > 0
    for basis_map in itw.basis:
        for x in range(k.dim):
            lhs = fmatmul(cod.matrices[x], basis_map)
            rhs = fmatmul(basis_map, dom.matrices[x])
            assert is_zero(lhs - rhs)


def test_modules_disjoint_symmetry(so6_layout):
    g = so6_layout.algebra
    k = so6_layout.subalgebra
    m12 = so6_layout.offdiag_blocks[(1, 2)]
    m13 = so6_layout.offdiag_blocks[(1, 3)]
    assert modules_disjoint(k, m12, m13) == modules_disjoint(k, m13, m12)
    assert not modules_disjoint(k, m12, m12)


def test_trivial_action_intertwiners_are_everything():
    so3 = build_classical("so", 3)
    zero = Subspace.zero(so3)
    v = Subspace.from_indices(so3, [0, 1])
    assert intertwiner_space(zero, v, v).dim == 4


# -- symmetric commutant and isotypic decomposition ------------------------------

def test_symmetric_commutant_scalar_for_adjoint_of_simple():
    so3 = build_classical("so", 3)
    full = Subspace.full(so3)
    comm = symmetric_commutant(ad_restriction(full, full))
    assert len(comm) == 1


def test_symmetric_commutant_without_action_is_every_symmetric_map():
    layout = embed_so_partition(6, (2, 2, 2))
    m = layout.offdiag_blocks[(1, 2)]
    comm = symmetric_commutant(ad_restriction(Subspace.zero(layout.algebra), m))
    p = m.dim
    assert len(comm) == p * (p + 1) // 2
    flat = np.array([fractions(t).ravel() for t in comm])
    assert arith.rank_exact(arith.qarray(flat)) == len(comm)
    for t in comm:                          # form-symmetric: G T is a symmetric matrix
        gt = fmatmul(m.gram, t)
        assert is_zero(gt - gt.T)


def test_isotypic_single_component_adjoint():
    so3 = build_classical("so", 3)
    full = Subspace.full(so3)
    dec = isotypic_decomposition(full, full)
    assert len(dec.components) == 1
    assert dec.components[0].dim == 3
    assert dec.labels == ("irreducible",)


def test_isotypic_so6_m_splits_into_six_planes(so6_layout):
    """Each 4-dimensional coupling block splits in two for the (2,2,2) torus."""
    g = so6_layout.algebra
    k = so6_layout.subalgebra
    m = orthogonal_complement(k)
    dec = isotypic_decomposition(k, m)
    assert [c.dim for c in dec.components] == [2] * 6
    for (i, j), block in so6_layout.offdiag_blocks.items():
        inside = [c for c in dec.components if block.contains_space(c)]
        assert len(inside) == 2
    # distinct components have zero intertwiner space
    for a in range(len(dec.components)):
        for b in range(a + 1, len(dec.components)):
            assert modules_disjoint(k, dec.components[a], dec.components[b])


def test_isotypic_so9_three_blocks():
    layout = embed_so_partition(9, (3, 3, 3))
    g = layout.algebra
    k = layout.subalgebra
    m = orthogonal_complement(k)
    dec = isotypic_decomposition(k, m)
    assert [c.dim for c in dec.components] == [9, 9, 9]
    blocks = list(layout.offdiag_blocks.values())
    for component in dec.components:
        assert any(component.spans_equal(b) for b in blocks)


def test_isotypic_components_invariant(so6_layout):
    g = so6_layout.algebra
    k = so6_layout.subalgebra
    m = orthogonal_complement(k)
    dec = isotypic_decomposition(k, m)
    for component in dec.components:
        for i in range(k.dim):
            image = fmatmul(k.ad_matrices[i], component.basis.T)
            assert component.coords(image) is not None


def test_isotypic_multiplicity_merges_equivalent_pieces():
    """Two commuting copies of the trivial action merge into one component."""
    so4 = build_classical("so", 4)
    dec4 = ideal_decomposition(Subspace.full(so4))
    first, second = dec4.ideals
    # first ideal acts trivially on the second: one isotypic component of
    # multiplicity 3 (three trivial lines)
    out = reps.isotypic_decomposition(first, second)
    assert len(out.components) == 1
    assert out.components[0].dim == 3
    assert out.multiplicities[0] in (3, None)


def test_schur_property_sampled(so6_layout):
    """Nonzero intertwiners between irreducible components are invertible."""
    g = so6_layout.algebra
    k = so6_layout.subalgebra
    m = orthogonal_complement(k)
    dec = isotypic_decomposition(k, m)
    rng = random.Random(5)
    c0 = dec.components[0]
    itw = intertwiner_space(k, c0, c0)
    assert itw.dim >= 1
    for _ in range(8):
        coeffs = [arith.q(rng.randint(-4, 4)) for _ in itw.basis]
        combo = sum((c * b for c, b in zip(coeffs, itw.basis)),
                    arith.Scaled.zeros(itw.basis[0].shape))
        if not is_zero(combo):
            assert arith.rank_exact(combo) == c0.dim


# -- weak regularity --------------------------------------------------------------

def test_weak_regularity_so6(so6_layout):
    rep = is_weakly_regular(so6_layout.subalgebra)
    assert rep.weakly_regular
    assert rep.dim_centralizer_in_complement == 0
    assert rep.intertwiner_dim == 0
    assert criterion_weak_regularity(so6_layout.subalgebra)


def test_weak_regularity_so9():
    layout = embed_so_partition(9, (3, 3, 3))
    rep = is_weakly_regular(layout.subalgebra)
    assert rep.weakly_regular
    assert rep.dim_centralizer_in_complement == 0
    assert criterion_weak_regularity(layout.subalgebra)


def test_weak_regularity_zero_subalgebra(so6_layout):
    assert is_weakly_regular(Subspace.zero(so6_layout.algebra)).weakly_regular


def test_criterion_vacuous_for_full_algebra(so6_layout):
    assert criterion_weak_regularity(Subspace.full(so6_layout.algebra))


def test_sufficient_criterion_implies_weak_regularity():
    """Asserted on every built-in scenario subalgebra."""
    scenarios = [embed_so_partition(6, (2, 2, 2)).subalgebra,
                 embed_so_partition(7, (2, 2, 3)).subalgebra,
                 embed_so_partition(5, (2, 3)).subalgebra]
    for k in scenarios:
        if criterion_weak_regularity(k):
            assert is_weakly_regular(k).weakly_regular


def test_exploratory_so7_in_so8_runs_and_is_symmetric():
    """Vector vs adjoint modules of the block so(7) inside so(8): run both
    orientations and record the outcome without pinning the verdict."""
    so8 = build_classical("so", 8)
    table = serialize_structure_table(so8)
    g = ingest_structure_table(table)
    from goverify.lie import so_pair_index, attach_form
    attach_form(g, (-g.killing.matrix))
    idx = [so_pair_index(8, i, j) for i in range(1, 8) for j in range(i + 1, 8)]
    k = Subspace.from_indices(g, idx)
    p = orthogonal_complement(k)
    forward = modules_disjoint(k, k, p)
    backward = modules_disjoint(k, p, k)
    assert forward == backward


# -- integer kernel: Python-int fallback and candidate rejection ---------------

def _scaled(action, factor):
    return dataclasses.replace(action, matrices=action.matrices * factor)


def _same_basis(first, second):
    return len(first) == len(second) and all(is_zero(a - b) for a, b in zip(first, second))


def test_symmetric_commutant_python_int_path_matches_int64(so4_ideals):
    so4, full, _ = so4_ideals
    action = ad_restriction(full, full)
    scaled = _scaled(action, 2**60)  # same equivariance nullspace, entries past int64 range
    assert reps._int_stacks(action)[0].dtype == np.int64
    assert reps._int_stacks(scaled)[0].dtype == object
    plain = symmetric_commutant(action)
    assert len(plain) == 2  # one scalar per simple ideal
    assert _same_basis(plain, symmetric_commutant(scaled))


def test_intertwiner_space_python_int_path_matches_int64(so4_ideals, monkeypatch):
    _, full, _ = so4_ideals
    plain = intertwiner_space(full, full, full)
    assert plain.dim == 2
    restrict = reps.ad_restriction
    monkeypatch.setattr(reps, "ad_restriction",
                        lambda acting, space: _scaled(restrict(acting, space), 2**60))
    scaled = intertwiner_space(full, full, full)
    assert reps._int_stacks(scaled.domain, scaled.codomain)[0].dtype == object
    assert _same_basis(plain.basis, scaled.basis)


def _stacked_kernel(dom, cod):
    """The reference: ``nullspace_exact`` of the stacked Kronecker blocks
    ``cod_i (x) I - I (x) dom_i^T`` of every generator, on vec(T)."""
    eye_dom, eye_cod = (np.eye(stack.shape[1], dtype=np.int64) for stack in (dom, cod))
    return arith.nullspace_exact(np.concatenate([np.kron(c, eye_dom) - np.kron(eye_cod, d.T)
                                                 for d, c in zip(dom, cod)]))


def _entries(dom, cod):
    """Every entry of T, of shape (cod, dom), as its own unknown."""
    return np.arange(cod.shape[1] * dom.shape[1]).reshape(cod.shape[1], dom.shape[1])


def _identical(result, expected):
    """Equal as Scaled values down to the representation: scale, dtype and integers."""
    return (result.scale == expected.scale and result.ints.dtype == expected.ints.dtype
            and result.ints.tolist() == expected.ints.tolist())


@pytest.fixture(scope="module")
def equivariance_problems():
    so4 = build_classical("so", 4)
    full4 = Subspace.full(so4)
    so33 = embed_so_partition(6, (3, 3))
    so222 = embed_so_partition(6, (2, 2, 2))
    k222 = so222.subalgebra
    return {
        "so4-commutant": reps._int_stacks(*[ad_restriction(full4, full4)] * 2),
        "dom-ne-cod": reps._int_stacks(ad_restriction(so33.subalgebra, so33.offdiag_blocks[(1, 2)]),
                                       ad_restriction(so33.subalgebra, Subspace.full(so33.algebra))),
        "three-generators": reps._int_stacks(ad_restriction(k222, so222.offdiag_blocks[(1, 2)]),
                                             ad_restriction(k222, orthogonal_complement(k222))),
        "python-int": reps._int_stacks(*[_scaled(ad_restriction(full4, full4), 2**60)] * 2),
    }


@pytest.mark.parametrize("name", ["so4-commutant", "dom-ne-cod", "three-generators", "python-int"])
def test_solve_equivariance_equals_stacked_nullspace(equivariance_problems, name):
    dom, cod = equivariance_problems[name]
    count, unknowns = dom.shape[0], dom.shape[1] * cod.shape[1]
    assert count * unknowns * unknowns > arith._DIRECT    # the modular path, not the direct one
    assert (count <= 3) == (name == "three-generators")
    assert (dom.dtype == object) == (name == "python-int")
    result = reps._solve_equivariance(dom, cod, _entries(dom, cod))
    expected = _stacked_kernel(dom, cod)
    assert _identical(result, expected)
    assert result.shape[0] > 0
    if name in ("so4-commutant", "python-int"):
        assert result.shape[0] == 2


@pytest.mark.parametrize("name", ["dom-ne-cod", "python-int", "symmetric"])
def test_spun_product_equals_the_built_rows(equivariance_problems, name):
    """``_Spun @ x.T`` evaluates the equations on the images of the starts in
    the rows of x without building the rows; it equals the product with the
    rows that ``ints`` builds, row for row."""
    dom, cod = equivariance_problems["so4-commutant" if name == "symmetric" else name]
    if name == "symmetric":                  # the commutant's Hom(rho, -rho^T)
        cod = -dom.transpose(0, 2, 1)
    spun = reps._Spun(dom, cod)
    assert spun.ints.shape == (len(dom) * dom.shape[1] * cod.shape[1], spun.unknowns)
    x = arith.Scaled(np.random.RandomState(0).randint(-5, 6, size=(3, spun.unknowns)), 7)
    assert (spun @ x.T).equals(arith.Scaled(spun.ints) @ x.T)


def _no_reconstruction(residues, modulus):
    """A stacked ``_reconstruct`` result in which no system reconstructs."""
    return np.zeros(residues.shape, dtype=object), [None] * len(residues)


def _watch_the_lift(monkeypatch):
    """Record the shapes that ``_padic_lift`` and ``_modp_pivots`` get and the
    row count of every ``_eliminate_int`` (Bareiss) call."""
    seen = {"lift": [], "modp": [], "bareiss": []}
    lift, pivots, eliminate = arith._padic_lift, arith._modp_pivots, arith._eliminate_int
    monkeypatch.setattr(arith, "_padic_lift",
                        lambda value, free: seen["lift"].append(value.ints.shape) or lift(value, free))
    monkeypatch.setattr(arith, "_modp_pivots",
                        lambda mat: seen["modp"].append(np.shape(mat)) or pivots(mat))
    monkeypatch.setattr(arith, "_eliminate_int",
                        lambda work, **kwargs: seen["bareiss"].append(len(work))
                        or eliminate(work, **kwargs))
    return seen


def test_failed_lift_falls_back_to_the_stacked_nullspace(equivariance_problems, monkeypatch):
    """With no reconstruction, the p-adic lift and then Bareiss run on the spun
    system (every generator and word, dim W unknowns for one start), which is
    never eliminated mod p."""
    dom, cod = equivariance_problems["so4-commutant"]
    expected = _stacked_kernel(dom, cod)
    spun = (dom.shape[0] * 6 * 6, 6)
    seen = _watch_the_lift(monkeypatch)
    monkeypatch.setattr(arith, "_reconstruct", _no_reconstruction)
    result = reps._solve_equivariance(dom, cod, _entries(dom, cod))
    assert seen["lift"] == [spun] and seen["bareiss"].count(spun[0]) == 1
    assert seen["modp"] and spun not in seen["modp"]
    assert _identical(result, expected)


def test_commutant_past_31_bits_is_lifted_p_adically(so4_ideals, monkeypatch):
    """The so(4) adjoint action conjugated by a unimodular ``U`` with entries
    near ``2**20``: its canonical commutant basis has entries past 31 bits, so
    neither it nor the kernel on the images of the spun start reconstructs mod
    ``_P``.  One p-adic lift on the spun system solves it, with no Bareiss on
    its rows and no elimination of them mod p."""
    _, full, _ = so4_ideals
    rho, = reps._int_stacks(ad_restriction(full, full))
    upper, lower = np.eye(6, dtype=np.int64), np.eye(6, dtype=np.int64)
    upper[:3, 3:], lower[3:, :3] = (np.random.RandomState(seed).randint(2**9, 2**10, size=(3, 3))
                                    for seed in (1, 2))
    eye = np.eye(6, dtype=np.int64)
    u, u_inv = upper @ lower, (2 * eye - lower) @ (2 * eye - upper)   # (I + N)^-1 = I - N, N^2 = 0
    assert np.array_equal(u @ u_inv, eye) and u.max() > 2**20
    conj = u @ rho @ u_inv
    expected = _stacked_kernel(conj, conj)
    seen = _watch_the_lift(monkeypatch)
    reconstructions = []
    reconstruct = arith._reconstruct
    monkeypatch.setattr(arith, "_reconstruct", lambda residues, modulus: reconstructions.append(modulus)
                        or reconstruct(residues, modulus))
    result = reps._solve_equivariance(conj, conj, _entries(conj, conj))
    assert seen["lift"] == [(6 * 36, 6)] and 6 * 36 not in seen["bareiss"]
    assert (6 * 36, 6) not in seen["modp"]
    assert reconstructions[0] == arith._P and len(reconstructions) > 1
    assert _identical(result, expected) and result.shape[0] == 2
    assert max(max(abs(v.numerator), v.denominator) for v in fractions(result).reshape(-1)) > 2**31


def test_modular_kernel_too_large_fails_the_exact_check(equivariance_problems, monkeypatch):
    dom, _ = equivariance_problems["so4-commutant"]
    shifted = dom.copy()
    shifted[0, 0, 1] += arith._P      # the same system mod p, a different one over the rationals
    expected = _stacked_kernel(shifted, shifted)
    assert expected.shape[0] < 2
    lifts = []
    lift = arith._reconstruct
    monkeypatch.setattr(arith, "_reconstruct",
                        lambda residues, modulus: lifts.append(residues.shape) or lift(residues, modulus))
    result = reps._solve_equivariance(shifted, shifted, _entries(shifted, shifted))
    assert lifts[0] == (1, 2, 6)      # the modular kernel is the unshifted commutant's, on u
    assert _identical(result, expected)


def test_start_word_kernel_is_cut_down_by_the_other_equations(monkeypatch):
    """so(8)/(2,3,3), k acting on itself: the equations at the three start
    words leave five maps mod p, whose candidate fails the exact check; the
    equations at every word cut them to the three of the commutant, which is
    the direct solve's."""
    k = embed_so_partition(8, (2, 3, 3)).subalgebra
    restriction = ad_restriction(k, k)
    rho, = reps._int_stacks(restriction)
    assert len(reps._Spun(rho, -rho.transpose(0, 2, 1)).starts) == 3
    kernels = []
    kernel_modp = arith.kernel_modp
    monkeypatch.setattr(arith, "kernel_modp", lambda mat: kernels.append(kernel_modp(mat)) or kernels[-1])
    comm = symmetric_commutant(restriction)
    assert [kernel.shape for kernel in kernels] == [(5, 3 * 7), (3, 5)]
    monkeypatch.setattr(arith, "_DIRECT", 10**9)
    direct = symmetric_commutant(restriction)
    assert len(comm) == 3 and all(_identical(a, b) for a, b in zip(comm, direct, strict=True))


def test_so8_commutant_eliminates_no_stacked_system(monkeypatch):
    """The so(8) adjoint is one spun module: every elimination has at most 28
    unknown columns (the upper triangle of ``S = G T`` had 406)."""
    so8 = build_classical("so", 8)
    full = Subspace.full(so8)
    widths = []
    kernel_modp = arith.kernel_modp
    monkeypatch.setattr(arith, "kernel_modp", lambda mat: widths.append(mat.shape[1]) or kernel_modp(mat))
    assert len(symmetric_commutant(ad_restriction(full, full))) == 1
    assert widths and max(widths) <= 28


# -- symmetric commutant on the symmetric unknowns S = G T ---------------------

def _su3_torus(algebra):
    return Subspace.from_indices(algebra, [i for i, lab in enumerate(algebra.labels)
                                           if lab.startswith("D")])


def _k_on_m(layout, shear=False):
    """k acting on its complement m; with ``shear``, on m in the basis ``U B``
    (U unit upper triangular), whose Gram matrix is not scalar, so the action
    matrices are not skew."""
    m = orthogonal_complement(layout.subalgebra)
    if shear:
        u = np.eye(m.dim, dtype=np.int64) + np.triu(np.arange(m.dim) % 3 - 1, 1)
        m = Subspace(m.algebra, arith.Scaled(u) @ m.basis, check=False)
    return ad_restriction(layout.subalgebra, m)


@pytest.fixture(scope="module")
def commutant_cases():
    full8, full4 = (Subspace.full(build_classical("so", n)) for n in (8, 4))
    torus = _su3_torus(build_classical("su", 3))
    so6 = embed_so_partition(6, (2, 2, 2))
    return {
        "so8-adjoint": ad_restriction(full8, full8),
        "so4-adjoint": ad_restriction(full4, full4),
        "so6-k-on-m": _k_on_m(so6),
        "so6-k-on-sheared-m": _k_on_m(so6, shear=True),
        "so9-k-on-m": _k_on_m(embed_so_partition(9, (3, 3, 3))),
        "su3-torus": ad_restriction(torus, orthogonal_complement(torus)),
        "zero-acting": ad_restriction(Subspace.zero(so6.algebra), orthogonal_complement(so6.subalgebra)),
        "python-int": _scaled(ad_restriction(full4, full4), 2**60),
    }


def _same_span(first, second):
    """Equally many independent maps, spanning one space."""
    def rank(maps):
        return arith.rank_exact(arith.Scaled.concat([t.reshape(1, -1) for t in maps]))
    if len(first) != len(second):
        return False
    return not first or rank(first) == rank(second) == rank([*first, *second]) == len(first)


@pytest.mark.parametrize("name", ["so8-adjoint", "so4-adjoint", "so6-k-on-m", "so6-k-on-sheared-m",
                                  "so9-k-on-m", "su3-torus", "zero-acting", "python-int"])
def test_symmetric_commutant_spans_the_two_stage_oracle(commutant_cases, name):
    restriction = commutant_cases[name]
    comm = symmetric_commutant(restriction)
    assert _same_span(comm, symmetric_commutant_two_stage(restriction))
    gram, rho = restriction.space.gram, restriction.matrices
    for t in comm:
        assert (gram @ t).equals((gram @ t).T)              # form-symmetric
        assert (rho @ t).equals(t @ rho)                     # commutes with every generator


@pytest.mark.parametrize("name", ["so4-adjoint", "so6-k-on-sheared-m"])
def test_symmetric_commutant_failed_lift_falls_back_to_the_exact_solve(commutant_cases, name,
                                                                       monkeypatch):
    """With no reconstruction, the p-adic lift and then Bareiss run on the spun
    system of ``Hom(rho, -rho^T)``, which is never eliminated mod p."""
    restriction = commutant_cases[name]
    expected = symmetric_commutant_two_stage(restriction)
    rho, = reps._int_stacks(restriction)
    spun = reps._Spun(rho, -rho.transpose(0, 2, 1)).ints.shape
    seen = _watch_the_lift(monkeypatch)
    monkeypatch.setattr(arith, "_reconstruct", _no_reconstruction)
    comm = symmetric_commutant(restriction)
    assert seen["lift"][0] == spun and seen["bareiss"].count(spun[0]) == 1
    assert seen["modp"] and spun not in seen["modp"]
    assert _same_span(comm, expected)


def _decompositions(case):
    """Ideal and isotypic decompositions of one case, on a freshly built algebra."""
    if case == "so8":
        return [ideal_decomposition(Subspace.full(build_classical("so", 8)))]
    if case == "so9-333":
        layout = embed_so_partition(9, (3, 3, 3))
        k = layout.subalgebra
        return [ideal_decomposition(k), isotypic_decomposition(k, orthogonal_complement(k))]
    torus = _su3_torus(build_classical("su", 3))
    return [isotypic_decomposition(torus, orthogonal_complement(torus))]


def _pieces(decomposition):
    """The subspaces of an ideal or isotypic decomposition, and the isotypic labels."""
    if hasattr(decomposition, "ideals"):
        return decomposition.ideals, ()
    return decomposition.components, (decomposition.labels, decomposition.multiplicities)


@pytest.mark.parametrize("case", ["so8", "so9-333", "su3-torus"])
def test_decompositions_equal_those_built_on_the_oracle(case, monkeypatch):
    solved = _decompositions(case)
    monkeypatch.setattr(reps, "symmetric_commutant", symmetric_commutant_two_stage)
    oracle = _decompositions(case)
    for got, expected in zip(solved, oracle):
        (pieces, tags), (want, want_tags) = _pieces(got), _pieces(expected)
        assert tags == want_tags and len(pieces) == len(want)
        assert all(a.basis.equals(b.basis) for a, b in zip(pieces, want))


# -- Casimir separation before the equivariance solve ---------------------------

@pytest.fixture(scope="module")
def so7_3211():
    """so(7)/(3,2,1,1): the Casimir of k is -3/10 on m1_2, -1/5 on m1_3 and
    m1_4, -1/10 on m2_3 and m2_4 and 0 on m3_4."""
    return embed_so_partition(7, (3, 2, 1, 1))


def _stacked_intertwiners(acting, space1, space2):
    """Today's intertwiner basis, from the stacked Kronecker system of every
    generator with no Casimir test."""
    return _stacked_kernel(*reps._int_stacks(ad_restriction(acting, space1),
                                             ad_restriction(acting, space2)))


def _shared_constituent_case(case, so6_layout, so7_3211):
    if case == "so6-m12-to-itself":
        m12 = so6_layout.offdiag_blocks[(1, 2)]
        return so6_layout.subalgebra, m12, m12, 4
    blocks = so7_3211.offdiag_blocks
    return so7_3211.subalgebra, blocks[(1, 3)], blocks[(1, 4)], 1


@pytest.mark.parametrize("case", ["so6-m12-to-itself", "so7-two-pieces-of-one-component"])
@pytest.mark.parametrize("python_ints", [False, True])
def test_shared_constituents_keep_the_solved_intertwiners(case, python_ints, so6_layout, so7_3211,
                                                         monkeypatch):
    """Modules with a common constituent have equal scalar Casimirs: the solve
    runs and gives the stacked system's dimension and span, on int64 and on
    Python ints (every action matrix scaled by 2**60)."""
    acting, space1, space2, dim = _shared_constituent_case(case, so6_layout, so7_3211)
    if case == "so7-two-pieces-of-one-component":
        component, = (c for c in isotypic_decomposition(acting, orthogonal_complement(acting)).components
                      if c.contains_space(space1))
        assert component.spans_equal(space1.add(space2))
    expected = _stacked_intertwiners(acting, space1, space2)
    if python_ints:
        restrict = reps.ad_restriction
        monkeypatch.setattr(reps, "ad_restriction",
                            lambda acting, space: _scaled(restrict(acting, space), 2**60))
    solves = []
    solve = reps._solve_equivariance
    monkeypatch.setattr(reps, "_solve_equivariance", lambda *args, **kwargs: solves.append(1)
                        or solve(*args, **kwargs))
    itw = intertwiner_space(acting, space1, space2)
    assert reps._int_stacks(itw.domain, itw.codomain)[0].dtype == (object if python_ints else np.int64)
    assert itw.dim == expected.shape[0] == dim
    assert len(solves) == 1
    assert _same_span(list(itw.basis), [expected[r].reshape(space2.dim, space1.dim)
                                        for r in range(dim)])


@pytest.mark.parametrize("small, large, dim", [
    (["2,3"], ["1,2", "1,3"], 0),            # scalar small side, f(Omega_W) nonsingular
    (["1,3"], ["1,4", "2,3"], 1),            # scalar small side, f(Omega_W) singular
    (["1,3", "2,3"], ["1,2", "3,4"], 0),     # minimal polynomial of degree 2, nonsingular
    (["1,3", "2,3"], ["1,4", "1,2"], 1),     # minimal polynomial of degree 2, singular
])
def test_minimal_polynomial_test_solves_only_when_it_cannot_separate(small, large, dim, so7_3211,
                                                                     monkeypatch):
    """A non-scalar Casimir on the larger module: ``f(Omega_W)`` of full rank
    proves Hom = 0 with no solve; a singular one leaves the solve, which gives
    the stacked system's dimension.  Both directions are asked."""
    def span(keys):
        pieces = [so7_3211.offdiag_blocks[tuple(int(i) for i in key.split(","))] for key in keys]
        return functools.reduce(Subspace.add, pieces)
    k, space_v, space_w = so7_3211.subalgebra, span(small), span(large)
    assert reps.casimir(ad_restriction(k, space_w)).scalar() is None
    assert (reps.casimir(ad_restriction(k, space_v)).scalar() is None) == (len(small) == 2)
    solves = []
    solve = reps._solve_equivariance
    monkeypatch.setattr(reps, "_solve_equivariance", lambda *args, **kwargs: solves.append(1)
                        or solve(*args, **kwargs))
    for first, second in ((space_v, space_w), (space_w, space_v)):
        expected = _stacked_intertwiners(k, first, second)
        itw = intertwiner_space(k, first, second)
        assert itw.dim == expected.shape[0] == dim
        assert _same_span(list(itw.basis), [expected[r].reshape(second.dim, first.dim)
                                            for r in range(dim)])
    assert len(solves) == (2 if dim else 0)


def test_casimir_commutes_with_the_action_and_splits_the_isotypic_stack(so7_3211, monkeypatch):
    """Omega commutes with every generator and does not depend on the acting
    basis; on k's complement in so(7)/(3,2,1,1) it has four eigenvalues, and the isotypic split starts from its four
    primary components, so no commutant of the whole complement is solved."""
    k = so7_3211.subalgebra
    m = orthogonal_complement(k)
    restriction = ad_restriction(k, m)
    omega = reps.casimir(restriction)
    rho = restriction.matrices
    assert (rho @ omega).equals(omega @ rho)
    shear = np.eye(k.dim, dtype=np.int64) + np.triu(np.arange(k.dim) % 3 - 1, 1)
    sheared = Subspace(k.algebra, arith.Scaled(shear) @ k.basis, check=False)
    assert reps.casimir(ad_restriction(sheared, m)).equals(omega)     # independent of the basis
    assert len(arith.primary_invariant_split(omega)) == 4
    sizes = []
    commutant = reps.symmetric_commutant
    monkeypatch.setattr(reps, "symmetric_commutant",
                        lambda r: sizes.append(r.space.dim) or commutant(r))
    dec = isotypic_decomposition(k, m)
    assert max(sizes) < m.dim
    assert [c.dim for c in dec.components] == [1, 4, 6, 6]


# -- pinned outputs: a non-cyclic module and so(7)/(3,2,1,1) ------------------------

def test_non_cyclic_module_equals_the_stacked_nullspace(monkeypatch):
    """k of so(6)/(2,2,2), a torus, acting on itself: three trivial
    constituents, so no single vector generates the module.  With the direct
    path switched off, the modular solve gives the stacked system's basis, and
    the symmetric commutant the direct path's."""
    k = embed_so_partition(6, (2, 2, 2)).subalgebra
    rho, = reps._int_stacks(ad_restriction(k, k))
    expected = _stacked_kernel(rho, rho)
    direct = symmetric_commutant(ad_restriction(k, k))
    monkeypatch.setattr(arith, "_DIRECT", 0)
    assert len(reps._Spun(rho, rho).starts) == 3
    assert _identical(reps._solve_equivariance(rho, rho, _entries(rho, rho)), expected)
    assert expected.shape[0] == 9
    spun = symmetric_commutant(ad_restriction(k, k))
    assert len(spun) == 6 and all(_identical(a, b) for a, b in zip(spun, direct))


def test_so7_3211_isotypic_decomposition_is_pinned(so7_3211):
    """k acting on its complement in so(7)/(3,2,1,1): components, labels and
    multiplicities as computed before the spinning solver, including the two
    components of multiplicity 2 that stay ``not-split-by-this-procedure``."""
    k = so7_3211.subalgebra
    dec = isotypic_decomposition(k, orthogonal_complement(k))
    assert dec.labels == ("irreducible", "not-split-by-this-procedure",
                          "irreducible", "not-split-by-this-procedure")
    assert dec.multiplicities == (1, None, 1, None)
    pinned = [[20], [16, 17, 18, 19], [2, 3, 7, 8, 11, 12], [4, 5, 9, 10, 13, 14]]
    for component, indices in zip(dec.components, pinned, strict=True):
        assert _identical(component.basis, arith.Scaled(np.eye(k.algebra.dim, dtype=np.int64)[indices]))
