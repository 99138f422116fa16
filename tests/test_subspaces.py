"""Subspace calculus: complements, centralizers, normalizers, rank, ideals."""

import random
from fractions import Fraction

import numpy as np
import pytest
from goverify import arith, subspaces
from goverify.arith import is_zero, q, qarray
from goverify.lie import (build_classical, embed_so_partition, ingest_structure_table,
                          serialize_structure_table)
from goverify.subspaces import (Subspace, centralizer_in,
                                centralizer_in_complement, derived_subalgebra,
                                ideal_decomposition, is_regular, is_subalgebra,
                                normalizer, orthogonal_complement, rank_estimate)
from test_arith import _reference_nullspace
from oracles import (algebra_from_tensor, direct_sum, fmatmul, fractions, fzeros,
                     random_element, rank_estimate_all_exact, tensor)
import partition_table


@pytest.fixture(scope="module")
def so6_layout():
    return embed_so_partition(6, (2, 2, 2))


def test_independent_basis_required():
    so3 = build_classical("so", 3)
    with pytest.raises(arith.ContractViolation):
        Subspace(so3, qarray([[1, 0, 0], [2, 0, 0]]))


def test_span_reduces_dependent_rows():
    so3 = build_classical("so", 3)
    s = Subspace.span(so3, qarray([[1, 0, 0], [2, 0, 0], [0, 1, 0]]))
    assert s.dim == 2


def test_coords_and_membership():
    so3 = build_classical("so", 3)
    s = Subspace.from_indices(so3, [0, 2])
    assert s.contains(qarray([3, 0, -2]))
    assert not s.contains(qarray([0, 1, 0]))
    zero = Subspace.zero(so3)
    assert zero.contains(qarray([0, 0, 0]))
    assert not zero.contains(qarray([1, 0, 0]))


def test_is_subalgebra_with_witness(so6_layout):
    assert is_subalgebra(so6_layout.subalgebra)
    check = is_subalgebra(so6_layout.offdiag_blocks[(1, 2)])
    assert not check
    assert check.witness_pair is not None
    assert is_subalgebra(Subspace.full(so6_layout.algebra))


def test_orthogonal_complement_dims(so6_layout):
    g = so6_layout.algebra
    form = g.form()
    m = orthogonal_complement(so6_layout.subalgebra)
    assert m.dim == 12
    assert m.spans_equal(so6_layout.complement)
    assert orthogonal_complement(Subspace.zero(g)).dim == 15
    assert orthogonal_complement(Subspace.full(g)).dim == 0
    # mutual orthogonality is exact
    gram = fmatmul(so6_layout.subalgebra.basis, fmatmul(form.matrix, m.basis.T))
    assert is_zero(gram)


def test_centralizer_examples(so6_layout):
    g = so6_layout.algebra
    k = so6_layout.subalgebra
    m = orthogonal_complement(k)
    assert centralizer_in(k, m).dim == 0
    within = Subspace.from_indices(g, [0, 1, 2])
    assert centralizer_in(Subspace.zero(g), within).spans_equal(within)


def test_centralizer_of_so3_ideal_in_so4():
    so4 = build_classical("so", 4)
    full = Subspace.full(so4)
    dec = ideal_decomposition(full)
    first, second = dec.ideals
    cent = centralizer_in(first, full)
    assert cent.spans_equal(second)


def test_normalizer_self_normalizing(so6_layout):
    k = so6_layout.subalgebra
    n = normalizer(k)
    assert n.spans_equal(k)
    assert centralizer_in_complement(k).dim == 0


def test_normalizer_of_zero_is_everything(so6_layout):
    g = so6_layout.algebra
    assert normalizer(Subspace.zero(g)).dim == g.dim


def test_normalizer_of_cartan_in_so5():
    so5 = build_classical("so", 5)
    # span{A12, A34} is a Cartan subalgebra
    from goverify.lie import so_pair_index
    cartan = Subspace.from_indices(so5, [so_pair_index(5, 1, 2), so_pair_index(5, 3, 4)])
    n = normalizer(cartan)
    cm = centralizer_in(cartan, orthogonal_complement(cartan))
    assert n.dim == cartan.dim + cm.dim
    assert n.contains_space(cartan)


def test_rank_and_normalizer_on_an_ingested_structure_table(monkeypatch):
    """so(7) read back from its structure table: every nullspace, small or
    screened, equals the Fraction reference, and ranks and normalizer equal
    those on the built algebra."""
    layout = embed_so_partition(7, (2, 2, 3))
    table = ingest_structure_table(serialize_structure_table(layout.algebra))
    shapes = []
    original = arith.nullspace_exact

    def checked(mat):
        out = original(mat)
        assert fractions(out).tolist() == _reference_nullspace(mat)
        shapes.append(mat.shape)
        return out

    monkeypatch.setattr(arith, "nullspace_exact", checked)
    found = normalizer(Subspace(table, layout.subalgebra.basis))
    ranks = (rank_estimate(Subspace.full(table)).value, rank_estimate(found).value)
    monkeypatch.undo()
    assert min(r * c for r, c in shapes) <= 1_200 < max(r * c for r, c in shapes)
    expected = normalizer(layout.subalgebra)
    assert fractions(found.basis).tolist() == fractions(expected.basis).tolist()
    assert ranks == (rank_estimate(Subspace.full(layout.algebra)).value,
                     rank_estimate(expected).value) == (3, 3)


def test_normalizer_requires_subalgebra(so6_layout):
    with pytest.raises(arith.ContractViolation):
        normalizer(so6_layout.offdiag_blocks[(1, 2)])


# -- rank and regularity --------------------------------------------------------

def test_rank_estimates():
    assert rank_estimate(Subspace.full(build_classical("so", 4))).value == 2
    assert rank_estimate(Subspace.full(build_classical("abelian", 5))).value == 5
    layout9 = embed_so_partition(9, (3, 3, 3))
    assert rank_estimate(layout9.subalgebra).value == 3
    assert rank_estimate(Subspace.full(layout9.algebra)).value == 4


def test_rank_witness_is_abelian():
    g = build_classical("so", 5)
    est = rank_estimate(Subspace.full(g))
    assert isinstance(est.cartan, arith.Scaled) and est.cartan.shape == (2, g.dim)
    assert est.value == 2
    cartan = Subspace(g, est.cartan)
    assert is_zero(cartan.brackets(cartan))


def test_regularity_so6_maximal_rank(so6_layout):
    rep = is_regular(so6_layout.subalgebra)
    assert rep.regular and rep.maximal_rank


def test_regularity_so9_not_regular_but_weakly():
    layout = embed_so_partition(9, (3, 3, 3))
    rep = is_regular(layout.subalgebra)
    assert not rep.regular and not rep.maximal_rank
    assert rep.rank_normalizer == 3 and rep.rank_ambient == 4


def test_cartan_subalgebra_is_regular():
    so5 = build_classical("so", 5)
    from goverify.lie import so_pair_index
    cartan = Subspace.from_indices(so5, [so_pair_index(5, 1, 2), so_pair_index(5, 3, 4)])
    assert is_regular(cartan).regular


def test_zero_subalgebra_is_regular(so6_layout):
    assert is_regular(Subspace.zero(so6_layout.algebra)).regular


def test_block_subgroup_table_up_to_so10():
    """Every proper partition of 3 <= n <= 10: is_regular equals the rank
    count, regular implies weakly regular, and exactly the 11 pinned
    subgroups are not weakly regular (``tests/partition_table.py``)."""
    rows = [row for n in range(3, 11) for row in partition_table.table(n)]
    assert len(rows) == 127
    assert partition_table.disagreements(rows) == []
    not_weak = {partition for partition, _, weak in rows if not weak}
    assert not_weak == {p for p in partition_table.NOT_WEAKLY_REGULAR if sum(p) <= 10}
    assert len(not_weak) == 11


def test_maximal_rank_implies_trivial_complement_centralizer(so6_layout):
    """Self-normalizing consequence of maximal rank, on the built-in scenarios."""
    for layout in (so6_layout, embed_so_partition(5, (2, 3))):
        rep = is_regular(layout.subalgebra)
        if rep.maximal_rank:
            assert centralizer_in_complement(layout.subalgebra).dim == 0


def test_rank_invariant_under_exp_ad_conjugation():
    """Conjugating by a rational inner automorphism keeps the exact rank estimate.

    ``g = (I - A)(I + A)^-1``, the Cayley transform of a rational skew ``A``, is
    a rational element of SO(5); ``X -> g X g^T`` acts on the so(5) matrices
    ``E_ij - E_ji`` of the basis.
    """
    g = build_classical("so", 5)
    layout = embed_so_partition(5, (2, 3))
    k = layout.subalgebra
    base = rank_estimate(k).value
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    rng = random.Random(7)
    eye = fractions(np.eye(5, dtype=np.int64))
    for _ in range(3):
        a = fzeros((5, 5))
        for i, j in pairs:
            a[i, j] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            a[j, i] = -a[i, j]
        inv = fractions(arith.inverse(eye + a))
        rot = np.dot(eye - a, inv)
        assert is_zero(np.dot(rot, rot.T) - eye) and not is_zero(rot - eye)
        rows = []
        for x in k.basis:
            mat = sum(x[p] * g.realization[p] for p in range(g.dim))
            conj = np.dot(np.dot(rot, mat), rot.T)
            rows.append([conj[i, j] for i, j in pairs])
        image = Subspace(g, qarray(rows))
        assert is_subalgebra(image)
        assert rank_estimate(image).value == base


# -- ideal decomposition ---------------------------------------------------------

def test_ideal_decomposition_so4():
    so4 = build_classical("so", 4)
    dec = ideal_decomposition(Subspace.full(so4))
    assert dec.center.dim == 0
    assert sorted(i.dim for i in dec.ideals) == [3, 3]


def test_ideal_decomposition_rejects_a_piece_that_is_not_irreducible(monkeypatch):
    """An ideal is read off an irreducible piece only; a piece that the split
    could not resolve raises instead of passing for a simple ideal."""
    from goverify import reps
    full = Subspace.full(build_classical("so", 4))
    monkeypatch.setattr(reps, "split_pieces", lambda acting, space: [
        (space, "not-split-by-this-procedure")])
    with pytest.raises(arith.ExactComputationError, match="simple ideals"):
        ideal_decomposition(full)


def test_ideal_decomposition_abelian(so6_layout):
    dec = ideal_decomposition(so6_layout.subalgebra)
    assert dec.center.dim == 3 and not dec.ideals


def test_ideal_decomposition_direct_sum():
    s = direct_sum([build_classical("so", 3), build_classical("so", 5)])
    dec = ideal_decomposition(Subspace.full(s))
    assert dec.center.dim == 0
    assert sorted(i.dim for i in dec.ideals) == [3, 10]


def test_ideal_decomposition_reassembles_bracket():
    """Restriction of the ambient tensor to center + ideals reproduces brackets."""
    s = direct_sum([build_classical("abelian", 1), build_classical("so", 4)])
    from goverify.lie import attach_form
    attach_form(s, np.diag([1] + [0] * 6) + (-s.killing.matrix))
    full = Subspace.full(s)
    dec = ideal_decomposition(full)
    assert dec.center.dim == 1
    pieces = [dec.center, *dec.ideals]
    stacked = arith.Scaled.concat([p.basis for p in pieces if p.dim])
    reassembled = Subspace.span(s, stacked)
    assert reassembled.dim == s.dim
    for a in pieces:
        for b in pieces:
            for i in range(a.dim):
                for j in range(b.dim):
                    br = s.bracket(a.basis[i], b.basis[j])
                    if a is b:
                        assert a.contains(br)
                    else:
                        assert is_zero(br)


def test_derived_subalgebra(so6_layout):
    assert derived_subalgebra(so6_layout.subalgebra).dim == 0
    so4 = build_classical("so", 4)
    assert derived_subalgebra(Subspace.full(so4)).dim == 6


def test_subspace_serialization_roundtrip(so6_layout):
    from goverify.subspaces import parse_subspace, serialize_subspace
    g = so6_layout.algebra
    k = so6_layout.subalgebra
    text = serialize_subspace(k)
    again = parse_subspace(g, text)
    assert again.spans_equal(k)
    assert serialize_subspace(again) == text
    assert parse_subspace(g, "ambient 15\nrows 0\n").dim == 0
    with pytest.raises(arith.ContractViolation):
        parse_subspace(g, "ambient 14\n")
    with pytest.raises(arith.ContractViolation):
        parse_subspace(g, "1 2 3\n")


def test_normalizer_cross_check_raises_on_wrong_centralizer(monkeypatch):
    k = embed_so_partition(6, (2, 2, 2)).subalgebra  # fresh algebra: nothing memoized
    monkeypatch.setattr(subspaces, "centralizer_in", lambda space, within: within)
    with pytest.raises(arith.ExactComputationError, match="normalizer"):
        normalizer(k)


_SO_PARTITIONS = {4: (2, 2), 5: (2, 3), 6: (2, 2, 2), 7: (1, 3, 3), 8: (2, 3, 3), 9: (3, 3, 3),
                  10: (2, 4, 4), 11: (3, 4, 4), 12: (3, 3, 3, 3)}


def _changed_basis(algebra, seed: int, steps: int = 20):
    """``algebra`` in the basis ``U e``, ``U`` a unimodular integer matrix made of
    ``steps`` elementary row operations, so that few basis vectors commute."""
    rng = np.random.RandomState(seed)
    u = np.eye(algebra.dim, dtype=np.int64)
    for _ in range(steps):
        a, b = rng.choice(algebra.dim, 2, replace=False)
        u[a] += rng.randint(-2, 3) * u[b]
    uf = fractions(u)
    dense = np.tensordot(uf, np.tensordot(uf, tensor(algebra), axes=(1, 0)), axes=(1, 1))
    return algebra_from_tensor(np.tensordot(dense.transpose(1, 0, 2),
                                            fractions(arith.inverse(u)), axes=(2, 0)))


def _rank_cases():
    """``(name, spaces, ranks)``: all of so(n), a block subalgebra and its normalizer
    for n <= 12; all of su(3)-su(6) and sp(2)-sp(4); a direct sum with a center;
    so(6) in a changed basis, where the basis walk falls short."""
    for n, partition in _SO_PARTITIONS.items():
        def spaces(n=n, partition=partition):
            layout = embed_so_partition(n, partition)
            return [Subspace.full(layout.algebra), layout.subalgebra, normalizer(layout.subalgebra)]
        yield f"so{n}", spaces, [n // 2, sum(k // 2 for k in partition), None]
    for n in range(3, 7):
        yield f"su{n}", lambda n=n: [Subspace.full(build_classical("su", n))], [n - 1]
    for n in range(2, 5):
        yield f"sp{n}", lambda n=n: [Subspace.full(build_classical("sp", n))], [n]
    yield "so4+su3+center", lambda: [Subspace.full(direct_sum(
        [build_classical("so", 4), build_classical("su", 3), build_classical("abelian", 2)]))], [6]
    yield ("so6-changed-basis", lambda: [Subspace.full(_changed_basis(build_classical("so", 6), 5))],
           [3])


@pytest.mark.parametrize("spaces, ranks", [case[1:] for case in _rank_cases()],
                         ids=[case[0] for case in _rank_cases()])
def test_modular_first_rank_matches_the_all_exact_reference(spaces, ranks):
    """The greedy maximal abelian subalgebra has the rank of the drawn elements'
    centralizers; it is abelian and its exact centralizer in the space is its span."""
    for space, rank in zip(spaces(), ranks):
        got = rank_estimate(space)
        assert got.value == rank_estimate_all_exact(space).value
        assert rank is None or got.value == rank
        cartan = Subspace(space.algebra, got.cartan)
        assert space.contains_space(cartan) and is_zero(cartan.brackets(cartan))
        assert centralizer_in(cartan, space).spans_equal(cartan)


@pytest.mark.parametrize("family, n, rank", [("so", 12, 6), ("su", 4, 3)], ids=["so12", "su4"])
def test_rank_takes_an_exact_kernel_only_to_complete_the_greedy_basis(monkeypatch, family, n, rank):
    """The greedy walk over the basis of so(12) is already maximal abelian: the
    rank needs no exact kernel.  On su(4) it is not, so the completion takes at
    least one exact kernel and adds one of its rows."""
    calls = []
    nullspace = arith.nullspace_exact
    monkeypatch.setattr(arith, "nullspace_exact", lambda mat: calls.append(1) or nullspace(mat))
    assert rank_estimate(Subspace.full(build_classical(family, n))).value == rank
    assert (len(calls) == 0) if family == "so" else (len(calls) >= 1)


# -- random elements ---------------------------------------------------------------

def _fraction_random_element(space, rng, bound=9):
    """Direction sampling as a Fraction sum over basis rows (the reference)."""
    while True:
        coeffs = [Fraction(rng.randint(-bound, bound)) for _ in range(space.dim)]
        if any(c != 0 for c in coeffs) or space.dim == 0:
            break
    vec = fzeros(space.algebra.dim)
    for c, row in zip(coeffs, fractions(space.basis)):
        if c != 0:
            vec = vec + c * row
    return vec


def _spaces():
    layout = embed_so_partition(6, (2, 2, 2))
    g = layout.algebra
    basis = fractions(layout.offdiag_blocks[(1, 2)].basis)
    mixed = qarray([basis[0] * Fraction(1, 3) + basis[1] * Fraction(2, 7),
                    basis[1] * Fraction(5, 2), basis[2] - basis[3] * Fraction(1, 9)])
    return {"full": Subspace.full(g),
            "denominators": Subspace(g, mixed),
            "past-int64": Subspace(g, mixed * Fraction(3**45, 11)),
            "zero": Subspace.zero(g)}


@pytest.mark.parametrize("name", ["full", "denominators", "past-int64", "zero"])
def test_random_element_matches_fraction_loop(name):
    """The oracle's ``random_element``, over ``Subspace.random_coefficients``, is the
    Fraction sum of ``randint(-9, 9)`` draws, and leaves the generator in its state."""
    space = _spaces()[name]
    for seed in range(25):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = random_element(space, rng)
        expected = _fraction_random_element(space, ref_rng)
        assert all(isinstance(v, Fraction) for v in got)
        assert list(got) == list(expected)
        assert rng.getstate() == ref_rng.getstate()
    if name == "past-int64":
        assert space.basis.ints.dtype == object


# -- the span memo ------------------------------------------------------------------

def test_shared_subspace_returns_the_stored_instance_and_rejects_another_basis():
    g = build_classical("so", 4)
    first = Subspace.from_indices(g, [0, 1])
    assert subspaces.shared_subspace(first, "test") is first
    assert subspaces.shared_subspace(Subspace.from_indices(g, [0, 1]), "test") is first
    with pytest.raises(arith.ExactComputationError, match="basis differs"):
        subspaces.shared_subspace(Subspace(g, first.basis * 2), "test")


def test_span_memo_keys_by_span_not_by_basis():
    g = build_classical("so", 4)
    k = Subspace.from_indices(g, [0, 1])
    complement = orthogonal_complement(k)
    assert orthogonal_complement(Subspace(g, k.basis[::-1] * 3)) is complement
    assert subspaces.span_memo(k, lambda: "first", "probe") == "first"
    assert subspaces.span_memo(Subspace(g, k.basis * 5), lambda: "second", "probe") == "first"
    assert subspaces.span_memo(k, lambda: "other", "probe", 1) == "other"
