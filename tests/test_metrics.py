"""Metric operators: construction, equivariance, isometry subalgebra,
bi-invariance and the naturally reductive normal form."""

import math
from fractions import Fraction

import numpy as np
import pytest

from goverify import arith, metrics, scenarios, subspaces
from goverify.arith import is_zero, qarray
from goverify.lie import build_classical, embed_so_partition
from goverify.metrics import (BlockSpec, MetricOperator, bi_invariance_check,
                              dazi_structure_check, equivariance_check,
                              invariant_subspace, isometry_subalgebra,
                              metric_from_blocks, restrict_operator)
from goverify.subspaces import Subspace, ideal_decomposition, orthogonal_complement
from oracles import (bi_invariant_by_blocks, fmatmul, fractions, metric_inner, rescale,
                     tensor)

PARAM_NAMES = ["k1", "k2", "k3", "m1_2", "m1_3", "m2_3"]


@pytest.fixture(scope="module")
def so6():
    layout = embed_so_partition(6, (2, 2, 2))
    return layout, layout.named_subspaces()


def block_metric(layout, named, params):
    blocks = tuple((named[n], Fraction(p)) for n, p in zip(PARAM_NAMES, params))
    return metric_from_blocks(layout.algebra, BlockSpec(blocks))


def test_scalar_metric_is_identity_scaled(so6):
    layout, named = so6
    op = block_metric(layout, named, [3, 3, 3, 3, 3, 3])
    assert is_zero(op.matrix - 3 * np.eye(15, dtype=np.int64))
    assert op.is_scalar() == 3


def test_eigenvalue_multiplicities_from_blocks(so6):
    """The invariant pieces are the eigenspaces, in increasing order of value."""
    layout, named = so6
    op = block_metric(layout, named, [1, 2, 3, 4, 5, 6])
    assert [(restrict_operator(op, s).scalar(), s.dim) for s in op.invariant_pieces] == \
        [(1, 1), (2, 1), (3, 1), (4, 4), (5, 4), (6, 4)]
    # blocks sharing a value make one piece
    merged = block_metric(layout, named, [2, 1, 2, 1, 2, 1])
    assert [(restrict_operator(merged, s).scalar(), s.dim) for s in merged.invariant_pieces] == \
        [(1, 9), (2, 6)]


def test_blocks_must_be_positive(so6):
    layout, named = so6
    with pytest.raises(arith.ContractViolation):
        block_metric(layout, named, [1, 2, 3, 4, 5, 0])


def test_operator_must_be_self_adjoint_and_positive(so6):
    layout, named = so6
    op = block_metric(layout, named, [1, 2, 3, 4, 5, 6])
    skewed = fractions(op.matrix)
    skewed[0, 1] += 1                        # Q is diagonal, so Q L is no longer symmetric
    with pytest.raises(arith.ContractViolation, match="self-adjoint"):
        MetricOperator(layout.algebra, skewed, op.block_spec)
    with pytest.raises(arith.ContractViolation, match="positive definite"):
        MetricOperator(layout.algebra, -op.matrix, op.block_spec)


def test_blocks_must_span(so6):
    layout, named = so6
    blocks = tuple((named[n], Fraction(1)) for n in PARAM_NAMES[:3])
    with pytest.raises(arith.ContractViolation):
        metric_from_blocks(layout.algebra, BlockSpec(blocks))


def test_blocks_must_be_orthogonal(so6):
    layout, named = so6
    tilted = Subspace(layout.algebra, named["k1"].basis + named["m1_2"].basis[:1])
    blocks = ((tilted, Fraction(1)),) + tuple((named[n], Fraction(1)) for n in PARAM_NAMES[1:])
    assert sum(space.dim for space, _ in blocks) == layout.algebra.dim
    with pytest.raises(arith.ContractViolation, match="blocks are not orthogonal for the form"):
        metric_from_blocks(layout.algebra, BlockSpec(blocks))


def test_blocks_must_not_overlap(so6):
    layout, named = so6
    blocks = tuple((named[n], Fraction(1)) for n in PARAM_NAMES) + ((named["k1"], Fraction(2)),)
    with pytest.raises(arith.ContractViolation):
        metric_from_blocks(layout.algebra, BlockSpec(blocks))


def test_metric_operator_invariants(so6):
    layout, named = so6
    op = block_metric(layout, named, [1, 2, 3, 4, 5, 6])
    g = layout.algebra
    h = op.metric_matrix
    assert is_zero(h - h.T)
    assert arith.is_positive_definite_exact(h)
    # metric inner product against Q(L., .) on sampled vectors
    x = g.basis_vector(3)
    y = g.basis_vector(7)
    assert metric_inner(op, x, y) == g.form().inner(op.apply(x), y)


def test_equivariance_over_defining_torus(so6):
    layout, named = so6
    op = block_metric(layout, named, [1, 2, 3, 4, 5, 6])
    assert equivariance_check(op, layout.subalgebra)
    full = Subspace.full(layout.algebra)
    result = equivariance_check(op, full)
    assert not result and result.witness_index is not None
    # cleared entries past int64: the commutators are taken on Python ints
    big = rescale(op, Fraction(3**40, 7))
    assert big.matrix.ints.dtype == object
    assert equivariance_check(big, full).witness_index == result.witness_index
    scalar = block_metric(layout, named, [2, 2, 2, 2, 2, 2])
    assert equivariance_check(scalar, full)


def test_isometry_subalgebra_branches(so6):
    layout, named = so6
    # all distinct: exactly the torus
    op = block_metric(layout, named, [1, 2, 3, 4, 5, 6])
    assert isometry_subalgebra(op).spans_equal(layout.subalgebra)
    # x1=x2=x4, x5=x6: contains the merged block so(4) + so(2)
    op2 = block_metric(layout, named, [2, 2, 7, 2, 3, 3])
    kp = isometry_subalgebra(op2)
    assert kp.dim == 7
    merged = embed_so_partition(layout.algebra, (4, 2))
    assert kp.spans_equal(merged.subalgebra)
    # all equal: everything
    op3 = block_metric(layout, named, [5, 5, 5, 5, 5, 5])
    assert isometry_subalgebra(op3).dim == 15


def test_isometry_subalgebra_is_shared_per_span():
    layout = embed_so_partition(6, (2, 2, 2))   # fresh algebra: nothing memoized
    named = layout.named_subspaces()
    kp = isometry_subalgebra(block_metric(layout, named, [2, 2, 7, 2, 3, 3]))
    assert isometry_subalgebra(block_metric(layout, named, [5, 5, 1, 5, 4, 4])) is kp
    # a different basis stored for the same span is an error, not a silent swap
    other = embed_so_partition(6, (2, 2, 2))
    op = block_metric(other, other.named_subspaces(), [2, 2, 7, 2, 3, 3])
    subspaces.shared_subspace(Subspace(other.algebra, kp.basis * 2), "isometry")
    with pytest.raises(arith.ExactComputationError, match="basis differs"):
        isometry_subalgebra(op)


def _set_partitions(items):
    """Every set partition of ``items``, as lists of parts."""
    if not items:
        yield []
        return
    for rest in _set_partitions(items[1:]):
        for i in range(len(rest)):
            yield rest[:i] + [[items[0]] + rest[i]] + rest[i + 1:]
        yield [[items[0]]] + rest


def _integers(x) -> np.ndarray:
    """A rational array times the lcm of its denominators, as Python ints."""
    x = fractions(x)
    scale = math.lcm(*(v.denominator for v in x.flat))
    return np.array([int(v * scale) for v in x.flat], dtype=object).reshape(x.shape)


def _count_solves(monkeypatch):
    calls = []
    solve = metrics.skewness_system
    monkeypatch.setattr(metrics, "skewness_system", lambda op: calls.append(1) or solve(op))
    return calls


def test_isometry_memo_is_the_solve_for_every_grouping(monkeypatch):
    """For each of the 203 groupings of the six blocks of so(6)/(2,2,2) by equal
    value, a second operator with other values in another order gets the first
    one's isometry subalgebra from the memo, and that is its own exact solve,
    also when rescaled past int64; each basis vector X satisfies
    ``ad_X^T H + H ad_X = 0`` on the Fraction structure tensor, scaled to integers."""
    layout = embed_so_partition(6, (2, 2, 2))   # fresh algebra: nothing memoized
    named, g = layout.named_subspaces(), layout.algebra
    dense, ads = tensor(g), {}
    partitions = list(_set_partitions(list(range(6))))
    assert len(partitions) == 203
    calls = _count_solves(monkeypatch)
    for parts in partitions:
        value = {b: p for p, part in enumerate(parts) for b in part}
        first = block_metric(layout, named, [value[b] + 1 for b in range(6)])
        other = block_metric(layout, named, [Fraction(2 * (len(parts) - value[b]) + 1, 3)
                                             for b in range(6)])
        kprime = first.isometry_subalgebra
        assert other.isometry_subalgebra is kprime
        for op in (other, rescale(other, Fraction(3**40, 7))):
            assert isometry_subalgebra(op) is kprime
            assert kprime.basis.equals(Subspace(g, arith.nullspace_exact(
                metrics.skewness_system(op)), check=False).basis)
        if kprime not in ads:           # ad_X for each basis vector X, scaled to integers
            ads[kprime] = _integers(np.tensordot(fractions(kprime.basis), dense, axes=1)
                                    .transpose(0, 2, 1))
        skew = np.matmul(_integers(other.metric_matrix), ads[kprime])
        assert not (skew + skew.transpose(0, 2, 1)).any()
    assert len(calls) == 203 + 2 * 203        # one memoized solve per grouping, and the references


def test_isometry_subalgebra_with_a_center_block_is_solved_every_time(monkeypatch):
    su3 = build_classical("su", 3)
    torus = Subspace.from_indices(su3, [i for i, lab in enumerate(su3.labels) if lab.startswith("D")])
    blocks = ((orthogonal_complement(torus), Fraction(5)),)
    calls = _count_solves(monkeypatch)
    kprimes = [metric_from_blocks(su3, BlockSpec(blocks, (torus, qarray([[2, 1], [1, 3]]))))
               .isometry_subalgebra for _ in range(3)]
    assert len(calls) == 3 and kprimes[1] is kprimes[0] and kprimes[2] is kprimes[0]


def test_so6_grid_sweep_solves_once_per_grouping(monkeypatch):
    spec = scenarios.ScenarioSpec(name="so6-grid", algebra={"family": "so", "n": 6},
                                  subgroup={"partition": [2, 2, 2]},
                                  metric={"grid": {"tuples": 36}}, checks=("sweep",),
                                  samples=24, seed=1)
    calls = _count_solves(monkeypatch)
    record, = scenarios.run_check(spec).records
    assert len(record["tuples"]) == 36 and len(calls) == 16


def test_block_checks_raise_after_a_valid_block_set_is_memoized():
    layout = embed_so_partition(6, (2, 2, 2))   # fresh algebra: nothing memoized
    named, g = layout.named_subspaces(), layout.algebra
    warm = block_metric(layout, named, [1, 2, 3, 4, 5, 6])
    hit = block_metric(layout, named, [7, 1, 2, 2, 9, 1])
    cold = embed_so_partition(6, (2, 2, 2))
    assert hit.matrix.equals(block_metric(cold, cold.named_subspaces(), [7, 1, 2, 2, 9, 1]).matrix)
    assert not hit.matrix.equals(warm.matrix)
    tilted = Subspace(g, named["k1"].basis + named["m1_2"].basis[:1])
    for _ in range(2):
        blocks = ((tilted, Fraction(1)),) + tuple((named[n], Fraction(1)) for n in PARAM_NAMES[1:])
        with pytest.raises(arith.ContractViolation, match="not orthogonal"):
            metric_from_blocks(g, BlockSpec(blocks))
        with pytest.raises(arith.ContractViolation, match="span dimension 14"):
            metric_from_blocks(g, BlockSpec(((tilted, Fraction(1)),) + blocks[2:]))
    assert sum(key[0] == "blocks" for key in g._memo) == 1


def test_isometry_subalgebra_contains_equivariant_skew_subalgebras(so6):
    layout, named = so6
    op = block_metric(layout, named, [2, 2, 7, 2, 3, 3])
    kp = isometry_subalgebra(op)
    assert kp.contains_space(layout.subalgebra)
    assert equivariance_check(op, kp)
    # eigenspaces of the operator are invariant under the isometry subalgebra
    for space in op.invariant_pieces:
        for i in range(kp.dim):
            image = fmatmul(kp.ad_matrices[i], space.basis.T)
            assert space.coords(image) is not None


def test_restrict_operator_and_invariance(so6):
    layout, named = so6
    op = block_metric(layout, named, [1, 2, 3, 4, 5, 6])
    k = layout.subalgebra
    assert invariant_subspace(op, k)
    block = restrict_operator(op, k)
    assert [block[i, i] for i in range(3)] == [1, 2, 3]
    with pytest.raises(arith.ContractViolation):
        restrict_operator(op, Subspace(layout.algebra,
                                       qarray([[1] + [0] * 13 + [1]])))


def _so4_ideal_scalars():
    """so(4) with the scalars 2 and 3 on its two simple ideals."""
    so4 = build_classical("so", 4)
    full = Subspace.full(so4)
    blocks = tuple(zip(ideal_decomposition(full).ideals, (Fraction(2), Fraction(3))))
    return metric_from_blocks(so4, BlockSpec(blocks)), full


def _so4_ideal_mixing():
    """so(4) with blocks coupling its two ideals (their bases are Q-orthogonal of
    equal norm): L = 2 on both, plus a[0] <-> b[0], so a[0] + b[0] has eigenvalue
    3 and a[0] - b[0] 1."""
    so4 = build_classical("so", 4)
    full = Subspace.full(so4)
    a, b = (fractions(ideal.basis) for ideal in ideal_decomposition(full).ideals)
    blocks = ((Subspace(so4, qarray([a[0] + b[0]])), Fraction(3)),
              (Subspace(so4, qarray([a[0] - b[0]])), Fraction(1)),
              (Subspace(so4, qarray([a[1], a[2], b[1], b[2]])), Fraction(2)))
    return metric_from_blocks(so4, BlockSpec(blocks)), full


def test_bi_invariance_on_so4():
    op, full = _so4_ideal_scalars()
    assert bi_invariance_check(op, full)
    ideals = ideal_decomposition(full).ideals
    assert sorted(restrict_operator(op, ideal).scalar() for ideal in ideals) == [2, 3]
    # identity restriction is bi-invariant
    one = metric_from_blocks(op.algebra, BlockSpec(((full, Fraction(1)),)))
    assert bi_invariance_check(one, full)


def test_bi_invariance_fails_for_ideal_mixing():
    op, full = _so4_ideal_mixing()
    a, b = (fractions(ideal.basis) for ideal in ideal_decomposition(full).ideals)
    assert is_zero(fmatmul(op.matrix, a[0]) - (2 * a[0] + b[0]))
    assert not bi_invariance_check(op, full)


def _so7_non_scalar_center_block():
    """so(2) + so(2) + so(3) in so(7): a free block [[2, 1], [1, 3]] on its center."""
    layout = embed_so_partition(7, (2, 2, 3))
    named = layout.named_subspaces()
    center = named["k1"].add(named["k2"])
    blocks = tuple((named[n], Fraction(v)) for n, v in
                   (("k3", 5), ("m1_2", 1), ("m1_3", 2), ("m2_3", 3)))
    spec = BlockSpec(blocks, (center, qarray([[2, 1], [1, 3]])))
    return metric_from_blocks(layout.algebra, spec), layout.subalgebra


def _so5_center_mixed_into_ideal():
    """so(2) + so(3) in so(5) with L coupling the so(2) generator c to an so(3) vector a."""
    layout = embed_so_partition(5, (2, 3))
    named = layout.named_subspaces()
    c, = fractions(named["k1"].basis)
    a = fractions(named["k2"].basis)
    g = layout.algebra
    blocks = ((Subspace(g, qarray([c + a[0]])), Fraction(3)),
              (Subspace(g, qarray([c - a[0]])), Fraction(1)),
              (Subspace(g, qarray(a[1:])), Fraction(2)), (named["m1_2"], Fraction(5)))
    return metric_from_blocks(g, BlockSpec(blocks)), layout.subalgebra


@pytest.mark.parametrize("build, expected", [
    (_so4_ideal_scalars, True),
    (_so4_ideal_mixing, False),
    (_so7_non_scalar_center_block, True),
    (_so5_center_mixed_into_ideal, False),
], ids=["so4-ideal-scalars", "so4-ideal-mixing", "non-scalar-center-block",
        "center-mixed-into-an-ideal"])
def test_bi_invariance_agrees_with_the_block_form(build, expected):
    """Commuting with ad(k) on k is the block form: a preserved center and a
    scalar on each preserved simple ideal."""
    op, k = build()
    assert invariant_subspace(op, k)
    assert bi_invariance_check(op, k) == bi_invariant_by_blocks(op, k) == expected


# -- normal form recognition -----------------------------------------------------

def test_dazi_scalar_is_bi_invariant(so6):
    layout, named = so6
    op = block_metric(layout, named, [4, 4, 4, 4, 4, 4])
    report = dazi_structure_check(op)
    assert report.verdict and "bi-invariant" in report.reason


def test_dazi_branch_table(so6):
    layout, named = so6
    # distinct parameters: not naturally reductive
    assert not dazi_structure_check(block_metric(layout, named, [1, 2, 3, 4, 5, 6]))
    # merged branch: k' = so(4) + so(2), scalars (a, a), complement scalar lam
    report = dazi_structure_check(block_metric(layout, named, [2, 2, 7, 2, 3, 3]))
    assert report.verdict
    assert report.isometry_subalgebra.dim == 7
    assert report.decomposition.center.dim == 1
    assert sorted(report.ideal_scalars) == [2, 2]
    assert report.complement_scalar == 3
    # center-flexible branch: torus block arbitrary, single complement scalar
    report2 = dazi_structure_check(block_metric(layout, named, [1, 2, 3, 4, 4, 4]))
    assert report2.verdict
    assert report2.isometry_subalgebra.dim == 3
    assert report2.complement_scalar == 4


def test_dazi_scaling_invariance(so6):
    layout, named = so6
    for params in ([1, 2, 3, 4, 5, 6], [2, 2, 7, 2, 3, 3]):
        op = block_metric(layout, named, params)
        scaled = rescale(op, Fraction(7, 3))
        assert dazi_structure_check(op).verdict == dazi_structure_check(scaled).verdict


def test_dazi_requires_simple_ambient():
    so4 = build_classical("so", 4)  # not simple
    op = metric_from_blocks(so4, BlockSpec(((Subspace.full(so4), Fraction(1)),)))
    with pytest.raises(arith.ContractViolation):
        dazi_structure_check(op)


def test_center_block_inner_product_convention():
    """A free center block is an inner product; the operator block follows
    from the center's Gram matrix and stays self-adjoint."""
    su3 = build_classical("su", 3)
    idx = [i for i, lab in enumerate(su3.labels) if lab.startswith("D")]
    torus = Subspace.from_indices(su3, idx)
    from goverify import reps
    m = orthogonal_complement(torus)
    pieces = reps.isotypic_decomposition(torus, m).components
    inner = qarray([[2, 1], [1, 3]])
    spec = BlockSpec(tuple((p, Fraction(5)) for p in pieces), (torus, inner))
    op = metric_from_blocks(su3, spec)
    block = restrict_operator(op, torus)
    gram = torus.gram
    assert is_zero(fmatmul(gram, block) - inner)
