"""Geodesic-orbit machinery: witness solves, verdicts, certificates,
the trilinear condition, normalizer equivariance, and splitting."""

import random
from fractions import Fraction

import numpy as np
import pytest

from goverify import arith, go, metrics, reps
from goverify.arith import is_zero, q, qarray
from goverify.go import (GoCertificate, SamplingStrategy, Unsolvable, go_solve_at, go_verdict,
                         natred_condition_check, normalizer_equivariance_check,
                         replay_certificates, replay_counterexample, split_check)
from goverify.lie import build_classical, direct_sum, embed_so_partition, attach_form
from goverify.metrics import BlockSpec, isometry_subalgebra, metric_from_blocks
from goverify.scenarios import ScenarioSpec, run_check
from goverify.subspaces import Subspace, ideal_decomposition, orthogonal_complement, projector
from oracles import (fbracket, fmatmul, fractions, geodesic_lemma_solvable,
                     go_verdict_by_direction, metric_inner, replay_certificate, rescale,
                     sampled_directions, stacked, two_step_identity_check)

PARAM_NAMES = ["k1", "k2", "k3", "m1_2", "m1_3", "m2_3"]
STRATEGY = SamplingStrategy(seed=11, random_count=16)


@pytest.fixture(scope="module")
def so6():
    layout = embed_so_partition(6, (2, 2, 2))
    return layout, layout.named_subspaces()


def block_metric(layout, named, params):
    blocks = tuple((named[n], Fraction(p)) for n, p in zip(PARAM_NAMES, params))
    return metric_from_blocks(layout.algebra, BlockSpec(blocks))


def test_scalar_metric_zero_witness(so6):
    layout, named = so6
    op = block_metric(layout, named, [2] * 6)
    k = layout.subalgebra
    for i in range(layout.algebra.dim):
        result = go_solve_at(op, k, layout.algebra.basis_vector(i))
        assert isinstance(result, GoCertificate)
        assert is_zero(result.witness)


def test_solvable_along_dazi_form_every_sample(so6):
    """Normal-form metrics admit witnesses at every sampled direction,
    relative to their own defining subalgebra."""
    layout, named = so6
    op = block_metric(layout, named, [2, 2, 7, 2, 3, 3])
    merged = embed_so_partition(layout.algebra, (4, 2)).subalgebra
    verdict = go_verdict(op, merged, STRATEGY, keep_certificates=True)
    assert not verdict.disproved
    assert replay_certificates(op, stacked(verdict.certificates), merged) == \
        [replay_certificate(op, c, merged) for c in verdict.certificates] == \
        [True] * len(verdict.certificates)


def test_unsolvable_direction_two_block_sum(so6):
    """Generic sums across two coupling blocks with distinct eigenvalues defeat
    the witness system for the distinct-parameter metric."""
    layout, named = so6
    op = block_metric(layout, named, [1, 2, 3, 4, 5, 6])
    k = layout.subalgebra
    rng = random.Random(3)
    v4 = layout.offdiag_blocks[(1, 2)].random_element(rng)
    v5 = layout.offdiag_blocks[(1, 3)].random_element(rng)
    result = go_solve_at(op, k, v4 + v5)
    assert isinstance(result, Unsolvable)
    assert result.rank_a < result.rank_ab
    assert replay_counterexample(op, k, result)


def test_witness_minimal_norm_deterministic(so6):
    layout, named = so6
    op = block_metric(layout, named, [2, 2, 7, 2, 3, 3])
    merged = embed_so_partition(layout.algebra, (4, 2)).subalgebra
    rng = random.Random(9)
    x = Subspace.full(layout.algebra).random_element(rng)
    first = go_solve_at(op, merged, x)
    second = go_solve_at(op, merged, x)
    assert isinstance(first, GoCertificate)
    assert is_zero(first.witness - second.witness)


def test_equivariance_precondition_enforced(so6):
    layout, named = so6
    op = block_metric(layout, named, [1, 2, 3, 4, 5, 6])
    full = Subspace.full(layout.algebra)
    with pytest.raises(arith.ContractViolation):
        go_solve_at(op, full, layout.algebra.basis_vector(0))


def test_go_verdict_disproved_and_replay(so6):
    layout, named = so6
    op = block_metric(layout, named, [1, 2, 3, 4, 5, 6])
    verdict = go_verdict(op, layout.subalgebra, STRATEGY)
    assert verdict.disproved
    assert verdict.counterexample_label.startswith("pair:")
    assert replay_counterexample(op, layout.subalgebra, verdict.counterexample)


def test_eigenspace_pair_completeness(so6):
    """Whenever some direction disproves, a two-piece sum already does."""
    layout, named = so6
    for params in ([1, 2, 3, 4, 5, 6], [2, 2, 7, 2, 3, 4], [1, 1, 1, 2, 3, 4]):
        op = block_metric(layout, named, params)
        kp = isometry_subalgebra(op)
        full = go_verdict(op, kp, STRATEGY)
        pairs_only = go_verdict(op, kp, SamplingStrategy(seed=11, random_count=0,
                                                         basis_vectors=False))
        assert full.disproved == pairs_only.disproved


def _fields(verdict):
    """Every field of a verdict, with exact vectors as their shape and Fraction entries."""
    def vec(v):
        return v.shape, list(v)
    cex = verdict.counterexample
    return (verdict.kind, verdict.samples, verdict.strategy, verdict.counterexample_label,
            None if cex is None else (vec(cex.direction), cex.rank_a, cex.rank_ab),
            [(vec(c.direction), vec(c.witness)) for c in verdict.certificates])


def _verdict_case(so6, name):
    """Arguments of ``go_verdict`` for one named case."""
    layout, named = so6
    k = layout.subalgebra
    merged = embed_so_partition(layout.algebra, (4, 2)).subalgebra
    full = Subspace.full(layout.algebra)
    distinct = block_metric(layout, named, [1, 2, 3, 4, 5, 6])
    dazi = block_metric(layout, named, [2, 2, 7, 2, 3, 3])
    scalar = block_metric(layout, named, [2] * 6)
    return {
        "disproved": (distinct, k, STRATEGY, None, False),
        "solved-with-certificates": (dazi, merged, STRATEGY, None, True),
        "coset-sweep": (dazi, k, STRATEGY, orthogonal_complement(k), True),
        "python-ints": (rescale(distinct, Fraction(3**40, 7)), k, STRATEGY, None, False),
        "zero-dimensional-within": (scalar, full, STRATEGY, orthogonal_complement(full), True),
        "no-samples": (dazi, merged, SamplingStrategy(basis_vectors=False, structured=False,
                                                      random_count=0), None, True),
        "reconstruction-fails": (distinct, k, STRATEGY, None, False),
        "reconstruction-fails-with-certificates": (dazi, merged, STRATEGY, None, True),
    }[name]


@pytest.mark.parametrize("name", ["disproved", "solved-with-certificates", "coset-sweep",
                                  "python-ints", "zero-dimensional-within", "no-samples",
                                  "reconstruction-fails",
                                  "reconstruction-fails-with-certificates"])
def test_batched_verdict_equals_per_direction_oracle(so6, name, monkeypatch):
    """The batched screen gives the verdict of one exact solve per direction:
    kind, samples, counterexample and every certificate.  With rational
    reconstruction failing, the stacked solve lifts nothing and every moving
    direction falls back to its exact solve."""
    op, k, strategy, within, keep = _verdict_case(so6, name)
    if name.startswith("reconstruction-fails"):
        monkeypatch.setattr(arith, "_rational_reconstruct", lambda a, modulus=arith._P: None)
    got = go_verdict(op, k, strategy, within=within, keep_certificates=keep)
    expected = go_verdict_by_direction(op, k, strategy, within=within, keep_certificates=keep)
    assert _fields(got) == _fields(expected)
    if name == "disproved":
        assert got.disproved and got.counterexample_label.startswith("pair:")
    if name == "solved-with-certificates":
        assert not got.disproved and len(got.certificates) == got.samples > 0
    if name == "python-ints":
        assert op.matrix.ints.dtype == object and got.disproved
    if name == "zero-dimensional-within":
        assert len(got.certificates) == got.samples == STRATEGY.random_count
    if name == "no-samples":
        assert got.samples == 0 and not got.disproved


@pytest.mark.parametrize("name", ["disproved", "coset-sweep", "zero-dimensional-within"])
def test_sampled_directions_are_the_randint_oracle(so6, name):
    """The stacked directions of a verdict (basis rows, pair sums drawn as one
    product over the stacked piece bases, random elements) are the oracle's,
    whose coefficients are CPython's ``randint(-9, 9)`` draws."""
    op, _, strategy, within, _ = _verdict_case(so6, name)
    labels, directions = go._directions(op, strategy, within)
    expected = sampled_directions(op, strategy, within)
    assert labels == [label for label, _ in expected]
    assert any(label.startswith("pair:") for label in labels) == (name != "zero-dimensional-within")
    assert directions.tolist() == [list(fractions(x)) for _, x in expected]


def test_go_solve_at_runs_only_for_directions_that_move(so6, monkeypatch):
    """A direction with [L X, X] != 0 goes to the stacked witness solve, with
    or without kept certificates, and never reaches go_solve_at: the stacked
    solve decides every system, by Bareiss where its lift fails.  The kept
    certificates are the per-direction go_solve_at results, and the one exact
    (Bareiss) solve of a disproved verdict is its counterexample's."""
    layout, named = so6
    dazi = block_metric(layout, named, [2, 2, 7, 2, 3, 3])
    distinct = block_metric(layout, named, [1, 2, 3, 4, 5, 6])
    merged = embed_so_partition(layout.algebra, (4, 2)).subalgebra
    moving = sum(1 for _, x in sampled_directions(dazi, STRATEGY)
                 if not is_zero(fbracket(layout.algebra, fmatmul(dazi.matrix, x), x)))
    expected = go_verdict_by_direction(dazi, merged, STRATEGY, keep_certificates=True)
    reference = go_verdict_by_direction(distinct, layout.subalgebra, STRATEGY)
    calls, exact = [], []
    solve, solve_int = go.go_solve_at, arith.solve_int

    def counting_solve(*args, **kwargs):
        calls.append(args[2])
        return solve(*args, **kwargs)

    def counting_exact(aug):
        exact.append(aug)
        return solve_int(aug)

    monkeypatch.setattr(go, "go_solve_at", counting_solve)
    monkeypatch.setattr(arith, "solve_int", counting_exact)
    verdict = go_verdict(dazi, merged, STRATEGY, keep_certificates=True)
    assert not verdict.disproved and 0 < moving < verdict.samples
    assert calls == [] and exact == []
    assert len(verdict.certificates) == len(expected.certificates) == verdict.samples
    for got, want in zip(verdict.certificates, expected.certificates):
        assert got.direction.equals(want.direction) and got.witness.equals(want.witness)

    assert not go_verdict(dazi, merged, STRATEGY).disproved
    assert calls == [] and exact == []

    verdict = go_verdict(distinct, layout.subalgebra, STRATEGY)
    assert verdict.disproved and calls == [] and len(exact) == 1
    assert (verdict.samples, verdict.counterexample_label) == (reference.samples,
                                                               reference.counterexample_label)
    assert verdict.counterexample.direction.equals(reference.counterexample.direction)
    assert (verdict.counterexample.rank_a, verdict.counterexample.rank_ab) == \
        (reference.counterexample.rank_a, reference.counterexample.rank_ab)

    # no lift reconstructs: every moving direction up to the first failing one
    # gets its Bareiss solve inside the stacked solve, still no go_solve_at
    monkeypatch.setattr(arith, "_rational_reconstruct", lambda a, modulus=arith._P: None)
    exact.clear()
    assert _fields(go_verdict(dazi, merged, STRATEGY, keep_certificates=True)) == _fields(expected)
    assert calls == [] and len(exact) == moving
    exact.clear()
    assert _fields(go_verdict(distinct, layout.subalgebra, STRATEGY)) == _fields(reference)
    tried = sampled_directions(distinct, STRATEGY)[:reference.samples]
    assert calls == [] and len(exact) == sum(
        1 for _, x in tried if not is_zero(fbracket(layout.algebra, fmatmul(distinct.matrix, x), x)))


# -- trilinear condition -----------------------------------------------------------

def test_natred_scalar_metric_any_reductive_complement(so6):
    layout, named = so6
    op = block_metric(layout, named, [3] * 6)
    k = layout.subalgebra
    m = orthogonal_complement(k)
    assert natred_condition_check(op, k, m)


def test_natred_dazi_form_true_for_defining_subalgebra(so6):
    layout, named = so6
    op = block_metric(layout, named, [2, 2, 7, 2, 3, 3])
    merged = embed_so_partition(layout.algebra, (4, 2)).subalgebra
    m = orthogonal_complement(merged)
    assert natred_condition_check(op, merged, m)


def test_natred_fails_with_witness_triple(so6):
    layout, named = so6
    op = block_metric(layout, named, [1, 2, 3, 4, 5, 6])
    k = layout.subalgebra
    m = orthogonal_complement(k)
    result = natred_condition_check(op, k, m)
    assert not result and result.witness_triple is not None
    # the witness value is metric([v_a, v_c]_m, v_b) + metric([v_b, v_c]_m, v_a)
    a, b, c = (m.basis[i] for i in result.witness_triple)
    proj = np.asarray(projector(m))
    g = layout.algebra
    expected = metric_inner(op, np.dot(proj, np.asarray(g.bracket(a, c))), b) + \
        metric_inner(op, np.dot(proj, np.asarray(g.bracket(b, c))), a)
    assert expected != 0 and result.witness_value == expected
    scaled = natred_condition_check(rescale(op, Fraction(5, 3)), k, m)
    assert scaled.witness_triple == result.witness_triple
    assert scaled.witness_value == expected * Fraction(5, 3)
    halved = natred_condition_check(op, k, Subspace(layout.algebra, m.basis * Fraction(1, 2)))
    assert halved.witness_triple == result.witness_triple
    assert halved.witness_value == expected / 8


def test_natred_requires_reductive_complement(so6):
    layout, named = so6
    op = block_metric(layout, named, [3] * 6)
    k = layout.subalgebra
    bad = Subspace.from_indices(layout.algebra, list(range(3, 15)))
    # replace a complement direction so [k, m] escapes
    with pytest.raises(arith.ContractViolation):
        natred_condition_check(op, layout.offdiag_blocks[(1, 2)], bad)


# -- normalizer equivariance and the two-step identity ------------------------------

def test_normalizer_equivariance_self_normalizing(so6):
    layout, named = so6
    op = block_metric(layout, named, [2, 2, 7, 2, 3, 3])
    report = normalizer_equivariance_check(op, layout.subalgebra)
    assert report.ok
    assert report.flags.self_normalizing and not report.flags.semisimple
    assert report.normalizer_dim == 3


def test_normalizer_equivariance_contrapositive():
    """A metric equivariant over one so(3) ideal of so(4) inside a product
    algebra, but not over its normalizer, is disproved by the witness sweep."""
    g = direct_sum([build_classical("so", 4), build_classical("so", 3)])
    attach_form(g, -g.killing.matrix)
    from goverify.subspaces import ideal_decomposition
    so4_block = Subspace.from_indices(g, range(6))
    dec = ideal_decomposition(so4_block)
    k = dec.ideals[0]
    other = dec.ideals[1]
    tail = Subspace.from_indices(g, range(6, 9))
    blocks = ((k, Fraction(1)), (other, Fraction(2)), (tail, Fraction(3)))
    op = metric_from_blocks(g, BlockSpec(blocks))
    assert metrics.equivariance_check(op, k)
    report = normalizer_equivariance_check(op, k)
    assert report.flags.semisimple
    # normalizer of one ideal contains the other; scalar blocks keep it equivariant
    assert report.ok
    # now mix the OTHER ideal's block so normalizer-equivariance fails
    mix = qarray([[2, 0, 0], [0, 2, 1], [0, 1, 2]])
    spec = BlockSpec(((k, Fraction(1)), (tail, Fraction(3))), (other, mix))
    op2 = metric_from_blocks(g, spec)
    assert metrics.equivariance_check(op2, k)
    report2 = normalizer_equivariance_check(op2, k)
    assert not report2.ok
    verdict = go_verdict(op2, k, STRATEGY)
    assert verdict.disproved


def test_two_step_identity(so6):
    layout, named = so6
    g = layout.algebra
    # W = 0 reduces both expressions to [Z, LZ]: zero for a scalar operator
    op = block_metric(layout, named, [2] * 6)
    rng = random.Random(1)
    z = Subspace.full(g).random_element(rng)
    assert two_step_identity_check(op, layout.subalgebra, z, qarray([0] * 15))
    # commuting pair: both expressions vanish (bi-invariant case)
    w = layout.subalgebra.basis[0]
    z_comm = w * q(3)
    assert two_step_identity_check(op, layout.subalgebra, z_comm, w)
    # non-commuting pair: both expressions are nonzero together, never split
    w2 = layout.subalgebra.random_element(rng)
    z2 = Subspace.full(g).random_element(rng)
    two_step_identity_check(op, layout.subalgebra, z2, w2)  # must not raise
    # replayed witness from the solver satisfies the identity with X = Z - W
    op2 = block_metric(layout, named, [2, 2, 7, 2, 3, 3])
    merged = embed_so_partition(g, (4, 2)).subalgebra
    x = Subspace.full(g).random_element(rng)
    cert = go_solve_at(op2, merged, x)
    assert isinstance(cert, GoCertificate)
    assert two_step_identity_check(op2, merged, x + cert.witness, cert.witness)


def test_geodesic_lemma_route_agrees_with_witness_route(so6):
    """Projected and unprojected formulations agree on sampled directions."""
    layout, named = so6
    g = layout.algebra
    rng = random.Random(23)
    for params, k in ((([2, 2, 7, 2, 3, 3]), embed_so_partition(g, (4, 2)).subalgebra),
                      (([1, 2, 3, 4, 5, 6]), layout.subalgebra)):
        op = block_metric(layout, named, params)
        m = orthogonal_complement(k)
        for _ in range(6):
            x = m.random_element(rng)
            strict = isinstance(go_solve_at(op, k, x), GoCertificate)
            projected = geodesic_lemma_solvable(op, k, m, x)
            assert strict == projected


# -- splitting -----------------------------------------------------------------------

def _su3_torus():
    su3 = build_classical("su", 3)
    return Subspace.from_indices(su3, [i for i, lab in enumerate(su3.labels) if lab.startswith("D")])


@pytest.mark.parametrize("build, semisimple", [
    (lambda: embed_so_partition(9, (3, 3, 3)).subalgebra, True),
    (lambda: embed_so_partition(8, (2, 3, 3)).subalgebra, False),
    (_su3_torus, False),
    (lambda: Subspace.full(build_classical("so", 8)), True),
], ids=["so3-cubed-in-so9", "so2-so3-so3-in-so8", "su3-torus", "so8"])
def test_semisimple_flag_is_a_zero_center(build, semisimple):
    k = build()
    assert go.hypothesis_flags(k).semisimple == (ideal_decomposition(k).center.dim == 0) == semisimple


def _split_record(n, partition, params):
    """The ``split`` record of ``run_check`` on so(n) over a partition subgroup."""
    spec = ScenarioSpec(name="split", algebra={"family": "so", "n": n},
                        subgroup={"partition": list(partition)},
                        metric={"params": [str(p) for p in params]}, checks=("split",),
                        samples=STRATEGY.random_count, seed=STRATEGY.seed)
    record, = run_check(spec).records
    return record


def test_split_bi_invariant(so6):
    layout, named = so6
    op = block_metric(layout, named, [2] * 6)
    report = split_check(op, layout.subalgebra, STRATEGY)
    assert report.ok and report.bi_invariant_on_subalgebra
    record = _split_record(6, (2, 2, 2), [2] * 6)
    assert record["verdict"] and record["hypotheses_met"] and not record["exploratory"]


def test_split_dazi_branch_with_respect_to_isometry(so6):
    layout, named = so6
    op = block_metric(layout, named, [2, 2, 7, 2, 3, 3])
    kp = isometry_subalgebra(op)
    report = split_check(op, kp, STRATEGY)
    assert report.ok
    assert report.coset_verdict and not report.coset_verdict.disproved
    # k' is so(4) + so(2), the partition (4, 2) subgroup, and the metric is the
    # (4, 2) block metric with k1 = 2, k2 = 7 and m1_2 = 3
    assert kp.spans_equal(embed_so_partition(layout.algebra, (4, 2)).subalgebra)
    record = _split_record(6, (4, 2), [2, 7, 3])
    assert record["verdict"] and record["coset_verdict"] == "NotDisproved"
    assert record["weakly_regular"] and record["hypotheses_met"]


def test_split_reports_only_for_disproved(so6):
    layout, named = so6
    op = block_metric(layout, named, [1, 2, 3, 4, 5, 6])
    report = split_check(op, layout.subalgebra, STRATEGY)
    assert not report.ok
    assert report.coset_verdict.disproved
    assert report.bi_invariant_on_subalgebra  # the torus block itself is fine


def test_go_verdict_on_python_ints_matches_int64(so6, monkeypatch):
    """A metric scaled past int64 runs the direction loop on Python ints and
    reaches the same counterexample as the unscaled one."""
    layout, named = so6
    op = block_metric(layout, named, [1, 2, 3, 4, 5, 6])
    big = rescale(op, Fraction(3**40, 7))
    assert big.matrix.ints.dtype == object
    plain = go_verdict(op, layout.subalgebra, STRATEGY)
    dtypes = []
    product = arith.Scaled.__matmul__

    def recording_matmul(a, b):
        dtypes.append(a.ints.dtype)
        return product(a, b)

    monkeypatch.setattr(arith.Scaled, "__matmul__", recording_matmul)
    scaled = go_verdict(big, layout.subalgebra, STRATEGY)
    assert object in dtypes
    assert plain.disproved and scaled.disproved
    assert scaled.samples == plain.samples
    assert scaled.counterexample_label == plain.counterexample_label
    assert (scaled.counterexample.rank_a, scaled.counterexample.rank_ab) == \
        (plain.counterexample.rank_a, plain.counterexample.rank_ab)
    assert list(scaled.counterexample.direction) == list(plain.counterexample.direction)
    assert replay_counterexample(big, layout.subalgebra, scaled.counterexample)


def test_witnesses_on_python_ints_match_int64(so6):
    layout, named = so6
    op = block_metric(layout, named, [2, 2, 7, 2, 3, 3])
    merged = embed_so_partition(layout.algebra, (4, 2)).subalgebra
    plain = go_verdict(op, merged, STRATEGY, keep_certificates=True)
    big = rescale(op, Fraction(3**40, 7))
    scaled = go_verdict(big, merged, STRATEGY, keep_certificates=True)
    assert not scaled.disproved and scaled.samples == plain.samples
    for mine, ref in zip(scaled.certificates, plain.certificates):
        assert list(mine.witness) == list(ref.witness)
        assert replay_certificate(big, mine, merged)
    assert all(replay_certificates(big, stacked(scaled.certificates), merged))


def test_direction_loop_metric_build_and_isotypic_split_build_no_fraction_array(monkeypatch):
    """Fractions stay at the edges: with the Fraction view of ``Scaled`` and
    ``arith.from_ints`` raising, the so(6)/(2,2,2) metric build, both kinds of
    direction loop and the isotypic decomposition still run on a fresh algebra."""
    layout = embed_so_partition(6, (2, 2, 2))   # fresh algebra: nothing memoized
    named = layout.named_subspaces()
    g = layout.algebra
    m = orthogonal_complement(layout.subalgebra)
    merged = embed_so_partition(g, (4, 2)).subalgebra

    def forbidden(*args, **kwargs):
        raise AssertionError("a Fraction array was built")

    monkeypatch.setattr(arith, "from_ints", forbidden)
    monkeypatch.setattr(arith.Scaled, "fractions", forbidden)
    with pytest.raises(AssertionError, match="Fraction array"):
        np.asarray(g.basis_vector(0))
    disproved = go_verdict(block_metric(layout, named, [1, 2, 3, 4, 5, 6]), layout.subalgebra, STRATEGY)
    solved = go_verdict(block_metric(layout, named, [2, 2, 7, 2, 3, 3]), merged, STRATEGY,
                        keep_certificates=True)
    assert disproved.disproved and not solved.disproved and len(solved.certificates) == solved.samples
    dec = reps.isotypic_decomposition(layout.subalgebra, m)
    assert [c.dim for c in dec.components] == [2] * 6
