"""Acceptance suite: one test per acceptance criterion, printed pass lines.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every criterion is
checked at its stated tolerance (exact arithmetic unless noted) and within
its stated time budget.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from goverify import arith, go, metrics, reps, scenarios
from goverify.arith import q
from goverify.lie import build_classical, embed_so_partition
from goverify.metrics import BlockSpec, isometry_subalgebra, metric_from_blocks
from goverify.scenarios import ScenarioSpec, replay_report, run_check
from goverify.subspaces import ideal_decomposition, is_regular, orthogonal_complement
from oracles import stacked

SWEEP_TUPLES = 200
SWEEP_SAMPLES = 24


def _announce(number, budget, elapsed, detail):
    print(f"\nCRITERION {number}: PASS in {elapsed:.1f}s (budget {budget}) -- {detail}")


@pytest.fixture(scope="session")
def sweeps():
    """The three 200-tuple equivalence sweeps, shared by criteria 5-7."""
    out = {}
    for n, partition in ((6, (2, 2, 2)), (7, (2, 2, 3)), (8, (2, 3, 3))):
        spec = ScenarioSpec(
            name=f"acceptance-sweep-so{n}",
            algebra={"family": "so", "n": n},
            subgroup={"partition": list(partition)},
            metric={"grid": {"tuples": SWEEP_TUPLES}},
            checks=("sweep",), samples=SWEEP_SAMPLES, seed=2024)
        start = time.time()
        report = run_check(spec)
        elapsed = time.time() - start
        record = next(r for r in report.records if r["name"] == "sweep")
        out[n] = {"record": record, "elapsed": elapsed, "report": report,
                  "partition": partition}
    return out


def test_criterion_1_algebra_validity():
    """Antisymmetry, Jacobi and Killing ad-invariance, exact, desk scale."""
    start = time.time()
    checked = 0
    for family, sizes in (("so", range(2, 11)), ("su", range(2, 6)), ("sp", range(1, 5))):
        for n in sizes:
            algebra = build_classical(family, n)   # builder validates exactly
            assert algebra.killing.is_ad_invariant(algebra)
            checked += 1
    elapsed = time.time() - start
    assert elapsed <= 30.0
    _announce(1, "30s", elapsed, f"{checked} classical algebras validated exactly")


def test_criterion_2_killing_constants():
    """Q(A_ij, A_ij) = 2(n-2) on so(n), against an independent trace oracle."""
    start = time.time()
    for n in range(3, 11):
        algebra = build_classical("so", n)
        d = algebra.dim
        ads = np.empty((d, d, d), dtype=object)
        for i in range(d):
            ads[i] = algebra.ad(algebra.basis_vector(i))
        ints, scale = arith.clear_denominators(ads)
        oracle = np.einsum("ikl,jlk->ij", ints, ints)   # tr(ad_i ad_j), summed directly
        expected = q(2 * (n - 2)) * scale * scale
        for i in range(d):
            assert oracle[i, i] == -expected
            assert -algebra.killing.matrix[i, i] == q(2 * (n - 2))
            for j in range(i + 1, d):
                assert oracle[i, j] == 0 and algebra.killing.matrix[i, j] == 0
    elapsed = time.time() - start
    _announce(2, "none stated", elapsed, "Q(A_ij, A_ij) = 2(n-2), n = 3..10, exact")


def test_criterion_3_regularity_suite():
    start = time.time()
    so6 = embed_so_partition(6, (2, 2, 2))
    rep6 = is_regular(so6.subalgebra)
    assert rep6.regular and rep6.maximal_rank
    so9 = embed_so_partition(9, (3, 3, 3))
    rep9 = is_regular(so9.subalgebra)
    assert not rep9.regular
    weak9 = reps.is_weakly_regular(so9.subalgebra)
    assert weak9.weakly_regular
    assert weak9.dim_centralizer_in_complement == 0   # self-normalizing
    elapsed = time.time() - start
    assert elapsed <= 10.0
    _announce(3, "10s", elapsed,
              "so(6)>so(2)^3 regular; so(9)>so(3)^3 not regular, weakly regular, "
              "self-normalizing")


def _dazi_cases():
    """(algebra, defining subalgebra, blocks builder) for the three subgroups."""
    out = []
    layout6 = embed_so_partition(6, (2, 2, 2))
    named6 = layout6.named_subspaces()

    def torus_blocks(params):
        x1, x2, x3, lam = params
        return layout6.algebra, layout6.subalgebra, (
            (named6["k1"], x1), (named6["k2"], x2), (named6["k3"], x3),
            (named6["m"], lam))
    out.append((torus_blocks, 4))

    layout42 = embed_so_partition(layout6.algebra, (4, 2))
    dec42 = ideal_decomposition(layout42.factor_subspaces[0])

    def so4so2_blocks(params):
        l1, l2, z, lam = params
        return layout6.algebra, layout42.subalgebra, (
            (dec42.ideals[0], l1), (dec42.ideals[1], l2),
            (layout42.factor_subspaces[1], z), (layout42.complement, lam))
    out.append((so4so2_blocks, 4))

    layout43 = embed_so_partition(7, (4, 3))
    dec43 = ideal_decomposition(layout43.factor_subspaces[0])

    def so4so3_blocks(params):
        l1, l2, l3, lam = params
        return layout43.algebra, layout43.subalgebra, (
            (dec43.ideals[0], l1), (dec43.ideals[1], l2),
            (layout43.factor_subspaces[1], l3), (layout43.complement, lam))
    out.append((so4so3_blocks, 4))
    return out


def test_criterion_4_naturally_reductive_implies_go():
    """50 seeded normal-form metrics: trilinear condition true and witness
    sweep NotDisproved with replayable certificates."""
    start = time.time()
    cases = _dazi_cases()
    total = 0
    index = 0
    while total < 50:
        builder, nparams = cases[index % len(cases)]
        rng = random.Random(f"dazi-metric:{index}")
        params = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(nparams)]
        algebra, subalgebra, blocks = builder(params)
        operator = metric_from_blocks(algebra, BlockSpec(tuple(blocks)))
        complement = orthogonal_complement(subalgebra)
        assert go.natred_condition_check(operator, subalgebra, complement)
        verdict = go.go_verdict(operator, subalgebra,
                                go.SamplingStrategy(seed=index, random_count=12),
                                keep_certificates=True)
        assert not verdict.disproved
        assert verdict.certificates, "certificates must be kept"
        assert all(go.replay_certificates(operator, stacked(verdict.certificates), subalgebra))
        total += 1
        index += 1
    elapsed = time.time() - start
    assert elapsed <= 120.0
    _announce(4, "2min", elapsed,
              f"{total} normal-form metrics: natred true, NotDisproved, certificates replay")


def test_criterion_5_main_equivalence_sweep(sweeps):
    """Witness sweep agrees with normal-form recognition on every tuple."""
    for n, data in sweeps.items():
        record = data["record"]
        assert record["count"] == SWEEP_TUPLES
        assert record["disagreements"] == 0, f"so({n}) sweep disagreement"
        assert data["elapsed"] <= 600.0, f"so({n}) sweep exceeded 10min"
        # both verdict kinds are exercised
        assert 0 < record["not_disproved"] < SWEEP_TUPLES
        # every disproving certificate replays from the machine report alone
        outcome = replay_report(data["report"].to_machine())
        assert outcome["ok"] and outcome["failed"] == 0
        disproved = sum(1 for t in record["tuples"] if t["counterexample"] is not None)
        assert outcome["verified"] >= disproved
    detail = "; ".join(
        f"so({n}): {d['record']['not_disproved']}/{SWEEP_TUPLES} NotDisproved, "
        f"0 disagreements in {d['elapsed']:.0f}s" for n, d in sorted(sweeps.items()))
    _announce(5, "10min per partition", sum(d["elapsed"] for d in sweeps.values()), detail)


def test_criterion_6_normalizer_lemma(sweeps):
    """Every NotDisproved sweep metric is equivariant over the normalizers
    of both the partition subalgebra and the isometry subalgebra, exactly."""
    start = time.time()
    violations = 0
    checked = 0
    for data in sweeps.values():
        for tup in data["record"]["tuples"]:
            if tup["go"] == "NotDisproved":
                checked += 1
                if tup["normalizer_equivariant"] is not True:
                    violations += 1
    assert checked > 0 and violations == 0
    _announce(6, "none stated", time.time() - start,
              f"{checked} NotDisproved metrics, zero normalizer-equivariance violations")


def test_criterion_7_splitting_theorem(sweeps):
    """Every NotDisproved sweep metric splits: invariant blocks, bi-invariant
    restriction, coset witness sweep green (relative to the isometry
    subalgebra, for which the metric is a two-sided g.o. metric)."""
    start = time.time()
    violations = 0
    checked = 0
    for data in sweeps.values():
        for tup in data["record"]["tuples"]:
            if tup["go"] == "NotDisproved":
                checked += 1
                if tup["split_ok"] is not True:
                    violations += 1
    assert checked > 0 and violations == 0
    _announce(7, "none stated", time.time() - start,
              f"{checked} NotDisproved metrics split cleanly, zero violations")


def test_criterion_8_isometry_recognition():
    """Parameter-pattern branch table for so(6)/(2,2,2)."""
    start = time.time()
    layout = embed_so_partition(6, (2, 2, 2))
    named = layout.named_subspaces()
    names = ["k1", "k2", "k3", "m1_2", "m1_3", "m2_3"]

    def operator(params):
        blocks = tuple((named[n], Fraction(p)) for n, p in zip(names, params))
        return metric_from_blocks(layout.algebra, BlockSpec(blocks))

    distinct = isometry_subalgebra(operator([1, 2, 3, 4, 5, 6]))
    assert distinct.spans_equal(layout.subalgebra)
    merged = isometry_subalgebra(operator([2, 2, 7, 2, 3, 3]))
    target = embed_so_partition(layout.algebra, (4, 2)).subalgebra
    assert merged.contains_space(target) and merged.dim == 7
    everything = isometry_subalgebra(operator([3, 3, 3, 3, 3, 3]))
    assert everything.dim == layout.algebra.dim
    elapsed = time.time() - start
    assert elapsed <= 30.0
    _announce(8, "30s", elapsed,
              "k' branch table recovered: so(2)^3 / so(4)+so(2) / so(6)")


def test_criterion_9_determinism():
    """Identical spec + seed produces byte-identical machine reports."""
    start = time.time()
    spec = ScenarioSpec(
        name="determinism-probe", algebra={"family": "so", "n": 6},
        subgroup={"partition": [2, 2, 2]}, metric={"grid": {"tuples": 6}},
        checks=("validate", "sweep"), samples=8, seed=99)
    first = run_check(spec).to_machine()
    second = run_check(spec).to_machine()
    assert first == second
    flag = scenarios.scenario_catalog()["su3-torus-flag"]
    flag = ScenarioSpec.from_obj({**flag.to_obj(), "metric": {"flaggrid": {"tuples": 4}}})
    assert run_check(flag).to_machine() == run_check(flag).to_machine()
    _announce(9, "none stated", time.time() - start, "byte-identical machine reports")
