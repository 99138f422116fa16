"""Scenario pipeline: builders, sweeps, catalog entries, replay."""

import dataclasses
import gc
import hashlib
import json
import re
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from goverify import arith, go, lie, metrics, reps, scenarios, subspaces
from goverify.metrics import BlockSpec
from goverify.report import decode_vectors, encode_fraction
from goverify.scenarios import (ALL_CHECKS, ScenarioSpec, _grid_follow_up, _sweep_tuple,
                                build_scenario, grid_parameter_tuples, parse_blockspec,
                                replay_report, run_check, scenario_catalog, with_sweep_tuples)
from oracles import bi_invariant_by_blocks, fractions, replay_certificate


def test_grid_tuples_deterministic_and_alternating():
    first = list(grid_parameter_tuples((2, 2, 2), 12, seed=4))
    second = list(grid_parameter_tuples((2, 2, 2), 12, seed=4))
    assert [(t, k, p) for t, k, p in first] == [(t, k, p) for t, k, p in second]
    kinds = [k for _, k, _ in first]
    assert kinds[0::2] == ["generic"] * 6
    assert set(kinds[1::2]) == {"m-equal", "all-equal", "merge:1:2", "merge:1:3",
                                "merge:2:3"} | {kinds[11]}
    for _, kind, params in first:
        assert all(v > 0 for v in params.values())
        if kind == "all-equal":
            assert len(set(params.values())) == 1


# basis vectors 1, 2 and 5 of so(5): the so(3) on the first three coordinates
_SO5_SO3_TEXT = "ambient 10\nrows 3\n" + "".join(
    " ".join("1" if c == i else "0" for c in range(10)) + "\n" for i in (0, 1, 4))


@pytest.mark.parametrize("algebra", [
    {"family": "so", "n": 5},
    {"table": lie.serialize_structure_table(lie.build_classical("so", 5))},
], ids=["family", "table"])
def test_each_algebra_is_validated_once(algebra, monkeypatch):
    """The validate check reads the record that building the algebra left; a
    replay validates the algebra it rebuilds from the report header, once."""
    calls = []
    validate = lie.StructureAlgebra.validate
    monkeypatch.setattr(lie.StructureAlgebra, "validate",
                        lambda self: calls.append(self) or validate(self))
    spec = ScenarioSpec(name="once", algebra=algebra, subgroup={"subspace": _SO5_SO3_TEXT},
                        metric={"scalar": "2"}, checks=("validate", "go"), samples=4)
    text = run_check(spec).to_machine()
    assert len(calls) == 1 and '"name":"validate","negative":false' in text
    assert replay_report(text)["verified"] > 0
    assert len(calls) == 2 and calls[1] is not calls[0]


def test_grid_merge_pattern_shape():
    for t, kind, params in grid_parameter_tuples((2, 2, 3), 40, seed=1):
        if kind == "merge:1:2":
            assert params["k1"] == params["k2"] == params["m1_2"]
            assert params["m1_3"] == params["m2_3"]


def test_blockspec_parse_errors():
    built = build_scenario(ScenarioSpec(
        name="x", algebra={"family": "so", "n": 6}, subgroup={"partition": [2, 2, 2]}))
    with pytest.raises(arith.ContractViolation, match="unknown subspace"):
        parse_blockspec("block nope scalar 1", built.named)
    with pytest.raises(arith.ContractViolation, match="malformed"):
        parse_blockspec("block k1 1", built.named)
    spec = parse_blockspec("# fine\nblock k1 scalar 1/2\n", built.named)
    assert spec.blocks[0][1] == Fraction(1, 2)


def test_chain_subgroup_slices():
    spec = scenario_catalog()["triple-shape-demo"]
    built = build_scenario(spec)
    assert built.named["h"].dim == 3
    assert built.named["u"].dim == 3
    assert built.named["p"].dim == 4
    assert built.subgroup.dim == 3
    # metric restricts to 1, x, y on the three slices
    from goverify.metrics import restrict_operator
    assert restrict_operator(built.metric, built.named["u"])[0, 0] == Fraction(1, 2)
    assert restrict_operator(built.metric, built.named["p"])[0, 0] == Fraction(2)


@pytest.mark.parametrize("inner, outer, message", [
    ([0, 1], [0, 1, 2, 4, 5, 7], r"inner space is not a subalgebra; pair \(0, 1\) escapes"),
    ([0, 1, 4], [0, 1, 2, 4], r"outer space is not a subalgebra; pair \(0, 2\) escapes"),
], ids=["inner", "outer"])
def test_chain_of_a_non_subalgebra_is_rejected(inner, outer, message):
    spec = scenario_catalog()["triple-shape-demo"]
    spec = dataclasses.replace(spec, subgroup={"chain": {"inner": inner, "outer": outer}})
    with pytest.raises(arith.ContractViolation, match=message):
        build_scenario(spec)


def test_cartan_subgroup_for_su3():
    spec = scenario_catalog()["su3-torus-flag"]
    built = build_scenario(spec)
    assert built.subgroup.dim == 2
    assert sorted(built.named[f"r{i}"].dim for i in (1, 2, 3)) == [2, 2, 2]


def test_flag_sweep_agreement_small():
    spec = scenario_catalog()["su3-torus-flag"]
    spec = ScenarioSpec.from_obj({**spec.to_obj(), "metric": {"flaggrid": {"tuples": 6}},
                                  "samples": 8})
    report = run_check(spec)
    record = next(r for r in report.records if r["name"] == "sweep")
    assert record["disagreements"] == 0
    assert 0 < record["not_disproved"] < 6
    # equal root scalars are the naturally reductive tuples
    for tup in record["tuples"]:
        equal = len(set(tup["root_scalars"])) == 1
        assert tup["dazi"] == equal
        assert (tup["go"] == "NotDisproved") == equal


def test_sweep_records_embed_replayable_counterexamples():
    spec = ScenarioSpec(
        name="mini", algebra={"family": "so", "n": 6}, subgroup={"partition": [2, 2, 2]},
        metric={"grid": {"tuples": 8}}, checks=("sweep",), samples=8, seed=12)
    report = run_check(spec)
    outcome = replay_report(report.to_machine())
    assert outcome["ok"]
    record = next(r for r in report.records if r["name"] == "sweep")
    disproved = [t for t in record["tuples"] if t["go"] == "Disproved"]
    assert disproved and all(t["counterexample"] is not None for t in disproved)
    assert outcome["verified"] == len(disproved)


def test_flag_sweep_counterexamples_replay():
    spec = scenario_catalog()["su3-torus-flag"]
    spec = ScenarioSpec.from_obj({**spec.to_obj(), "metric": {"flaggrid": {"tuples": 4}}})
    text = run_check(spec).to_machine()
    assert replay_report(text) == {"verified": 2, "failed": 0, "ok": True}
    lines = [json.loads(line) for line in text.splitlines()]
    record = next(r for r in lines if r.get("name") == "sweep")
    tup = next(t for t in record["tuples"] if t["counterexample"] is not None)
    tup["counterexample"]["rank_a"] += 1
    tampered = "\n".join(json.dumps(r, sort_keys=True) for r in lines) + "\n"
    assert replay_report(tampered) == {"verified": 1, "failed": 1, "ok": False}


def test_unknown_check_names_are_rejected():
    spec = ScenarioSpec(name="typo", algebra={"family": "so", "n": 6},
                        checks=("validate", "sweeep", "go-isometry"))
    with pytest.raises(arith.ContractViolation, match=r"unknown checks \['sweeep', 'go-isometry'\]"):
        run_check(spec)


def test_unknown_subgroup_kinds_are_rejected():
    spec = ScenarioSpec(name="typo", algebra={"family": "so", "n": 5},
                        subgroup={"indices": [0, 1, 4]}, checks=("validate",))
    with pytest.raises(arith.ContractViolation, match=r"unknown subgroup \['indices'\]"):
        run_check(spec)


@pytest.mark.parametrize("changes, message", [
    ({"metric": None}, "needs a 'flaggrid' metric"),
    ({"algebra": {"family": "so", "n": 6}, "subgroup": {"partition": [2, 2, 2]}},
     "needs the cartan-diagonal subgroup"),
], ids=["no-flaggrid", "partition-subgroup"])
def test_flag_sweep_rejects_inputs_it_cannot_sweep(changes, message):
    spec = ScenarioSpec.from_obj({**scenario_catalog()["su3-torus-flag"].to_obj(),
                                  "metric": {"flaggrid": {"tuples": 2}}, **changes})
    with pytest.raises(arith.ContractViolation, match=message):
        run_check(spec)


def test_with_sweep_tuples_resizes_either_sweep_kind():
    catalog = scenario_catalog()
    for name, key in (("so6-222-grid", "grid"), ("su3-torus-flag", "flaggrid")):
        resized = with_sweep_tuples(catalog[name], 4)
        assert resized.to_obj() == {**catalog[name].to_obj(), "metric": {key: {"tuples": 4}}}
    for name in ("so9-333-regularity", "triple-shape-demo"):
        assert with_sweep_tuples(catalog[name], 4) == catalog[name]


def test_so12_scenario_spec_shape():
    spec = scenario_catalog()["so12-partition4-genmet1"]
    built = build_scenario(spec)
    assert built.algebra.dim == 66
    assert built.subgroup.dim == 12
    assert len(built.layout.offdiag_blocks) == 6
    assert built.metric is not None


def test_consistency_chain_on_scenario_metrics():
    """normal form true -> trilinear condition true w.r.t. the isometry
    subalgebra -> witness sweep NotDisproved."""
    from goverify import go, metrics
    from goverify.subspaces import orthogonal_complement
    built = build_scenario(ScenarioSpec(
        name="x", algebra={"family": "so", "n": 6}, subgroup={"partition": [2, 2, 2]}))
    names = ["k1", "k2", "k3", "m1_2", "m1_3", "m2_3"]
    for params in ([2, 2, 7, 2, 3, 3], [1, 2, 3, 4, 4, 4], [3, 3, 3, 3, 3, 3]):
        blocks = tuple((built.named[n], Fraction(p)) for n, p in zip(names, params))
        operator = metrics.metric_from_blocks(built.algebra, BlockSpec(blocks))
        dazi = metrics.dazi_structure_check(operator)
        assert dazi.verdict
        kprime = dazi.isometry_subalgebra
        complement = orthogonal_complement(kprime)
        assert go.natred_condition_check(operator, kprime, complement)
        verdict = go.go_verdict(operator, kprime, go.SamplingStrategy(seed=1, random_count=8))
        assert not verdict.disproved


def _timed_spec():
    return ScenarioSpec(
        name="timed", algebra={"family": "so", "n": 6}, subgroup={"partition": [2, 2, 2]},
        metric={"params": ["1", "2", "3", "1", "1", "2"]}, checks=ALL_CHECKS, samples=4)


def test_human_report_shows_a_time_for_every_check():
    report = run_check(_timed_spec())
    names = [r["name"] for r in report.records]
    assert sorted(report.timings) == sorted(names)
    human = report.to_human()
    for name in names:
        assert re.search(rf"^  {re.escape(name)}: .* \[\d+\.\d\ds\]$", human, re.M), name


def test_timings_leave_machine_bytes_unchanged():
    report = run_check(_timed_spec())
    text = report.to_machine()
    assert report.timings and "timing" not in text
    report.timings.clear()
    assert report.to_machine() == text
    assert run_check(_timed_spec()).to_machine() == text


def _golden_specs():
    catalog = scenario_catalog()
    flag = catalog["su3-torus-flag"]
    return {
        "so6-probe": ScenarioSpec(
            name="determinism-probe", algebra={"family": "so", "n": 6},
            subgroup={"partition": [2, 2, 2]}, metric={"grid": {"tuples": 6}},
            checks=("validate", "sweep"), samples=8, seed=99),
        "triple-shape-demo": catalog["triple-shape-demo"],
        "su3-torus-flag": ScenarioSpec.from_obj(
            {**flag.to_obj(), "metric": {"flaggrid": {"tuples": 4}}}),
        "so9-333-regularity": catalog["so9-333-regularity"],
        "so12-partition4-genmet1": catalog["so12-partition4-genmet1"],
        "so16-partition4": catalog["so16-partition4"],
        "pipeline-so9": _pipeline_so9(1),
    }


# sha256 of each machine report, recorded before the integer direction loop
# (integer direction sampling and fraction-free witness solves) replaced the
# Fraction one; a kernel change that is meant to be exact must keep them.  The
# so(9) report, recorded before the Fraction rref was replaced by Bareiss
# elimination, is the one whose rank estimates fail rational reconstruction.
# The so(12) report, recorded while every form-dependent function still took
# the form as an argument, is the only catalog one that runs go, natred, dazi
# and split on a large algebra.  The so(16) report, recorded while every rank
# estimate still built five exact centralizers by Bareiss elimination, is the
# one whose centralizer bases (entries near 220 bits) need the p-adic lift.
# The so(9) pipeline report, recorded while every kept witness came from its
# own Bareiss solve, holds the 55 go-isometry certificates of a verdict that
# now takes them from one stacked modular solve.
GOLDEN_SHA256 = {
    "so6-probe": "b8e88216ceddcfc9c3b10409e1414d92ca90a796707ae8f4aa261386aaab12cd",
    "triple-shape-demo": "66b76f3e57624ebdf16c4c4cbbb094f5d671cb7f9e81aaf35f95b4326bddea4a",
    "su3-torus-flag": "003354c4d94641894d22a4c6cde2a6d52f1565b79fe25ff903443f31ffdbba9a",
    "so9-333-regularity": "74ce939d8ae2547347bf6689cb29a2372ead8e31f2e013cdc0d778d1e3b1bb4d",
    "so12-partition4-genmet1": "be93d0fe581f7791062a3293f7b249fd1bfeccafda241bac344d2bb7cf0d6879",
    "so16-partition4": "dcf1ea712d935d173a04596a1d2125d381e70e7174b6857206d5a0ecf908ee03",
    "pipeline-so9": "4a213dd0e6a9b23cc95fdf6da90f2a9d365843906fb95ef8116fd5e9145e5f66",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_machine_report_bytes_are_pinned(name):
    text = run_check(_golden_specs()[name]).to_machine()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[name]


# -- the span memo ---------------------------------------------------------------

def _grid_records(order, fresh_build_per_tuple=False):
    """Grid-sweep tuple records of a 12-tuple so(6)/(2,2,2) grid, each made by
    ``_sweep_tuple`` and ``_grid_follow_up``, computed in ``order``."""
    spec = ScenarioSpec(name="memo", algebra={"family": "so", "n": 6},
                        subgroup={"partition": [2, 2, 2]}, metric={"grid": {"tuples": 12}},
                        checks=("sweep",), samples=6, seed=3)
    jobs = [(t, {"kind": kind, "params": {n: encode_fraction(v) for n, v in params.items()}})
            for t, kind, params in grid_parameter_tuples((2, 2, 2), 12, spec.seed)]
    shared = build_scenario(spec)
    records = {}
    for t in order:
        built = build_scenario(spec) if fresh_build_per_tuple else shared
        result = _sweep_tuple(built, "sweep", *jobs[t])
        _grid_follow_up(built, *result)
        records[t] = result[0]
    return records


def test_sweep_records_do_not_depend_on_memo_state():
    forward = _grid_records(range(12))
    assert forward == _grid_records(reversed(range(12)))
    assert forward == _grid_records(range(12), fresh_build_per_tuple=True)
    assert {r["go"] for r in forward.values()} == {"Disproved", "NotDisproved"}


def test_sweep_builds_each_span_result_once(monkeypatch):
    """On one build, every memoized result is built once per key, and
    centralizer_in (not memoized itself) runs once per pair of spans."""
    builds = Counter()
    original_memo = subspaces.span_memo

    def counting_memo(space, build, kind, *extras):
        def counted():
            builds[(kind, *extras, space.sort_key())] += 1
            return build()
        return original_memo(space, counted, kind, *extras)

    for module in (subspaces, go, reps):
        monkeypatch.setattr(module, "span_memo", counting_memo)
    pairs = Counter()
    original_centralizer = subspaces.centralizer_in

    def counting_centralizer(target, within):
        pairs[(target.sort_key(), within.sort_key())] += 1
        return original_centralizer(target, within)

    monkeypatch.setattr(subspaces, "centralizer_in", counting_centralizer)
    _grid_records(range(12))
    assert builds and max(builds.values()) == 1
    kinds = Counter(key[0] for key in builds)
    assert kinds["complement"] >= 2 and kinds["flags"] >= 2 and kinds["intersect"] >= 2
    assert pairs and max(pairs.values()) == 1


# -- structural results take no seed ----------------------------------------------

def _pipeline_so9(seed):
    return ScenarioSpec(name="pipeline-so9", algebra={"family": "so", "n": 9},
                        subgroup={"partition": [3, 3, 3]},
                        metric={"params": ["2", "2", "3", "2", "1", "1"]},
                        checks=ALL_CHECKS, samples=16, seed=seed)


def test_pipeline_witnesses_need_no_exact_solve_but_the_counterexample(monkeypatch):
    """On the pinned so(9) pipeline the go-isometry verdict takes all its
    certificates from the stacked solve, with no Bareiss solve, and the go
    verdict makes exactly one: the rank gap of its counterexample."""
    solves, verdicts = [], []
    solve_int, go_verdict = arith.solve_int, go.go_verdict

    def counting_solve(aug):
        solves.append(aug)
        return solve_int(aug)

    def counting_verdict(*args, **kwargs):
        solves.clear()
        verdict = go_verdict(*args, **kwargs)
        verdicts.append((verdict, len(solves)))
        return verdict

    monkeypatch.setattr(arith, "solve_int", counting_solve)
    monkeypatch.setattr(go, "go_verdict", counting_verdict)
    spec = dataclasses.replace(_pipeline_so9(1), checks=("go",))
    records = {r["name"]: r for r in run_check(spec).records}
    (subgroup, subgroup_solves), (isometry, isometry_solves) = verdicts
    assert records["go"]["verdict"] == subgroup.kind == "Disproved" and subgroup_solves == 1
    assert records["go-isometry"]["verdict"] == isometry.kind == "NotDisproved"
    assert len(records["go-isometry"]["certificates"]) == isometry.samples == 55
    assert isometry_solves == 0


def test_structural_records_do_not_depend_on_the_seed():
    """Ranks, regularity, weak regularity, equivariance, natred and the normal
    form are canonical; only the sampled geodesic-orbit records may move."""
    spec = scenario_catalog()["so9-333-regularity"]
    at = {seed: run_check(ScenarioSpec.from_obj({**spec.to_obj(), "seed": seed})).records
          for seed in (0, 5)}
    assert at[0] == at[5]
    structural = ("validate", "regular", "weakly-regular", "equivariance", "natred", "dazi")
    records = {seed: [r for r in run_check(_pipeline_so9(seed)).records if r["name"] in structural]
               for seed in (1, 5)}
    assert [r["name"] for r in records[1]] == list(structural)
    assert records[1] == records[5]


# -- report decoding -------------------------------------------------------------

def _encoded_vectors(obj):
    """Every ``direction`` and ``witness`` list in a parsed report, at any depth."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key in ("direction", "witness"):
                yield value
            else:
                yield from _encoded_vectors(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _encoded_vectors(value)


@pytest.fixture(scope="module")
def certified_texts():
    """Machine reports of ``pipeline-so9`` (seed 1) and ``so12-partition4-genmet1``."""
    return {"pipeline-so9": run_check(_pipeline_so9(1)).to_machine(),
            "so12-partition4-genmet1":
                run_check(scenario_catalog()["so12-partition4-genmet1"]).to_machine()}


def test_decoded_vectors_equal_the_fraction_parse(certified_texts):
    records = [json.loads(line) for text in certified_texts.values() for line in text.splitlines()]
    vectors = list(_encoded_vectors(records))
    assert len(vectors) > 100
    for items in vectors:
        decoded = decode_vectors([items])[0]
        assert fractions(decoded).tolist() == [Fraction(s) for s in items]
        assert decoded.equals(arith.Scaled.of([Fraction(s) for s in items]))
    same_length = [v for v in vectors if len(v) == len(vectors[0])]
    assert decode_vectors(same_length).equals(
        arith.Scaled.of([[Fraction(s) for s in items] for items in same_length]))


@pytest.mark.parametrize("rows", [
    [["0", "-0", "007", "-12"], ["3", "4", "5", "6"]],
    [["1/2", "-3/4", "5", "0/7"], ["2/6", "1", "-1/3", "9"]],
    [[str(10**18 - 1), str(-10**18 + 1), "1", "2"]],
    [[str(10**18), "-1", "2", "3"], [str(-2**70), "1/3", str(3**50) + "/2", "0"]],
    [["1", "2"]] * 5,
], ids=["int64", "fractions", "just-below-10**18", "python-ints", "repeated-rows"])
def test_stacked_decoding_equals_the_fraction_parse(rows):
    decoded = decode_vectors(rows)
    assert decoded.shape == (len(rows), len(rows[0]))
    assert decoded.equals(arith.Scaled.of([[Fraction(s) for s in row] for row in rows]))


@pytest.mark.parametrize("text", ["1/0", "1/-2", "x", "1.5", "", "1/", " 1", "+1", "1e3", "1/00",
                                  "1_000", "\u0661", "\t1", "1\n", "1,2", "0x1", "--1",
                                  1, None, ["1"]])
def test_decoding_rejects_anything_but_n_or_n_over_d(text):
    """The grammar is ``-?[0-9]+(/[0-9]+)?`` with a nonzero denominator, on one
    vector and on a stack; what ``int()`` or ``Fraction()`` would also take, such
    as underscores, non-ASCII digits, surrounding whitespace or a non-string, is not."""
    with pytest.raises(arith.ContractViolation, match="malformed rational"):
        decode_vectors([["1", text]])
    with pytest.raises(arith.ContractViolation, match="malformed rational"):
        decode_vectors([["1", "2"], ["3", text]])


def test_decoding_rejects_rows_of_other_lengths_or_types():
    for rows in ([], [["1"], ["1", "2"]], [["1"], "1"], "1"):
        with pytest.raises(arith.ContractViolation, match="must be a list of strings"):
            decode_vectors(rows)
    assert decode_vectors([[], []]).shape == (2, 0)


# -- stacked certificate replay against the per-certificate oracle ----------------

def _first_moving(record) -> int:
    """Index of the record's first certificate with a nonzero witness (0 without one)."""
    return next((n for n, c in enumerate(record["certificates"])
                 if any(v != "0" for v in c["witness"])), 0)


def _shift(items: list, index: int, by: Fraction) -> None:
    items[index] = encode_fraction(Fraction(items[index]) + by)


def _corrupt(kind: str, records: list, built) -> None:
    """Corrupt one certificate of each GO record of ``records`` in place."""
    go_records = [r for r in records if r.get("name") in ("go", "go-isometry")]
    for record, other in zip(go_records, reversed(go_records)):
        n = _first_moving(record)
        cert = record["certificates"][n]
        if kind == "witness-outside-k":
            k = _subject(built, record)
            i = next(i for i in range(built.algebra.dim) if not k.contains(built.algebra.basis_vector(i)))
            _shift(cert["witness"], i, Fraction(1))
        elif kind == "direction-changed":
            _shift(cert["direction"], 0, Fraction(1))
        elif kind == "witness-entry-changed":
            _shift(cert["witness"], next((i for i, v in enumerate(cert["witness"]) if v != "0"), 0),
                   Fraction(1, 2))
        elif kind == "other-record":
            record["certificates"][n] = json.loads(json.dumps(other["certificates"][_first_moving(other)]))
        elif kind == "empty":
            record["certificates"] = []


def _fraction_parse(items) -> arith.Scaled:
    return arith.Scaled.of([Fraction(s) for s in items])


def _subject(built, record):
    if record["with_respect_to"] == "subgroup":
        return built.subgroup
    return metrics.isometry_subalgebra(built.metric)


@pytest.mark.parametrize("kind", ["untouched", "witness-outside-k", "direction-changed",
                                  "witness-entry-changed", "other-record", "empty"])
@pytest.mark.parametrize("name", ["pipeline-so9", "so12-partition4-genmet1"])
def test_stacked_replay_equals_the_per_certificate_oracle(certified_texts, name, kind):
    """Every certificate's outcome under the stacked ``go.replay_certificates`` (through
    the report decoder) is the per-certificate oracle's, and so are the report's counts,
    on the report as it is and with one certificate per GO record corrupted."""
    lines = [json.loads(line) for line in certified_texts[name].splitlines()]
    built = build_scenario(ScenarioSpec.from_obj(lines[0]["spec"]))
    _corrupt(kind, lines, built)
    verified = failed = 0
    for record in lines:
        if record.get("name") not in ("go", "go-isometry"):
            continue
        k = _subject(built, record)
        stacked = scenarios._replay_go_record(built.metric, k, record)
        oracle = [replay_certificate(built.metric, go.GoCertificate(_fraction_parse(c["direction"]),
                                                                    _fraction_parse(c["witness"])), k)
                  for c in record["certificates"]]
        mine = stacked[len(stacked) - len(oracle):]
        assert mine == oracle
        if kind == "witness-outside-k":
            assert not oracle[_first_moving(record)]
        outcomes = stacked[:len(stacked) - len(oracle)] + oracle
        verified, failed = verified + outcomes.count(True), failed + outcomes.count(False)
    text = "\n".join(json.dumps(r, sort_keys=True) for r in lines) + "\n"
    assert replay_report(text) == {"verified": verified, "failed": failed, "ok": failed == 0}
    if kind == "untouched":
        assert failed == 0 and verified == {"pipeline-so9": 92, "so12-partition4-genmet1": 170}[name]


def test_stacked_replay_of_no_certificates_is_empty():
    layout = lie.embed_so_partition(6, (2, 2, 2))
    operator = metrics.metric_from_blocks(layout.algebra, BlockSpec(
        ((subspaces.Subspace.full(layout.algebra), Fraction(2)),)))
    empty = arith.Scaled.zeros((0, layout.algebra.dim))
    assert go.replay_certificates(operator, go.GoCertificate(empty, empty), layout.subalgebra) == []


def _count_calls(monkeypatch, module, *names):
    """A Counter of the calls of ``module``'s functions ``names`` from now on."""
    calls = Counter()
    for name in names:
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, name=name, original=original, **kwargs:
                            calls.update([name]) or original(*args, **kwargs))
    return calls


def test_intertwiner_systems_are_solved_once_per_span(monkeypatch):
    """An intertwiner system that the Casimirs do not decide is solved once per
    triple of spans: the two so(4) ideals share their Casimir scalar, and asking
    again, with one ideal in another basis, reuses the solve.  The
    Casimirs decide the rest: so(9)/so(3)^3 solves nothing for weak regularity
    and its sufficient criterion (the same system, as it is self-normalizing).
    The full so(9) pipeline asks for one intertwiner space, the weak-regularity
    one, which the split check's hypotheses reuse, and solves it not; the ideal
    decomposition of the isometry algebra so(6) + so(3) in the dazi check asks
    for none, as distinct simple ideals are never equivalent.  Its two solves
    are the symmetric commutants of the two ideals, which the Casimir split
    apart."""
    calls = _count_calls(monkeypatch, reps, "_solve_equivariance", "intertwiner_space")
    so4 = lie.build_classical("so", 4)
    full = subspaces.Subspace.full(so4)
    first, second = subspaces.ideal_decomposition(full).ideals
    calls.clear()
    assert reps.intertwiner_dim(full, second, first) == 0
    assert reps.modules_disjoint(full, second, subspaces.Subspace(so4, 2 * first.basis, check=False))
    assert calls == {"_solve_equivariance": 1, "intertwiner_space": 1}
    calls.clear()
    report = run_check(scenario_catalog()["so9-333-regularity"])
    assert calls["_solve_equivariance"] == 0
    assert [r["self_normalizing"] for r in report.records if r["name"] == "weakly-regular"] == [True]
    calls.clear()
    run_check(_pipeline_so9(1))
    assert calls == {"intertwiner_space": 1, "_solve_equivariance": 2}


def test_so16_weak_regularity_solves_no_equivariance_system(monkeypatch):
    """The Casimirs of so(4)^4 on k and on its complement in so(16) are distinct
    scalars, so the weakly-regular check decides with no equivariance solve."""
    spec = dataclasses.replace(scenario_catalog()["so16-partition4"], checks=("weakly-regular",))
    calls = _count_calls(monkeypatch, reps, "_solve_equivariance")
    record, = (r for r in run_check(spec).records if r["name"] == "weakly-regular")
    assert calls["_solve_equivariance"] == 0
    assert record["verdict"] and record["intertwiner_dim"] == 0


def test_so16_dazi_solves_no_intertwiner_system(monkeypatch):
    """The dazi check of so(16)/so(4)^4 decomposes an isometry algebra with eight
    su(2) ideals, which share one Casimir scalar.  Distinct simple ideals are
    never equivalent, so the ideal decomposition solves no intertwiner system
    (pairwise merging solved 28); only symmetric commutants are solved."""
    spec = dataclasses.replace(scenario_catalog()["so16-partition4"], checks=("dazi",))
    symmetric = []                 # intertwiners number every entry, commutants the upper triangle
    solve = reps._solve_equivariance
    monkeypatch.setattr(reps, "_solve_equivariance", lambda dom, cod, unknowns:
                        symmetric.append(np.array_equal(unknowns, unknowns.T))
                        or solve(dom, cod, unknowns))
    record, = run_check(spec).records
    assert record["name"] == "dazi"
    assert symmetric and all(symmetric)


def test_regular_check_ranks_so9_without_an_exact_kernel(monkeypatch):
    """The so(9) pipeline's regular check ranks all of so(9), so(3)^3 and its
    normalizer (the same span, memoized): the greedy abelian basis of each is
    maximal by its rank mod p alone, so no rank takes an exact kernel."""
    ranked, kernels = [], []
    rank_estimate, nullspace = subspaces.rank_estimate, arith.nullspace_exact

    def counted(space):
        before = len(kernels)
        result = rank_estimate(space)
        ranked.append((space.dim, result.value, len(kernels) - before))
        return result

    monkeypatch.setattr(subspaces, "rank_estimate", counted)
    monkeypatch.setattr(arith, "nullspace_exact", lambda mat: kernels.append(1) or nullspace(mat))
    report = run_check(dataclasses.replace(_pipeline_so9(1), checks=("regular",)))
    assert ranked == [(36, 4, 0), (9, 3, 0), (9, 3, 0)]
    assert [(r["rank_ambient"], r["rank_subalgebra"], r["rank_normalizer"])
            for r in report.records] == [(4, 3, 3)]


@pytest.mark.parametrize("checks", [("regular",), ALL_CHECKS], ids=["regular", "all-checks"])
def test_run_check_frees_its_algebra_without_a_collection(monkeypatch, checks):
    """``run_check`` drops its algebra's span memo, whose entries point back at the
    algebra, so the algebra is freed by reference counting alone."""
    algebras = []
    build = scenarios.build_scenario

    def held(spec):
        built = build(spec)
        algebras.append(weakref.ref(built.algebra))
        return built

    monkeypatch.setattr(scenarios, "build_scenario", held)
    gc.collect()
    gc.disable()
    try:
        report = run_check(dataclasses.replace(_pipeline_so9(1), checks=checks))
        assert len(algebras) == 1 and algebras[0]() is None
    finally:
        gc.enable()
    assert report.records


def test_bi_invariance_agrees_with_the_block_form_on_the_catalog(monkeypatch):
    """Every subalgebra, with its metric, that a catalog split check or grid
    follow-up meets: the catalog's split checks, and its grid sweeps at 10
    tuples, which cover every tuple kind of a three-block partition."""
    pairs = []
    split_check = go.split_check
    monkeypatch.setattr(go, "split_check", lambda op, k, strategy:
                        pairs.append((op, k)) or split_check(op, k, strategy))
    for spec in scenario_catalog().values():
        if "split" in spec.checks:
            run_check(dataclasses.replace(spec, checks=("split",)))
        elif "sweep" in spec.checks:
            run_check(dataclasses.replace(with_sweep_tuples(spec, 10), checks=("sweep",)))
    verdicts = [metrics.bi_invariance_check(op, k) for op, k in pairs]
    assert verdicts == [bi_invariant_by_blocks(op, k) for op, k in pairs]
    assert len(pairs) > 10 and True in verdicts


def test_split_and_hypotheses_decompose_no_ideals_and_solve_no_weak_regularity(monkeypatch):
    """On a 4-tuple so(8)/(2,3,3) sweep (its tuple 3 has all of so(8) as isometry
    algebra), bi-invariance, the hypothesis flags and the split never run an ideal
    decomposition, no piece split (``reps.split_pieces``, which isotypic and ideal
    decompositions both run) runs on the 28-dimensional so(8), and no
    weak-regularity decision runs at all."""
    depth, ideals_inside, split_dims, weak = [0], [], [], []

    def entering(module, name):
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            depth[0] += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(module, name, wrapped)

    for module, name in ((go, "split_check"), (go, "hypothesis_flags"),
                         (go, "bi_invariance_check"), (metrics, "bi_invariance_check")):
        entering(module, name)
    ideal_decomposition = subspaces.ideal_decomposition
    for module in (subspaces, metrics, go):
        if hasattr(module, "ideal_decomposition"):
            monkeypatch.setattr(module, "ideal_decomposition", lambda space: ideals_inside.append(
                depth[0]) or ideal_decomposition(space))
    split_pieces, is_weakly_regular = reps.split_pieces, reps.is_weakly_regular
    monkeypatch.setattr(reps, "split_pieces", lambda acting, space: split_dims.append(
        space.dim) or split_pieces(acting, space))
    monkeypatch.setattr(reps, "is_weakly_regular", lambda space: weak.append(space.dim)
                        or is_weakly_regular(space))
    report = run_check(ScenarioSpec(name="so8", algebra={"family": "so", "n": 8},
                                    subgroup={"partition": [2, 3, 3]},
                                    metric={"grid": {"tuples": 4}}, checks=("sweep",),
                                    samples=24, seed=1))
    sweep, = report.records
    assert [t["kprime_dim"] for t in sweep["tuples"]][3] == 28
    assert [t["split_ok"] for t in sweep["tuples"]][3] is True
    assert ideals_inside and not any(ideals_inside)    # dazi still decomposes its k'
    assert split_dims and 28 not in split_dims
    assert weak == []
