"""Scenario catalog, configuration parsing, and the check pipeline.

A :class:`ScenarioSpec` pins everything needed to reproduce a run: the
algebra (family/size or an embedded structure table), the subgroup, the
metric (explicit parameters, block-spec text, or a seeded grid), the checks
and the seed.  Identical spec + seed yields byte-identical machine reports.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import arith, go, metrics, reps
from .arith import ContractViolation
from .lie import (EmbeddingLayout, StructureAlgebra, build_classical, embed_so_partition,
                  ingest_structure_table, serialize_structure_table)
from .metrics import BlockSpec, MetricOperator
from .report import Report, decode_vectors, encode_fraction, encode_vector, parse_machine
from .subspaces import Subspace, forget_spans, is_regular, is_subalgebra, orthogonal_complement

@dataclass(frozen=True)
class ScenarioSpec:
    """Deterministic description of one verification run."""

    name: str
    algebra: dict
    subgroup: dict | None = None
    metric: dict | None = None
    checks: tuple[str, ...] = ("validate",)
    seed: int = 0
    samples: int = 64

    def to_obj(self) -> dict:
        # "backend" and "tolerances" are constants kept so that spec hashes
        # and report bytes stay those of earlier versions
        return {
            "name": self.name,
            "algebra": self.algebra,
            "subgroup": self.subgroup,
            "metric": self.metric,
            "checks": list(self.checks),
            "backend": arith.EXACT,
            "seed": self.seed,
            "samples": self.samples,
            "tolerances": [1e-09, 1e-08, 1e-07],
        }

    @staticmethod
    def from_obj(obj: dict) -> "ScenarioSpec":
        """The spec of ``obj``; ``tolerances`` is ignored and only the exact backend is accepted.
        A name that is not a string, an algebra (or a subgroup or metric other than None)
        that is not an object, a seed or sample count that is not an int and checks that
        are not a list of strings are each a :class:`ContractViolation`."""
        if not isinstance(obj, dict):
            raise ContractViolation(f"spec {obj!r} is not an object")
        if obj.get("backend", arith.EXACT) != arith.EXACT:
            raise ContractViolation(f"unknown backend {obj['backend']!r}: only 'exact' is supported")
        for field in ("algebra", "subgroup", "metric"):
            value = obj.get(field)
            if not isinstance(value, dict) and (field == "algebra" or value is not None):
                raise ContractViolation(f"spec {field} {value!r} is not an object")
        name, checks, seed, samples = (obj.get("name"), obj.get("checks", []), obj.get("seed", 0),
                                       obj.get("samples", 64))
        if type(name) is not str:
            raise ContractViolation(f"spec name {name!r} is not a string")
        if not isinstance(checks, list) or any(type(c) is not str for c in checks):
            raise ContractViolation(f"spec checks {checks!r} is not a list of strings")
        for field, value in (("seed", seed), ("samples", samples)):
            if type(value) is not int:
                raise ContractViolation(f"spec {field} {value!r} is not an int")
        return ScenarioSpec(name=name, algebra=obj.get("algebra"), subgroup=obj.get("subgroup"),
                            metric=obj.get("metric"), checks=tuple(checks), seed=seed,
                            samples=samples)


# ---------------------------------------------------------------------------
# building blocks from spec dictionaries
# ---------------------------------------------------------------------------

@dataclass
class BuiltScenario:
    spec: ScenarioSpec
    algebra: StructureAlgebra
    layout: EmbeddingLayout | None
    named: dict[str, Subspace]
    subgroup: Subspace | None
    metric: MetricOperator | None


def build_algebra(algebra_spec: dict) -> StructureAlgebra:
    if "family" in algebra_spec:
        if type(n := algebra_spec.get("n")) is not int:
            raise ContractViolation(f"algebra n {n!r} is not an int")
        return build_classical(algebra_spec["family"], n)
    if "table" in algebra_spec:
        if type(table := algebra_spec["table"]) is not str:
            raise ContractViolation(f"algebra table is {type(table).__name__}, not a string")
        return ingest_structure_table(table)
    raise ContractViolation("algebra spec needs 'family'+'n' or 'table'")


def _block_names(partition) -> list[str]:
    s = len(partition)
    names = [f"k{i}" for i in range(1, s + 1)]
    names += [f"m{i}_{j}" for i in range(1, s + 1) for j in range(i + 1, s + 1)]
    return names


def _require_subalgebra(space: Subspace, what: str) -> None:
    """Raise unless ``space`` is closed under the bracket, naming a pair that escapes."""
    check = is_subalgebra(space)
    if not check:
        raise ContractViolation(f"{what} is not a subalgebra; pair {check.witness_pair} escapes")


def build_scenario(spec: ScenarioSpec) -> BuiltScenario:
    algebra = build_algebra(spec.algebra)
    layout = None
    named: dict[str, Subspace] = {}
    subgroup = None
    sub = spec.subgroup or {}
    if "partition" in sub:
        parts = sub["partition"]
        if not isinstance(parts, list) or any(type(k) is not int for k in parts):
            raise ContractViolation(f"subgroup partition {parts!r} is not a list of ints")
        layout = embed_so_partition(algebra, tuple(parts))
        named = layout.named_subspaces()
        subgroup = layout.subalgebra
    elif "subspace" in sub:
        from .subspaces import parse_subspace
        subgroup = parse_subspace(algebra, sub["subspace"])
        _require_subalgebra(subgroup, "subspace")
        named["k"] = subgroup
        named["m"] = orthogonal_complement(subgroup)
    elif sub.get("kind") == "cartan-diagonal":
        idx = [i for i, lab in enumerate(algebra.labels) if lab.startswith("D")]
        subgroup = Subspace.from_indices(algebra, idx)
        named["t"] = subgroup
        pieces = reps.isotypic_decomposition(subgroup, orthogonal_complement(subgroup))
        for i, piece in enumerate(pieces.components, start=1):
            named[f"r{i}"] = piece
    elif "chain" in sub:
        inner = Subspace.from_indices(algebra, [int(i) for i in sub["chain"]["inner"]])
        outer = Subspace.from_indices(algebra, [int(i) for i in sub["chain"]["outer"]])
        _require_subalgebra(inner, "chain: inner space")
        _require_subalgebra(outer, "chain: outer space")
        if not outer.contains_space(inner):
            raise ContractViolation("chain: inner subalgebra must lie inside the outer one")
        named["h"] = inner
        named["u"] = orthogonal_complement(inner).intersect(outer)
        named["p"] = orthogonal_complement(outer)
        subgroup = inner
    elif sub:
        raise ContractViolation(f"unknown subgroup {sorted(sub)}: expected 'partition', "
                                "'subspace', 'chain' or kind 'cartan-diagonal'")
    metric = None
    if spec.metric is not None and not any(key in spec.metric for key, _, _ in _SWEEPS.values()):
        metric = build_metric(spec.metric, algebra, layout, named)
    return BuiltScenario(spec=spec, algebra=algebra, layout=layout, named=named,
                         subgroup=subgroup, metric=metric)


def _rational(text, where: str) -> Fraction:
    """``Fraction(text)``; a malformed value is a :class:`ContractViolation` naming ``where``."""
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ContractViolation(f"{where}: malformed rational {text!r}") from exc


def build_metric(metric_spec: dict, algebra: StructureAlgebra,
                 layout: EmbeddingLayout | None, named: dict) -> MetricOperator:
    if "scalar" in metric_spec:
        value = _rational(metric_spec["scalar"], "scalar")
        blocks = ((Subspace.full(algebra), value),)
        return metrics.metric_from_blocks(algebra, BlockSpec(blocks))
    if "params" in metric_spec:
        if layout is None:
            raise ContractViolation("params metric needs a partition subgroup")
        names = _block_names(layout.partition)
        params = _payload_list(metric_spec["params"], "metric params")
        values = [_rational(v, "params") for v in params]
        if len(values) != len(names):
            raise ContractViolation(f"expected {len(names)} parameters {names}")
        blocks = tuple((named[n], v) for n, v in zip(names, values))
        return metrics.metric_from_blocks(algebra, BlockSpec(blocks))
    if "triple" in metric_spec:
        x = _rational(metric_spec["triple"]["x"], "triple")
        y = _rational(metric_spec["triple"]["y"], "triple")
        blocks = ((named["h"], Fraction(1)), (named["u"], x), (named["p"], y))
        return metrics.metric_from_blocks(algebra, BlockSpec(blocks))
    if "blockspec" in metric_spec:
        return metrics.metric_from_blocks(algebra, parse_blockspec(metric_spec["blockspec"], named))
    raise ContractViolation("metric spec needs 'params', 'scalar', 'triple' or 'blockspec'")


def parse_blockspec(text: str, named: dict) -> BlockSpec:
    """Parse the block-spec text format.

    Lines: ``block <name> scalar <p>/<q>`` for scalar blocks and
    ``centerblock <name> matrix <entries...>`` (row-major) for the free
    symmetric block; ``#`` starts a comment.  Names refer to the scenario's
    named subspaces (``k1``, ``m1_2``, ... for partition layouts).
    """
    blocks = []
    center = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "block" and len(parts) == 4 and parts[2] == "scalar":
            name, value = parts[1], _rational(parts[3], f"line {lineno}")
        elif parts[0] == "centerblock" and len(parts) >= 4 and parts[2] == "matrix":
            name = parts[1]
            if name not in named:
                raise ContractViolation(f"line {lineno}: unknown subspace {name!r}")
            space = named[name]
            entries = [_rational(v, f"line {lineno}") for v in parts[3:]]
            if len(entries) != space.dim * space.dim:
                raise ContractViolation(f"line {lineno}: center block needs {space.dim}^2 entries")
            center = (space, arith.qarray(entries).reshape(space.dim, space.dim))
            continue
        else:
            raise ContractViolation(f"line {lineno}: malformed block-spec line")
        if name not in named:
            raise ContractViolation(f"line {lineno}: unknown subspace {name!r}")
        blocks.append((named[name], value))
    return BlockSpec(tuple(blocks), center)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def run_check(spec: ScenarioSpec) -> Report:
    """Execute the requested checks in dependency order and build the report."""
    # "go-isometry" names the second record of "go", so a spec may list it beside "go"
    unknown = [c for c in spec.checks if c not in _CHECKS
               and not (c == "go-isometry" and "go" in spec.checks)]
    if unknown:
        raise ContractViolation(f"unknown checks {unknown} in scenario {spec.name!r}")
    built = build_scenario(spec)
    rep = Report(spec=spec.to_obj(), seed=spec.seed)
    for check in CHECK_ORDER:
        if check not in spec.checks:
            continue
        before = len(rep.records)
        start = time.perf_counter()
        _CHECKS[check](built, rep)
        elapsed = time.perf_counter() - start
        for record in rep.records[before:]:
            rep.timings[record["name"]] = elapsed
    forget_spans(built.algebra)      # the scenario is freed now, not at a full collection
    return rep


def _check_validate(built: BuiltScenario, rep: Report):
    algebra = built.algebra
    if not algebra.validated:  # build_algebra validates every algebra it returns
        raise ContractViolation(f"algebra of scenario {built.spec.name!r} was never validated")
    killing = algebra.killing
    rep.add({
        "record": "check", "name": "validate", "verdict": True, "negative": False,
        "dim": algebra.dim,
        "killing_negative_definite": algebra.canonical_form is not None,
        "killing_degenerate": bool(killing.degenerate),
    })


def _check_regular(built: BuiltScenario, rep: Report):
    result = is_regular(_require_subgroup(built))
    rep.add({
        "record": "check", "name": "regular", "verdict": bool(result.regular),
        "negative": not result.regular,
        "maximal_rank": bool(result.maximal_rank),
        "rank_ambient": result.rank_ambient,
        "rank_subalgebra": result.rank_subalgebra,
        "rank_normalizer": result.rank_normalizer,
    })


def _check_weakly_regular(built: BuiltScenario, rep: Report):
    k = _require_subgroup(built)
    result = reps.is_weakly_regular(k)
    sufficient = reps.criterion_weak_regularity(k)
    if sufficient and not result.weakly_regular:  # pragma: no cover - implication
        raise arith.ExactComputationError("sufficient criterion violated the full decision")
    rep.add({
        "record": "check", "name": "weakly-regular", "verdict": bool(result),
        "negative": not bool(result),
        "dim_subalgebra": result.dim_subalgebra,
        "dim_centralizer_in_complement": result.dim_centralizer_in_complement,
        "dim_opposite": result.dim_opposite,
        "intertwiner_dim": result.intertwiner_dim,
        "self_normalizing": result.dim_centralizer_in_complement == 0,
        "criterion_sufficient": bool(sufficient),
    })


def _check_equivariance(built: BuiltScenario, rep: Report):
    result = metrics.equivariance_check(_require_metric(built), _require_subgroup(built))
    rep.add({
        "record": "check", "name": "equivariance", "verdict": bool(result),
        "negative": not bool(result), "backend": arith.EXACT,
        "witness_index": result.witness_index,
    })


def _go_record(name: str, verdict: go.GoVerdict, subject: str,
               keep_certificates: bool) -> dict:
    record = {
        "record": "check", "name": name, "verdict": verdict.kind,
        "negative": verdict.disproved, "with_respect_to": subject,
        "samples": verdict.samples, "backend": arith.EXACT,
        "strategy": {"seed": verdict.strategy.seed, "random_count": verdict.strategy.random_count,
                     "structured": verdict.strategy.structured,
                     "basis_vectors": verdict.strategy.basis_vectors},
        "counterexample": _counterexample(verdict),
    }
    if keep_certificates:
        record["certificates"] = [
            {"direction": encode_vector(c.direction), "witness": encode_vector(c.witness)}
            for c in verdict.certificates]
    return record


def _counterexample(verdict: go.GoVerdict) -> dict | None:
    """The replayable record of a verdict's counterexample, or ``None`` without one."""
    if verdict.counterexample is None:
        return None
    return {
        "label": verdict.counterexample_label,
        "direction": encode_vector(verdict.counterexample.direction),
        "rank_a": verdict.counterexample.rank_a,
        "rank_ab": verdict.counterexample.rank_ab,
    }


def _strategy(spec: ScenarioSpec) -> go.SamplingStrategy:
    return go.SamplingStrategy(seed=spec.seed, random_count=spec.samples)


def _check_go(built: BuiltScenario, rep: Report):
    operator = _require_metric(built)
    strategy = _strategy(built.spec)
    kprime = metrics.isometry_subalgebra(operator)
    if built.subgroup is not None:
        verdict = go.go_verdict(operator, built.subgroup, strategy, keep_certificates=True)
        rep.add(_go_record("go", verdict, "subgroup", keep_certificates=True))
    verdict_iso = go.go_verdict(operator, kprime, strategy, keep_certificates=True)
    record = _go_record("go-isometry", verdict_iso, "isometry-subalgebra", keep_certificates=True)
    record["isometry_dim"] = kprime.dim
    rep.add(record)


def _check_natred(built: BuiltScenario, rep: Report):
    operator = _require_metric(built)
    k = _require_subgroup(built)
    m = orthogonal_complement(k)
    result = go.natred_condition_check(operator, k, m)
    rep.add({
        "record": "check", "name": "natred", "verdict": bool(result),
        "negative": not bool(result), "backend": arith.EXACT,
        "witness_triple": list(result.witness_triple) if result.witness_triple else None,
    })


def _check_dazi(built: BuiltScenario, rep: Report):
    operator = _require_metric(built)
    result = metrics.dazi_structure_check(operator)
    rep.add({
        "record": "check", "name": "dazi", "verdict": bool(result.verdict),
        "negative": not result.verdict,
        "isometry_dim": result.isometry_subalgebra.dim,
        "center_dim": result.decomposition.center.dim if result.decomposition else None,
        "ideal_dims": [i.dim for i in result.decomposition.ideals] if result.decomposition else [],
        "ideal_scalars": [encode_fraction(s) for s in result.ideal_scalars],
        "complement_scalar": encode_fraction(result.complement_scalar)
        if result.complement_scalar is not None else None,
        "reason": result.reason,
    })


def _check_split(built: BuiltScenario, rep: Report):
    """The split, with the splitting theorem's hypotheses on the subgroup k: weakly regular, and
    semisimple or self-normalizing.  When they fail the split is still checked, as exploratory."""
    k = _require_subgroup(built)
    weak = bool(reps.is_weakly_regular(k))
    flags = go.hypothesis_flags(k)
    result = go.split_check(_require_metric(built), k, _strategy(built.spec))
    hypotheses = weak and flags.satisfied
    rep.add({
        "record": "check", "name": "split", "verdict": bool(result.ok),
        "negative": not result.ok,
        "hypotheses_met": hypotheses,
        "exploratory": not hypotheses,
        "weakly_regular": weak,
        "semisimple": flags.semisimple,
        "self_normalizing": flags.self_normalizing,
        "subalgebra_invariant": result.subalgebra_invariant,
        "complement_invariant": result.complement_invariant,
        "bi_invariant_on_subalgebra": result.bi_invariant_on_subalgebra,
        "coset_verdict": result.coset_verdict.kind if result.coset_verdict else None,
    })


def _require_subgroup(built: BuiltScenario) -> Subspace:
    if built.subgroup is None:
        raise ContractViolation(f"check needs a subgroup in scenario {built.spec.name!r}")
    return built.subgroup


def _require_metric(built: BuiltScenario) -> MetricOperator:
    if built.metric is None:
        raise ContractViolation(f"check needs a metric in scenario {built.spec.name!r}")
    return built.metric


# ---------------------------------------------------------------------------
# the equivalence sweeps
# ---------------------------------------------------------------------------

def with_sweep_tuples(spec: ScenarioSpec, count: int) -> ScenarioSpec:
    """``spec`` with ``count`` sweep tuples; a spec without a sweep grid is returned as it is."""
    for key, _, _ in _SWEEPS.values():
        if spec.metric and key in spec.metric:
            return dataclasses.replace(spec, metric={key: {"tuples": count}})
    return spec


def grid_parameter_tuples(partition, count: int, seed: int):
    """Seeded parameter tuples: alternately fully generic and normal-form shaped."""
    s = len(partition)
    names = _block_names(partition)
    pairs = [(i, j) for i in range(1, s + 1) for j in range(i + 1, s + 1)]
    variants = ["m-equal", "all-equal"] + [f"merge:{i}:{j}" for (i, j) in pairs]
    for t in range(count):
        rng = random.Random(f"sweep:{seed}:{t}")

        def rand_pos():
            return Fraction(rng.randint(1, 9), rng.randint(1, 3))

        params = {name: rand_pos() for name in names}
        if t % 2 == 0:
            kind = "generic"
        else:
            kind = variants[(t // 2) % len(variants)]
            if kind == "all-equal":
                value = rand_pos()
                params = {name: value for name in names}
            elif kind == "m-equal":
                value = rand_pos()
                for (i, j) in pairs:
                    params[f"m{i}_{j}"] = value
            else:
                _, si, sj = kind.split(":")
                i, j = int(si), int(sj)
                merged = rand_pos()
                outside = rand_pos()
                params[f"k{i}"] = merged
                params[f"k{j}"] = merged
                params[f"m{i}_{j}"] = merged
                for (l, m) in pairs:
                    if (l, m) != (i, j):
                        params[f"m{l}_{m}"] = outside
        yield t, kind, params


def _grid_operator(built: BuiltScenario, fields: dict) -> MetricOperator:
    """The block metric of one grid-sweep tuple, from the block parameters of its ``params``."""
    params, names = fields["params"], _block_names(built.layout.partition)
    if not isinstance(params, dict):
        raise ContractViolation(f"grid tuple {fields.get('index')} params is "
                                f"{type(params).__name__}, not an object")
    if missing := [n for n in names if n not in params]:
        raise ContractViolation(f"grid tuple {fields.get('index')} lacks parameters {missing}")
    where = f"grid tuple {fields.get('index')} params"
    blocks = tuple((built.named[n], _rational(params[n], where)) for n in names)
    return metrics.metric_from_blocks(built.algebra, BlockSpec(blocks))


def _flag_tuples(count: int, seed: int):
    """Seeded flag-sweep ``(index, fields)``: a torus ``center`` and ``root_scalars``, equal on odd indices."""
    for t in range(count):
        rng = random.Random(f"flag:{seed}:{t}")

        def rand_pos():
            return Fraction(rng.randint(1, 9), rng.randint(1, 3))

        a = rand_pos()
        b = Fraction(rng.randint(-2, 2), 4)
        c = rand_pos() + b * b / a  # Schur bound keeps the block positive definite
        mus = [rand_pos() for _ in range(3)]
        if t % 2 == 1:
            mus = [mus[0]] * 3
        yield t, {"center": [encode_fraction(v) for v in (a, b, c)],
                  "root_scalars": [encode_fraction(m) for m in mus]}


def _flag_operator(built: BuiltScenario, fields: dict) -> MetricOperator:
    """The metric of one flag-sweep tuple: torus block ``[[a, b], [b, c]]``, root scalars."""
    where = f"flag tuple {fields.get('index')}"
    values = {}
    for name in ("center", "root_scalars"):
        items = _payload_list(fields[name], f"{where} {name}")
        values[name] = [_rational(v, f"{where} {name}") for v in items]
        if len(items) != 3:
            raise ContractViolation(f"{where} {name} has {len(items)} entries, not 3")
    a, b, c = values["center"]
    blocks = tuple((built.named[f"r{i}"], mu) for i, mu in enumerate(values["root_scalars"], start=1))
    torus_block = (built.named["t"], arith.qarray([[a, b], [b, c]]))
    return metrics.metric_from_blocks(built.algebra, BlockSpec(blocks, torus_block))


# each sweep check's metric key for the tuple count, the builder of a tuple's
# operator and the tuple-record fields that builder reads
_SWEEPS = {"sweep": ("grid", _grid_operator, ("params",)),
           "flag-sweep": ("flaggrid", _flag_operator, ("center", "root_scalars"))}


def _sweep_tuple(built: BuiltScenario, check: str, index: int, fields: dict):
    """Check one tuple of either sweep kind.

    ``check``'s builder makes the operator from the tuple's record ``fields``.
    The geodesic-orbit verdict relative to its isometry subalgebra is compared
    with the D'Atri-Ziller normal form.  Returns the tuple record (``index``,
    ``fields``, both verdicts, ``agree``, the counterexample), the operator,
    the isometry subalgebra and the verdict.
    """
    spec = built.spec
    _, build, _ = _SWEEPS[check]
    operator = build(built, fields)
    strategy = go.SamplingStrategy(seed=spec.seed * 100003 + index, random_count=spec.samples)
    kprime = metrics.isometry_subalgebra(operator)
    verdict = go.go_verdict(operator, kprime, strategy)
    dazi = bool(metrics.dazi_structure_check(operator).verdict)
    record = {"index": index, **fields, "kprime_dim": kprime.dim, "go": verdict.kind,
              "dazi": dazi, "agree": (not verdict.disproved) == dazi,
              "counterexample": _counterexample(verdict)}
    return record, operator, kprime, verdict


def _add_sweep(rep: Report, records: list[dict], **summary):
    """Add the ``sweep`` record of the tuple ``records`` with the sweep kind's ``summary`` fields."""
    disagreements = sum(1 for r in records if not r["agree"])
    rep.add({
        "record": "check", "name": "sweep", "verdict": disagreements == 0,
        "negative": disagreements != 0, "count": len(records),
        "disagreements": disagreements,
        "not_disproved": sum(1 for r in records if r["go"] == "NotDisproved"),
        "tuples": records, **summary,
    })


def _grid_follow_up(built: BuiltScenario, record: dict, operator: MetricOperator,
                    kprime: Subspace, verdict: go.GoVerdict):
    """Add to a grid-sweep tuple record the sample count and, when NotDisproved, normalizer
    equivariance over the partition subgroup and the isometry subalgebra and the
    splitting of the restriction blocks."""
    record.update(samples=verdict.samples, normalizer_equivariant=None, split_ok=None)
    if verdict.counterexample is None:
        ne_sub = go.normalizer_equivariance_check(operator, built.subgroup)
        ne_iso = go.normalizer_equivariance_check(operator, kprime)
        record["normalizer_equivariant"] = bool(ne_sub.ok and ne_iso.ok)
        record["split_ok"] = bool(go.split_check(operator, kprime, verdict.strategy).ok)


def _tuple_count(count: int) -> int:
    """``count`` as a sweep's tuple count; an empty sweep would pass with agreement 0/0."""
    if count < 1:
        raise ContractViolation(f"a sweep needs at least one tuple, not {count}")
    return count


def _check_sweep(built: BuiltScenario, rep: Report):
    """The grid sweep: seeded block parameters of a partition subgroup, with the grid follow-up."""
    spec = built.spec
    if built.layout is None:
        raise ContractViolation("equivalence sweep needs a partition subgroup")
    count = _tuple_count(int(spec.metric["grid"]["tuples"]) if spec.metric and "grid" in spec.metric
                         else 200)
    records = []
    for t, kind, params in grid_parameter_tuples(built.layout.partition, count, spec.seed):
        fields = {"kind": kind, "params": {n: encode_fraction(v) for n, v in params.items()}}
        result = _sweep_tuple(built, "sweep", t, fields)
        _grid_follow_up(built, *result)
        records.append(result[0])
    _add_sweep(rep, records, partition=list(built.layout.partition))


def _check_flag_sweep(built: BuiltScenario, rep: Report):
    """The flag sweep: seeded torus blocks and root scalars on su(3) over its diagonal torus."""
    spec = built.spec
    if not spec.metric or "flaggrid" not in spec.metric:
        raise ContractViolation("flag sweep needs a 'flaggrid' metric")
    if sorted(built.named) != ["r1", "r2", "r3", "t"]:
        raise ContractViolation("flag sweep needs the cartan-diagonal subgroup of su(3)")
    count = _tuple_count(int(spec.metric["flaggrid"]["tuples"]))
    _add_sweep(rep, [_sweep_tuple(built, "flag-sweep", t, fields)[0]
                     for t, fields in _flag_tuples(count, spec.seed)], flag=True)


_CHECKS = {
    "validate": _check_validate,
    "regular": _check_regular,
    "weakly-regular": _check_weakly_regular,
    "equivariance": _check_equivariance,
    "go": _check_go,
    "natred": _check_natred,
    "dazi": _check_dazi,
    "split": _check_split,
    "sweep": _check_sweep,
    "flag-sweep": _check_flag_sweep,
}

CHECK_ORDER = tuple(_CHECKS)

ALL_CHECKS = tuple(c for c in CHECK_ORDER if c not in _SWEEPS)


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

def _so5_table() -> str:
    return serialize_structure_table(build_classical("so", 5))


def scenario_catalog() -> dict[str, ScenarioSpec]:
    """Named scenarios reproducing the built-in case studies."""
    catalog = {}
    for name, n, partition in (("so6-222-grid", 6, (2, 2, 2)),
                               ("so7-223-grid", 7, (2, 2, 3)),
                               ("so8-233-grid", 8, (2, 3, 3))):
        catalog[name] = ScenarioSpec(
            name=name, algebra={"family": "so", "n": n},
            subgroup={"partition": list(partition)},
            metric={"grid": {"tuples": 200}},
            checks=("validate", "regular", "weakly-regular", "sweep"),
            samples=24)
    catalog["so9-333-regularity"] = ScenarioSpec(
        name="so9-333-regularity", algebra={"family": "so", "n": 9},
        subgroup={"partition": [3, 3, 3]},
        checks=("validate", "regular", "weakly-regular"))
    catalog["so12-partition4-genmet1"] = ScenarioSpec(
        name="so12-partition4-genmet1", algebra={"family": "so", "n": 12},
        subgroup={"partition": [3, 3, 3, 3]},
        metric={"params": ["1", "2", "3", "4", "5/2", "7/2", "9/2", "11/2", "13/2", "15/2"]},
        checks=("validate", "regular", "weakly-regular", "equivariance", "go",
                "natred", "dazi", "split"),
        samples=16)
    catalog["so16-partition4"] = ScenarioSpec(
        name="so16-partition4", algebra={"family": "so", "n": 16},
        subgroup={"partition": [4, 4, 4, 4]},
        metric={"params": ["1", "2", "3", "4", "9/2", "11/2", "13/2", "15/2", "17/2", "19/2"]},
        checks=("validate", "regular", "weakly-regular", "equivariance", "go",
                "natred", "dazi", "split"),
        samples=16)
    catalog["su3-torus-flag"] = ScenarioSpec(
        name="su3-torus-flag", algebra={"family": "su", "n": 3},
        subgroup={"kind": "cartan-diagonal"},
        metric={"flaggrid": {"tuples": 24}},
        checks=("validate", "flag-sweep"), samples=16)
    catalog["triple-shape-demo"] = ScenarioSpec(
        name="triple-shape-demo", algebra={"table": _so5_table()},
        subgroup={"chain": {"inner": [0, 1, 4], "outer": [0, 1, 2, 4, 5, 7]}},
        metric={"triple": {"x": "1/2", "y": "2"}},
        checks=("validate", "regular", "weakly-regular", "equivariance", "go",
                "natred", "dazi", "split"),
        samples=16)
    return catalog


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def replay_report(text: str) -> dict:
    """Re-verify every embedded exact certificate of a machine report.

    Counterexamples, including those of grid and flag sweep tuples, are
    replayed through the rank-gap check.  A GO record's certificates are
    decoded and checked as stacks: one strict decode of all their directions
    and witnesses, then one :func:`go.replay_certificates`, with one outcome
    per certificate.  Returns the ``verified`` and ``failed`` counts and
    ``ok``.  A sweep tuple's operator is rebuilt from its record by the
    builder of the spec's sweep check.  A sweep record of another kind, a
    tuple without that kind's fields, a record whose tuples or certificates
    are not a list, and a GO record or tuple whose counterexample is not
    present exactly when its verdict is ``Disproved`` are each a
    :class:`ContractViolation`.
    """
    header, records, _summary = parse_machine(text)
    spec = ScenarioSpec.from_obj(header["spec"])
    built = build_scenario(spec)
    outcomes = []
    for record in records:
        name = record.get("name")
        if name in ("go", "go-isometry"):
            subject = record.get("with_respect_to")
            if subject not in ("subgroup", "isometry-subalgebra"):
                raise ContractViolation(f"{name} record has with_respect_to {subject!r}")
            operator = _require_metric(built)
            subgroup = built.subgroup if subject == "subgroup" else metrics.isometry_subalgebra(operator)
            outcomes += _replay_go_record(operator, subgroup, record)
        elif name == "sweep":
            kind = "flag-sweep" if record.get("flag") else "sweep"
            if {c for c in spec.checks if c in _SWEEPS} != {kind}:
                raise ContractViolation(f"a {kind} record does not fit the sweep checks "
                                        f"of scenario {spec.name!r}")
            _, build, fields = _SWEEPS[kind]
            for tup in _payload_list(record.get("tuples"), f"{kind} record tuples"):
                tup = tup if isinstance(tup, dict) else {}
                missing = [f for f in ("counterexample", *fields) if f not in tup]
                if missing:
                    raise ContractViolation(f"{kind} tuple {tup.get('index')} lacks {missing}")
                counterexample = _verdict_counterexample(f"{kind} tuple {tup.get('index')}",
                                                         tup.get("go"), tup)
                if counterexample is not None:
                    operator = build(built, tup)
                    outcomes.append(_replay_counterexample(
                        operator, metrics.isometry_subalgebra(operator), counterexample))
    forget_spans(built.algebra)      # the rebuilt scenario is freed now, not at a full collection
    failed = outcomes.count(False)
    return {"verified": outcomes.count(True), "failed": failed, "ok": failed == 0}


def _replay_go_record(operator, subgroup, record) -> list[bool]:
    """The outcomes of a ``go`` or ``go-isometry`` record: its counterexample, then
    one per certificate.  The certificates are decoded in one strict pass into
    ``(N, dim)`` direction and witness stacks and checked by one
    :func:`go.replay_certificates`."""
    name = record["name"]
    outcomes = []
    counterexample = _verdict_counterexample(f"{name} record", record.get("verdict"), record)
    if counterexample is not None:
        outcomes.append(_replay_counterexample(operator, subgroup, counterexample))
    certificates = _payload_list(record.get("certificates"), f"{name} record certificates")
    if certificates:
        fields = [_payload_fields(go.GoCertificate, c, operator.algebra.dim) for c in certificates]
        stacks = go.GoCertificate(*(decode_vectors([f[field] for f in fields])
                                    for field in ("direction", "witness")))
        outcomes += go.replay_certificates(operator, stacks, subgroup)
    return outcomes


def _verdict_counterexample(what: str, verdict, item: dict):
    """``item``'s counterexample, which a ``Disproved`` verdict must carry and any other
    verdict must leave ``None``; a missing field or a mismatch is a :class:`ContractViolation`."""
    if "counterexample" not in item:
        raise ContractViolation(f"{what} lacks ['counterexample']")
    counterexample = item["counterexample"]
    if (counterexample is not None) != (verdict == "Disproved"):
        raise ContractViolation(f"{what} has verdict {verdict!r} and counterexample "
                                f"{type(counterexample).__name__}")
    return counterexample


def _replay_counterexample(operator, subgroup, payload) -> bool:
    fields = _payload_fields(go.Unsolvable, payload, operator.algebra.dim)
    fields["direction"] = decode_vectors([fields["direction"]])[0]
    return go.replay_counterexample(operator, subgroup, go.Unsolvable(**fields))


def _payload_list(value, what: str) -> list:
    """``value`` when it is a list; anything else is a :class:`ContractViolation`."""
    if not isinstance(value, list):
        raise ContractViolation(f"{what} is {type(value).__name__}, not a list")
    return value


def _payload_fields(kind, payload, dim: int) -> dict:
    """The fields of the certificate or counterexample ``kind`` in its report ``payload``,
    still encoded: an object with every field of ``kind``, each rank an int and each
    vector a list of ``dim`` entries.  Anything else is a :class:`ContractViolation`."""
    what = "certificate" if kind is go.GoCertificate else "counterexample"
    payload = payload if isinstance(payload, dict) else {}
    fields = {f.name: payload.get(f.name) for f in dataclasses.fields(kind)}
    if missing := [name for name in fields if name not in payload]:
        raise ContractViolation(f"{what} lacks {missing}")
    for name, value in fields.items():
        if name in ("rank_a", "rank_ab"):
            if type(value) is not int:
                raise ContractViolation(f"{what} {name} {value!r} is not an int")
        elif not isinstance(value, list):
            raise ContractViolation("an encoded vector must be a list of strings")
        elif len(value) != dim:
            raise ContractViolation(f"{what} {name} has {len(value)} entries, not {dim}")
    return fields
