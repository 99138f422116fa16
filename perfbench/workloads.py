"""Workloads of the goverify benchmark and the checks on their outputs.

Each workload is a scenario spec for goverify's public API; the benchmark
seed becomes ``ScenarioSpec.seed``, so one seed always gives the same
parameter tuples and sampled directions.  The checks read the machine report
as plain JSON lines, independently of goverify's own parser, and count every
operation (check record, sweep tuple, replayed certificate) as attempted and,
when its result is wrong, as failed.
"""

import json

# Verdicts of so(9) with the subgroup so(3)+so(3)+so(3) and block parameters
# k1=2, k2=2, k3=3, m1_2=2, m1_3=1, m2_3=1.  The blocks k1+k2+m1_2 span an
# so(6) with scalar 2, k3 is an so(3) with scalar 3, and the complement has
# scalar 1: a D'Atri-Ziller normal form whose isometry algebra is
# so(6)+so(3) (dim 18).  None of these depends on the seed.
SO9_VERDICTS = {
    "validate": (True, "so(9) structure constants satisfy antisymmetry and Jacobi"),
    "regular": (False, "so(3)^3 is self-normalizing of rank 3 < rank so(9) = 4, "
                       "so no Cartan subalgebra normalizes it"),
    "weakly-regular": (True, "self-normalizing and no so(3)^3-module of the subalgebra "
                             "occurs in the opposite complement"),
    "equivariance": (True, "scalar blocks on so(3)^3-invariant pieces commute with ad(k)"),
    "go": ("Disproved", "relative to so(3)^3 alone the witness equation has an exact "
                        "rank gap on a pair direction"),
    "go-isometry": ("NotDisproved", "relative to its isometry algebra so(6)+so(3) the "
                                    "metric is naturally reductive, hence geodesic orbit"),
    "natred": (False, "the trilinear condition fails for the complement of so(3)^3"),
    "dazi": (True, "normal form: scalar 2 on so(6), 3 on so(3), 1 on the complement"),
    "split": (False, "hypotheses hold but the coset witness sweep is disproved"),
}

SWEEP_VERDICTS = {
    "sweep": (True, "the witness verdict and the normal form agree on every tuple "
                    "(the equivalence the paper proves for these block metrics)"),
}


def _sweep(n, partition, tuples, samples, replays):
    return {"algebra": {"family": "so", "n": n}, "subgroup": {"partition": partition},
            "metric": {"grid": {"tuples": tuples}}, "checks": ["sweep"],
            "samples": samples, "verdicts": SWEEP_VERDICTS, "replays": replays}


# Why each workload is here is recorded in BENCHMARK.json; the sizes keep one
# measured process under about 30 s on a 2-core machine.  ``replays`` is how
# often each process replays its report: replay_s is the median, so that a
# replay of half a second is measured as steadily as a run of ten.
WORKLOADS = {
    # Tuple 3 is always the bi-invariant one, whose isometry algebra is all of
    # so(8): one cold ideal decomposition of a 28-dimensional algebra.
    "sweep-so8": _sweep(8, [2, 3, 3], tuples=4, samples=24, replays=8),
    # Many small exact solves with a warm memo; about half the tuples are
    # disproved early.
    "sweep-so6": _sweep(6, [2, 2, 2], tuples=36, samples=24, replays=6),
    "pipeline-so9": {
        "algebra": {"family": "so", "n": 9}, "subgroup": {"partition": [3, 3, 3]},
        "metric": {"params": ["2", "2", "3", "2", "1", "1"]},
        "checks": list(SO9_VERDICTS), "samples": 16, "verdicts": SO9_VERDICTS,
        "replays": 5,
    },
    # Tiny input for the benchmark's own smoke test; not a benchmark workload.
    "smoke-so6": _sweep(6, [2, 2, 2], tuples=4, samples=4, replays=2),
}


def spec_kwargs(workload: str, seed: int) -> dict:
    """Keyword arguments of ``goverify.scenarios.ScenarioSpec`` for one run."""
    w = WORKLOADS[workload]
    return {"name": workload, "algebra": w["algebra"], "subgroup": w["subgroup"],
            "metric": w["metric"], "checks": tuple(w["checks"]),
            "samples": w["samples"], "seed": seed}


def report_records(text: str) -> list[dict]:
    """The check records of a machine report (header and summary dropped)."""
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    return [r for r in records if r.get("record") not in ("header", "summary")]


def certificate_count(records: list[dict]) -> int:
    """Certificates a replay must re-verify: counterexamples and witnesses."""
    count = 0
    for r in records:
        count += bool(r.get("counterexample")) + len(r.get("certificates", []))
        count += sum(1 for t in r.get("tuples", []) if t.get("counterexample"))
    return count


def sweep_tuples(records: list[dict]) -> int:
    return sum(len(r.get("tuples", [])) for r in records)


def check_report(workload: str, text: str) -> tuple[int, int, list[str]]:
    """Check one machine report; returns (attempted, failed, problems)."""
    w = WORKLOADS[workload]
    expected = w["verdicts"]
    records = report_records(text)
    attempted = failed = 0
    problems = []
    seen = set()
    for r in records:
        name = r.get("name")
        seen.add(name)
        attempted += 1
        if name not in expected or r.get("verdict") != expected[name][0]:
            failed += 1
            want = expected[name][0] if name in expected else "no such check"
            problems.append(f"check {name}: verdict {r.get('verdict')!r}, expected {want!r}")
        if name == "sweep":
            tuples = r.get("tuples", [])
            if r.get("disagreements") != 0 or len(tuples) != w["metric"]["grid"]["tuples"]:
                failed += 1
                problems.append(f"sweep: {len(tuples)} tuples, "
                                f"{r.get('disagreements')} disagreements")
            for t in tuples:
                attempted += 1
                if t.get("agree") is not True:
                    failed += 1
                    problems.append(f"sweep tuple {t.get('index')}: agree={t.get('agree')!r}")
    for name in sorted(set(expected) - seen):
        attempted += 1
        failed += 1
        problems.append(f"check {name}: missing from the report")
    return attempted, failed, problems


def check_replay(text: str, replay: dict) -> tuple[int, int, list[str]]:
    """Check a ``replay_report`` result against the report it replayed."""
    expected = certificate_count(report_records(text))
    verified, bad = int(replay.get("verified", 0)), int(replay.get("failed", 0))
    attempted = max(expected, verified + bad, 1)
    failed = bad + max(0, expected - verified - bad)
    if verified == 0:
        failed = max(failed, 1)
    problems = []
    if failed:
        problems.append(f"replay: {verified} verified, {bad} failed, {expected} expected")
    return attempted, failed, problems


def tamper(text: str) -> str:
    """Raise the recorded rank of the first counterexample by one.

    Used only by the smoke test: replaying the result must fail.
    """
    lines = text.splitlines()
    for i, line in enumerate(lines):
        obj = json.loads(line)
        payloads = [obj] + obj.get("tuples", [])
        for p in payloads:
            if p.get("counterexample"):
                p["counterexample"]["rank_a"] += 1
                lines[i] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
                return "\n".join(lines) + "\n"
    raise ValueError("report has no counterexample to tamper with")
