"""Command-line front end, report formats, determinism, and replay."""

import contextlib
import io
import json
import subprocess
import sys
import textwrap

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from goverify import scenarios
from goverify.cli import main
from goverify.report import parse_machine, spec_hash
from goverify.scenarios import ScenarioSpec, replay_report, scenario_catalog


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_algebra_validate_human(capsys):
    code, out, _ = run_cli(["algebra", "validate", "--family", "so", "--n", "5"], capsys)
    assert code == 0
    assert "validate: pass" in out


def test_algebra_validate_table_error(tmp_path, capsys):
    bad = tmp_path / "bad.table"
    bad.write_text("dim 3\n1 2 3 1\n")
    code, _, err = run_cli(["algebra", "validate", "--table", str(bad)], capsys)
    assert code == 1
    assert "antisymmetry" in err


def test_missing_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["check", "go", "--partition", "2,2,2"])


def test_check_regular_exit_codes(capsys):
    code, out, _ = run_cli(["check", "regular", "--family", "so", "--n", "6",
                            "--partition", "2,2,2"], capsys)
    assert code == 0
    code, out, _ = run_cli(["check", "regular", "--family", "so", "--n", "9",
                            "--partition", "3,3,3"], capsys)
    assert code == 2  # negative verdict, not an error
    assert "regular: no" in out


def test_check_go_machine_output_and_replay(tmp_path, capsys):
    report_path = tmp_path / "report.jsonl"
    code, out, _ = run_cli(["check", "go", "--family", "so", "--n", "6",
                            "--partition", "2,2,2", "--params", "1,2,3,4,5,6",
                            "--samples", "6", "--out", str(report_path)], capsys)
    assert code == 2
    header, records, summary = parse_machine(report_path.read_text())
    go_records = [r for r in records if r["name"] == "go"]
    assert go_records[0]["verdict"] == "Disproved"
    ce = go_records[0]["counterexample"]
    assert ce is not None and "/" not in ce["rank_a"].__str__()
    assert all("/" in v or v.lstrip("-").isdigit() for v in ce["direction"])
    code, out, _ = run_cli(["replay", str(report_path)], capsys)
    assert code == 0 and "failed=0" in out


def test_determinism_byte_identical(tmp_path, capsys):
    args = ["check", "natred", "--family", "so", "--n", "6", "--partition", "2,2,2",
            "--params", "2,2,7,2,3,3", "--seed", "5"]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_cli(args + ["--out", str(p1)], capsys)
    run_cli(args + ["--out", str(p2)], capsys)
    assert p1.read_bytes() == p2.read_bytes()


def test_scenario_list_contains_catalog(capsys):
    code, out, _ = run_cli(["scenario", "list"], capsys)
    assert code == 0
    for name in ("so6-222-grid", "so9-333-regularity", "su3-torus-flag",
                 "triple-shape-demo", "so12-partition4-genmet1", "so16-partition4"):
        assert name in out


def test_catalog_has_expected_entries():
    catalog = scenario_catalog()
    assert len(catalog) >= 7
    assert catalog["so6-222-grid"].subgroup == {"partition": [2, 2, 2]}
    assert catalog["so12-partition4-genmet1"].subgroup == {"partition": [3, 3, 3, 3]}
    assert len(catalog["so12-partition4-genmet1"].metric["params"]) == 10
    grid = catalog["so8-233-grid"]
    assert grid.metric == {"grid": {"tuples": 200}}


def test_scenario_run_smoke_sweep(tmp_path, capsys):
    code, out, _ = run_cli(["scenario", "run", "so6-222-grid", "--tuples", "6",
                            "--samples", "6", "--out", str(tmp_path / "s.jsonl")], capsys)
    assert code == 0
    assert "agreement 6/6" in out
    outcome = replay_report((tmp_path / "s.jsonl").read_text())
    assert outcome["ok"]


def test_scenario_unknown_name(capsys):
    code, _, err = run_cli(["scenario", "run", "nope"], capsys)
    assert code == 1 and "unknown scenario" in err


def test_blockspec_file_roundtrip(tmp_path, capsys):
    spec = tmp_path / "metric.blocks"
    spec.write_text("# merged branch\n"
                    "block k1 scalar 2\nblock k2 scalar 2\nblock k3 scalar 7\n"
                    "block m1_2 scalar 2\nblock m1_3 scalar 3\nblock m2_3 scalar 3\n")
    code, out, _ = run_cli(["check", "natred", "--family", "so", "--n", "6",
                            "--partition", "2,2,2", "--blockspec", str(spec)], capsys)
    assert code == 2  # trilinear condition w.r.t. the torus fails; form holds via k'
    assert "naturally reductive: yes" in out


def test_machine_report_schema(tmp_path, capsys):
    path = tmp_path / "m.jsonl"
    run_cli(["check", "weakly-regular", "--family", "so", "--n", "6",
             "--partition", "2,2,2", "--out", str(path), "--machine"], capsys)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["record"] == "header" and header["format"] == "goverify.report"
    assert header["schema"] == 1 and "spec_hash" in header
    summary = json.loads(lines[-1])
    assert summary["record"] == "summary"


@pytest.mark.parametrize("flag, value, where", [
    ("--params", "1,2,x,4,5,6", "params: malformed rational 'x'"),
    ("--scalar", "abc", "scalar: malformed rational 'abc'"),
    ("--blockspec", "block k1 scalar 2\nblock k2 scalar abc\n", "line 2: malformed rational 'abc'"),
], ids=["params", "scalar", "blockspec"])
def test_malformed_rational_is_an_error_line(flag, value, where, tmp_path):
    if flag == "--blockspec":
        (tmp_path / "metric.blocks").write_text(value)
        value = str(tmp_path / "metric.blocks")
    out = subprocess.run([sys.executable, "-m", "goverify", "check", "natred", "--family", "so",
                          "--n", "6", "--partition", "2,2,2", flag, value],
                         capture_output=True, text=True)
    assert out.returncode == 1 and out.stderr.startswith("error:")
    assert where in out.stderr and "Traceback" not in out.stderr


def test_cli_entrypoint_subprocess():
    out = subprocess.run([sys.executable, "-m", "goverify", "scenario", "list"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "so6-222-grid" in out.stdout


def test_spec_roundtrip():
    spec = scenario_catalog()["so6-222-grid"]
    again = ScenarioSpec.from_obj(json.loads(json.dumps(spec.to_obj())))
    assert again == spec


def test_float_backend_pipeline(tmp_path, capsys):
    """Asking for the deleted float backend is a usage error (exit 1), never a
    negative verdict (exit 2), on the command line and in a replayed report."""
    args = ["check", "go", "--family", "so", "--n", "6", "--partition", "2,2,2",
            "--params", "1,2,3,4,5,6", "--samples", "4"]
    for bad in (["--backend", "float"], ["--samples", "abc"]):
        with pytest.raises(SystemExit) as exc:
            main(args + bad)
        assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    path = tmp_path / "report.jsonl"
    assert run_cli(args + ["--out", str(path)], capsys)[0] == 2
    header, *rest = path.read_text().splitlines()
    header = json.loads(header)
    assert header["backend"] == header["spec"]["backend"] == "exact"
    header["spec"]["backend"] = "float"
    header["spec_hash"] = spec_hash(header["spec"])
    path.write_text("\n".join([json.dumps(header)] + rest) + "\n")
    code, _, err = run_cli(["replay", str(path)], capsys)
    assert code == 1 and "float" in err


def test_cli_import_leaves_scipy_out():
    code = "import sys, goverify.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_sweep_splits_without_importing_sympy():
    """An so(6)/(2,2,2) sweep splits commutant elements (primary_invariant_split)
    on rational roots alone, so sympy never enters the process.  Tuple 5 is the
    first merged-block tuple, whose isotypic decomposition needs a split."""
    code = textwrap.dedent("""
        import sys
        import goverify.cli
        from goverify import arith
        from goverify.scenarios import ScenarioSpec, run_check
        calls = []
        split = arith.primary_invariant_split
        arith.primary_invariant_split = lambda c: calls.append(c.shape) or split(c)
        run_check(ScenarioSpec(name="guard", algebra={"family": "so", "n": 6},
                               subgroup={"partition": [2, 2, 2]},
                               metric={"grid": {"tuples": 6}}, checks=("sweep",),
                               samples=4, seed=1))
        print(len(calls), "sympy" in sys.modules)
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    calls, sympy_loaded = out.stdout.split()
    assert int(calls) > 0 and sympy_loaded == "False"


def _rename_spec_in_header(path):
    header, *rest = path.read_text().splitlines()
    header = json.loads(header)
    header["spec"]["name"] = "renamed"
    path.write_text("\n".join([json.dumps(header)] + rest) + "\n")


def _edit_sweep_record(edit):
    def damage(path):
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        edit(next(r for r in lines if r.get("name") == "sweep"))
        path.write_text("\n".join(json.dumps(r) for r in lines) + "\n")
    return damage


@pytest.mark.parametrize("damage, message", [
    (_rename_spec_in_header, "spec hash mismatch"),
    (lambda path: path.write_text(path.read_text() + "not json\n"), "is not JSON"),
    (lambda path: path.unlink(), "report.jsonl"),
    (_edit_sweep_record(lambda r: r.update(flag=True)), "does not fit the sweep checks"),
    (_edit_sweep_record(lambda r: r["tuples"][0].pop("params")), "lacks ['params']"),
    (_edit_sweep_record(lambda r: [t["params"].pop("k1") for t in r["tuples"]]),
     "lacks parameters ['k1']"),
    (_edit_sweep_record(lambda r: r.update(name="go")), "go record has with_respect_to None"),
    (_edit_sweep_record(lambda r: [t["params"].update(k1="x") for t in r["tuples"]]),
     "params: malformed rational 'x'"),
], ids=["edited-header", "non-json-line", "missing-file", "flag-on-grid-sweep",
        "tuple-without-params", "tuple-without-a-block-parameter", "go-record-without-subject",
        "tuple-with-a-malformed-parameter"])
def test_replay_of_a_bad_report_is_an_error_line(damage, message, tmp_path, capsys):
    path = tmp_path / "report.jsonl"
    run_cli(["sweep", "equivalence", "--family", "so", "--n", "6", "--partition", "2,2,2",
             "--tuples", "2", "--samples", "4", "--out", str(path)], capsys)
    damage(path)
    code, _, err = run_cli(["replay", str(path)], capsys)
    assert code == 1 and err.startswith("error:") and message in err


@pytest.mark.parametrize("field, edit", [
    ("center", lambda values: ["x", *values[1:]]),
    ("root_scalars", lambda values: [*values[:-1], "1/0"]),
    ("center", lambda values: values[:2]),
])
def test_replay_of_a_malformed_flag_tuple_is_an_error_line(field, edit, tmp_path, capsys):
    path = tmp_path / "flag.jsonl"
    run_cli(["scenario", "run", "su3-torus-flag", "--tuples", "2", "--out", str(path)], capsys)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    for tup in next(r for r in lines if r.get("name") == "sweep")["tuples"]:
        tup[field] = edit(tup[field])
    path.write_text("\n".join(json.dumps(r) for r in lines) + "\n")
    code, _, err = run_cli(["replay", str(path)], capsys)
    assert code == 1 and err.startswith("error: flag tuple 0") and field in err


@pytest.fixture(scope="module")
def certified_reports(tmp_path_factory):
    """Machine reports with GO certificates (so(5)/(2,3)), with a disproved GO
    verdict and its counterexample (so(6)/(2,2,2)), and with the counterexamples
    of grid-sweep (so(6)/(2,2,2), 4 tuples) and flag-sweep tuples (su(3), 4
    tuples), as lists of JSON records."""
    out = tmp_path_factory.mktemp("certified")
    reports = {}
    for kind, args in (("go", ["check", "go", "--family", "so", "--n", "5", "--partition", "2,3",
                               "--params", "1,2,3", "--samples", "2"]),
                       ("disproved", ["check", "go", "--family", "so", "--n", "6", "--partition",
                                      "2,2,2", "--params", "1,2,3,4,5,6", "--samples", "2"]),
                       ("sweep", ["scenario", "run", "so6-222-grid", "--tuples", "4",
                                  "--samples", "4"]),
                       ("flag", ["scenario", "run", "su3-torus-flag", "--tuples", "4"])):
        path = out / f"{kind}.jsonl"
        assert main([*args, "--out", str(path)]) in (0, 2)
        reports[kind] = [json.loads(line) for line in path.read_text().splitlines()]
    return reports


def _first_certificate(records):
    return next(r for r in records if r.get("certificates"))["certificates"]


def _sweep_record(records):
    return next(r for r in records if r.get("name") == "sweep")


def _first_tuple_counterexample(records):
    return next(t["counterexample"] for t in _sweep_record(records)["tuples"] if t["counterexample"])


@pytest.mark.parametrize("kind, damage, message", [
    ("go", lambda r: _first_certificate(r)[0]["direction"].pop(), "direction has 9 entries, not 10"),
    ("go", lambda r: _first_certificate(r).__setitem__(0, {}), "certificate lacks ['direction', 'witness']"),
    ("sweep", lambda r: _first_tuple_counterexample(r)["direction"].pop(),
     "direction has 14 entries, not 15"),
    ("sweep", lambda r: _first_tuple_counterexample(r).pop("rank_a"), "counterexample lacks ['rank_a']"),
    ("sweep", lambda r: _first_tuple_counterexample(r).update(rank_a="x"), "rank_a 'x' is not an int"),
    ("go", lambda r: next(x for x in r if x.get("certificates")).update(certificates=5),
     "go record certificates is int, not a list"),
    ("sweep", lambda r: _sweep_record(r).pop("tuples"), "sweep record tuples is NoneType, not a list"),
    ("sweep", lambda r: _sweep_record(r)["tuples"].__setitem__(0, 3),
     "sweep tuple None lacks ['counterexample', 'params']"),
], ids=["short-certificate-direction", "empty-certificate", "short-tuple-direction",
        "tuple-without-rank_a", "tuple-with-a-string-rank_a", "certificates-not-a-list",
        "sweep-without-tuples", "tuple-not-an-object"])
def test_replay_of_a_malformed_certificate_is_an_error_line(certified_reports, kind, damage,
                                                            message, tmp_path):
    records = json.loads(json.dumps(certified_reports[kind]))
    damage(records)
    path = tmp_path / "report.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    code, err = _cli_error("replay", str(path))
    assert code == 1 and err.startswith("error:") and message in err and "Traceback" not in err


def _replayed_fields(records):
    """Paths to every field that replay reads in ``records``: each GO record's subject,
    certificates and counterexample, the fields of its first certificate, each
    sweep record's tuples, and the fields of the first tuple with a counterexample;
    and the fields of every counterexample among them."""
    paths = []
    for r, record in enumerate(records):
        if record.get("name") in ("go", "go-isometry"):
            paths += [(r, "with_respect_to"), (r, "certificates"), (r, "counterexample")]
            if record["certificates"]:
                paths += [(r, "certificates", 0, "direction"), (r, "certificates", 0, "witness")]
            payload = (r, "counterexample") if record["counterexample"] else None
        elif record.get("name") == "sweep":
            t = next(i for i, tup in enumerate(record["tuples"]) if tup["counterexample"])
            fields = ("center", "root_scalars") if record.get("flag") else ("params",)
            paths += [(r, "tuples")] + [(r, "tuples", t, f) for f in ("counterexample", *fields)]
            payload = (r, "tuples", t, "counterexample")
        else:
            continue
        if payload:
            paths += [(*payload, f) for f in ("direction", "rank_a", "rank_ab")]
    return paths


_RETYPED = {int: st.integers(), str: st.text(max_size=6), type(None): st.none(),
            list: st.lists(st.integers() | st.text(max_size=3), max_size=3),
            dict: st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_replay_of_a_report_with_a_deleted_or_retyped_field_never_crashes(certified_reports,
                                                                          tmp_path_factory, data):
    """Deleting one field that replay reads, or giving it another JSON type, gives an
    ``error:`` line and exit 1, or a replay with a failed certificate; never a traceback."""
    kind = data.draw(st.sampled_from(sorted(certified_reports)), label="report")
    records = json.loads(json.dumps(certified_reports[kind]))
    *path, field = data.draw(st.sampled_from(_replayed_fields(records)), label="field")
    owner = records
    for key in path:
        owner = owner[key]
    kinds = [t for t in _RETYPED if not isinstance(owner[field], t)]
    new_type = data.draw(st.sampled_from(["delete", *kinds]), label="change")
    if new_type == "delete":
        del owner[field]
    else:
        owner[field] = data.draw(_RETYPED[new_type], label="value")
    report = tmp_path_factory.getbasetemp() / "mutated.jsonl"
    report.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["replay", str(report)])
    assert code == 1 and "Traceback" not in err.getvalue()
    assert err.getvalue().startswith("error:") or "failed=0" not in out.getvalue()


def _cli_error(*args):
    out = subprocess.run([sys.executable, "-m", "goverify", *args], capture_output=True, text=True)
    return out.returncode, out.stderr


@pytest.mark.parametrize("args", [
    ["sweep", "equivalence", "--family", "so", "--n", "6", "--partition", "2,2,2", "--tuples", "-3"],
    ["scenario", "run", "so6-222-grid", "--tuples", "0"],
    ["scenario", "run", "su3-torus-flag", "--tuples", "-1"],
])
def test_empty_sweep_is_an_error_line(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 1 and err.startswith("error:") and "at least one tuple" in err
    assert "agreement" not in out


@pytest.fixture(scope="module")
def params_report():
    """A small machine report whose spec has a partition subgroup and a params metric."""
    spec = ScenarioSpec(name="spec", algebra={"family": "so", "n": 6},
                        subgroup={"partition": [2, 2, 2]},
                        metric={"params": ["1", "2", "3", "4", "5", "6"]}, checks=("validate",))
    return scenarios.run_check(spec).to_machine()


@pytest.mark.parametrize("edit, field", [
    (lambda header: header.update(spec=[1]), "spec [1] is not an object"),
    (lambda header: header["spec"].pop("name"), "spec name"),
    (lambda header: header["spec"].update(seed="x"), "spec seed"),
    (lambda header: header["spec"].update(samples=[1]), "spec samples"),
    (lambda header: header["spec"].update(checks=5), "spec checks"),
    (lambda header: header["spec"].pop("algebra"), "spec algebra"),
    (lambda header: header["spec"].update(subgroup=5), "spec subgroup"),
    (lambda header: header["spec"].update(metric="x"), "spec metric"),
    (lambda header: header["spec"]["algebra"].pop("n"), "algebra n"),
    (lambda header: header["spec"]["algebra"].update(n="abc"), "algebra n"),
    (lambda header: header["spec"].update(algebra={"table": 5}), "algebra table"),
    (lambda header: header["spec"]["subgroup"].update(partition="ab"), "subgroup partition"),
    (lambda header: header["spec"]["metric"].update(params=5), "metric params"),
], ids=["spec-list", "name-missing", "seed-string", "samples-list", "checks-int",
        "algebra-missing", "subgroup-int", "metric-string", "n-missing", "n-string", "table-int",
        "partition-string", "params-int"])
def test_replay_of_a_malformed_spec_is_an_error_line(params_report, edit, field, tmp_path, capsys):
    """A header spec with a missing or mistyped field, under a matching spec hash,
    gives one ``error:`` line that names the field."""
    header, *rest = params_report.splitlines()
    header = json.loads(header)
    edit(header)
    header["spec_hash"] = spec_hash(header["spec"])
    path = tmp_path / "report.jsonl"
    path.write_text("\n".join([json.dumps(header)] + rest) + "\n")
    code, _, err = run_cli(["replay", str(path)], capsys)
    assert code == 1 and err.startswith("error:") and err.count("\n") == 1 and field in err


def test_abelian_family_without_n_is_an_error_line():
    code, err = _cli_error("algebra", "validate", "--family", "abelian")
    assert code == 1 and err == "error: need --family/--n or --table\n"


def test_algebra_without_a_positive_form_is_an_error_line(tmp_path):
    """The abelian algebra's Killing form is zero, and no command line attaches a form."""
    path = tmp_path / "ab.subspace"
    path.write_text("ambient 2\nrows 1\n1 0\n")
    code, err = _cli_error("check", "regular", "--family", "abelian", "--n", "2", "--subspace", str(path))
    assert code == 1 and err == (
        "error: the negative Killing form is not positive definite; checks need a compact "
        "semisimple algebra, or a form attached from Python with goverify.lie.attach_form\n")


def test_malformed_partition_is_an_error_line():
    code, err = _cli_error("check", "regular", "--family", "so", "--n", "6", "--partition", "2,x")
    assert code == 1 and err.startswith("error:") and "'2,x'" in err and "Traceback" not in err


@pytest.mark.parametrize("header", ["ambient x", "rows x"])
def test_malformed_subspace_header_is_an_error_line(header, tmp_path):
    from goverify.lie import embed_so_partition
    from goverify.subspaces import serialize_subspace
    text = serialize_subspace(embed_so_partition(6, (2, 2, 2)).subalgebra).splitlines()
    path = tmp_path / "bad.subspace"
    path.write_text("\n".join([header if line.startswith(header.split()[0]) else line
                               for line in text]) + "\n")
    code, err = _cli_error("check", "regular", "--family", "so", "--n", "6", "--subspace", str(path))
    assert code == 1 and err.startswith("error:") and header in err and "Traceback" not in err


def test_subspace_file_subgroup(tmp_path, capsys):
    from goverify.lie import build_classical, embed_so_partition
    from goverify.subspaces import serialize_subspace
    layout = embed_so_partition(6, (2, 2, 2))
    path = tmp_path / "torus.subspace"
    path.write_text(serialize_subspace(layout.subalgebra))
    code, out, _ = run_cli(["check", "regular", "--family", "so", "--n", "6",
                            "--subspace", str(path)], capsys)
    assert code == 0
    assert "regular: yes" in out


@pytest.mark.parametrize("criterion", ["go", "regular"])
def test_subspace_that_is_not_a_subalgebra_is_an_error_line(criterion, tmp_path):
    path = tmp_path / "plane.subspace"
    path.write_text("ambient 3\nrows 2\n1 0 0\n0 1 0\n")     # [e0, e1] = e2 leaves the plane
    code, err = _cli_error("check", criterion, "--family", "so", "--n", "3", "--subspace", str(path),
                           "--scalar", "1")
    assert code == 1 and err.startswith("error:") and "Traceback" not in err
    assert "not a subalgebra; pair (0, 1) escapes" in err


@pytest.mark.parametrize("criterion", ["go", "natred", "all"])
def test_zero_dimensional_table_is_an_error_line(criterion, tmp_path):
    path = tmp_path / "zero.table"
    path.write_text("dim 0\n")
    code, err = _cli_error("check", criterion, "--table", str(path), "--scalar", "1")
    assert code == 1 and err.startswith("error:") and "Traceback" not in err
    assert "dim must be positive" in err


def test_human_report_bi_invariant_phrase(capsys):
    code, out, _ = run_cli(["check", "natred", "--family", "so", "--n", "6",
                            "--partition", "2,2,2", "--params", "1,1,1,1,1,1"], capsys)
    assert code == 0
    assert "naturally reductive: yes (bi-invariant)" in out
