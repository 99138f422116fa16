"""Command-line front end.

Verbs: ``algebra validate``, ``check <criterion>``, ``sweep equivalence``,
``scenario list|run``, ``replay``.  Exit codes: 0 all checks pass, 2 at
least one negative verdict (not an error), 1 usage or validation error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import arith, scenarios
from .lie import ValidationError
from .scenarios import ALL_CHECKS, ScenarioSpec, run_check, scenario_catalog, with_sweep_tuples


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, not argparse's 2, which
    here means a negative verdict; subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser, metric: bool = True):
    parser.add_argument("--family", choices=["so", "su", "sp", "abelian"])
    parser.add_argument("--n", type=int)
    parser.add_argument("--table", type=Path, help="structure-table file instead of a family")
    parser.add_argument("--partition", help="comma-separated parts, e.g. 2,2,2")
    parser.add_argument("--subspace", type=Path, help="subgroup basis file (subspace format)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=64)
    parser.add_argument("--out", type=Path, help="write the machine report here")
    parser.add_argument("--machine", action="store_true", help="print the machine report")
    if metric:
        parser.add_argument("--params", help="comma-separated block parameters "
                                             "(k1..ks then m-blocks in pair order)")
        parser.add_argument("--scalar", help="scalar metric parameter")
        parser.add_argument("--blockspec", type=Path, help="block-spec file")


def _algebra_spec(args) -> dict:
    if args.table is not None:
        return {"table": args.table.read_text()}
    if args.family is None or args.n is None:
        raise SystemExit("error: need --family/--n or --table")
    return {"family": args.family, "n": args.n}


def _subgroup_spec(args) -> dict | None:
    if args.partition and getattr(args, "subspace", None):
        raise SystemExit("error: give either --partition or --subspace")
    if args.partition:
        try:
            return {"partition": [int(p) for p in args.partition.split(",")]}
        except ValueError:
            raise SystemExit("error: --partition needs comma-separated integers, "
                             f"not {args.partition!r}") from None
    if getattr(args, "subspace", None):
        return {"subspace": args.subspace.read_text()}
    return None


def _metric_spec(args) -> dict | None:
    given = [s for s in ("params", "scalar", "blockspec") if getattr(args, s, None)]
    if len(given) > 1:
        raise SystemExit("error: give at most one of --params/--scalar/--blockspec")
    if getattr(args, "params", None):
        return {"params": args.params.split(",")}
    if getattr(args, "scalar", None):
        return {"scalar": args.scalar}
    if getattr(args, "blockspec", None):
        return {"blockspec": args.blockspec.read_text()}
    return None


def _spec_from_args(args, name: str, checks: tuple[str, ...]) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        algebra=_algebra_spec(args),
        subgroup=_subgroup_spec(args),
        metric=_metric_spec(args),
        checks=checks,
        seed=args.seed,
        samples=args.samples,
    )


def _emit(report, args) -> int:
    machine = report.to_machine()
    if args.out:
        args.out.write_text(machine)
    if getattr(args, "machine", False):
        sys.stdout.write(machine)
    else:
        sys.stdout.write(report.to_human())
    return report.exit_code


CHECK_SETS = {
    "regular": ("validate", "regular"),
    "weakly-regular": ("validate", "weakly-regular"),
    "go": ("validate", "equivariance", "go"),
    "natred": ("validate", "equivariance", "natred", "dazi"),
    "split": ("validate", "weakly-regular", "equivariance", "go", "split"),
    "all": ALL_CHECKS,
}


def main(argv=None) -> int:
    parser = _Parser(prog="goverify",
                     description="geodesic-orbit / naturally-reductive "
                                 "metric verifier for compact Lie algebras")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_algebra = sub.add_parser("algebra", help="algebra-level operations")
    algebra_sub = p_algebra.add_subparsers(dest="what", required=True)
    p_validate = algebra_sub.add_parser("validate", help="validate structure constants")
    _add_common(p_validate, metric=False)

    p_check = sub.add_parser("check", help="run one verification criterion")
    p_check.add_argument("criterion", choices=sorted(CHECK_SETS))
    _add_common(p_check)

    p_sweep = sub.add_parser("sweep", help="parameter-grid sweeps")
    p_sweep.add_argument("what", choices=["equivalence"])
    _add_common(p_sweep, metric=False)
    p_sweep.add_argument("--tuples", type=int, default=200)

    p_scenario = sub.add_parser("scenario", help="built-in case studies")
    scenario_sub = p_scenario.add_subparsers(dest="what", required=True)
    scenario_sub.add_parser("list", help="list catalog entries")
    p_run = scenario_sub.add_parser("run", help="run a catalog entry")
    p_run.add_argument("name")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--tuples", type=int, default=None,
                       help="override grid size (smoke runs)")
    p_run.add_argument("--samples", type=int, default=None)
    p_run.add_argument("--out", type=Path)
    p_run.add_argument("--machine", action="store_true")

    p_replay = sub.add_parser("replay", help="re-verify certificates of a machine report")
    p_replay.add_argument("report", type=Path)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValidationError, arith.ContractViolation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.verb == "algebra":
        spec = _spec_from_args(args, "cli-validate", ("validate",))
        return _emit(run_check(spec), args)

    if args.verb == "check":
        spec = _spec_from_args(args, f"cli-check-{args.criterion}", CHECK_SETS[args.criterion])
        return _emit(run_check(spec), args)

    if args.verb == "sweep":
        spec = _spec_from_args(args, "cli-sweep-equivalence", ("validate", "sweep"))
        spec = ScenarioSpec.from_obj({**spec.to_obj(),
                                      "metric": {"grid": {"tuples": args.tuples}}})
        return _emit(run_check(spec), args)

    if args.verb == "scenario":
        catalog = scenario_catalog()
        if args.what == "list":
            for name, spec in sorted(catalog.items()):
                print(f"{name}: algebra={spec.algebra.get('family', 'table')}"
                      f"{spec.algebra.get('n', '')} checks={','.join(spec.checks)}")
            return 0
        if args.name not in catalog:
            print(f"error: unknown scenario {args.name!r}", file=sys.stderr)
            return 1
        spec = catalog[args.name]
        obj = spec.to_obj()
        if args.seed is not None:
            obj["seed"] = args.seed
        if args.samples is not None:
            obj["samples"] = args.samples
        spec = ScenarioSpec.from_obj(obj)
        if args.tuples is not None:
            spec = with_sweep_tuples(spec, args.tuples)
        return _emit(run_check(spec), args)

    if args.verb == "replay":
        outcome = scenarios.replay_report(args.report.read_text())
        print(f"replay: verified={outcome['verified']} failed={outcome['failed']}")
        return 0 if outcome["ok"] else 1

    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
