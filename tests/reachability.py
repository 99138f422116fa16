"""The functions of ``src/goverify`` that the small catalog scenarios and the
README's command lines never enter.

Runs the catalog scenarios so6-222-grid, so9-333-regularity, su3-torus-flag,
triple-shape-demo and so12-partition4-genmet1 (sweeps cut to 6 tuples) and
replays each report, then every ``goverify`` line of the README's CLI block
through ``cli.main`` in a temporary directory (sweeps cut to 6 tuples, the
so(5) structure table as ``my_algebra.table``, sp(1) + sp(1) in sp(2) as
``my_subgroup.subspace``, a six-block metric of so(6)/(2,2,2) as
``my_metric.blockspec``, and every command that takes ``--out`` writing
``report.jsonl``, which the README's replay line replays),
all in-process under a ``sys.setprofile`` hook.  Then it prints every function
defined in ``src/goverify`` that was never called, one Markdown list item
each.  Report only: it exits 0 whatever it finds.

    PYTHONPATH=src python3 tests/reachability.py

pytest does not collect this file (its name has no ``test_`` prefix).
"""

import ast
import contextlib
import io
import shlex
import sys
import tempfile
import time
from pathlib import Path

from goverify import cli, scenarios
from goverify.lie import build_classical, serialize_structure_table
from goverify.subspaces import Subspace, serialize_subspace

SCENARIOS = ("so6-222-grid", "so9-333-regularity", "su3-torus-flag", "triple-shape-demo",
             "so12-partition4-genmet1")
SWEEP_TUPLES = 6
INPUTS = (".table", ".subspace", ".blockspec", ".jsonl")
PACKAGE = Path(scenarios.__file__).resolve().parent
README = PACKAGE.parent.parent / "README.md"


def defined_functions() -> dict[tuple[str, int], str]:
    """``(file, first line) -> module.qualified.name`` of every function in the
    package; the first line is that of a code object, the first decorator's."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE.parent).with_suffix("").as_posix().replace("/", ".")

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[str(path), first] = f"{module}.{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")

        visit(ast.parse(path.read_text()), "")
    return found


def readme_commands(workdir: Path) -> list[list[str]]:
    """The arguments of every ``goverify`` line of the README's CLI block, comments
    dropped, with files in ``workdir``, sweeps cut to ``SWEEP_TUPLES`` tuples and
    ``--out report.jsonl`` on every command that takes it."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        if not line.startswith("goverify "):
            continue
        args = shlex.split(line, comments=True)[1:]
        if "--tuples" in args:
            args[args.index("--tuples") + 1] = str(SWEEP_TUPLES)
        if args[0] not in ("replay", "scenario") or args[1] == "run":
            args += ["--out", "report.jsonl"]
        commands.append([str(workdir / a) if a.endswith(INPUTS) else a for a in args])
    return commands


def run_readme() -> None:
    """Every README command line through ``cli.main``, its output discarded."""
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        (workdir / "my_algebra.table").write_text(serialize_structure_table(build_classical("so", 5)))
        sp1_sp1 = Subspace.from_indices(build_classical("sp", 2), [2, 3, 4, 5, 8, 9])
        (workdir / "my_subgroup.subspace").write_text(serialize_subspace(sp1_sp1))
        (workdir / "my_metric.blockspec").write_text("".join(
            f"block {name} scalar {value}\n" for name, value in
            (("k1", 1), ("k2", 1), ("k3", 1), ("m1_2", 2), ("m1_3", 3), ("m2_3", "5/2"))))
        for args in readme_commands(workdir):
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = cli.main(args)
            print(f"- goverify {' '.join(Path(a).name for a in args)}: exit {code}"
                  f"{', ' + out.getvalue().strip() if args[0] == 'replay' else ''}, "
                  f"{time.perf_counter() - start:.1f} s under the profile hook", file=sys.stderr)


def entered_code() -> set:
    """``(file, first line)`` of every code object called while the scenarios run and
    replay and the README's command lines run."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        catalog = scenarios.scenario_catalog()
        for name in SCENARIOS:
            start = time.perf_counter()
            spec = scenarios.with_sweep_tuples(catalog[name], SWEEP_TUPLES)
            outcome = scenarios.replay_report(scenarios.run_check(spec).to_machine())
            print(f"- {name}: replay verified={outcome['verified']} failed={outcome['failed']}, "
                  f"{time.perf_counter() - start:.1f} s under the profile hook", file=sys.stderr)
        run_readme()
    finally:
        sys.setprofile(None)
    return {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in entered}


def main() -> int:
    functions = defined_functions()
    entered = entered_code()
    missed = sorted(name for key, name in functions.items() if key not in entered)
    print(f"Functions of src/goverify never entered by {', '.join(SCENARIOS)}, their replays "
          f"and the README's command lines ({len(missed)} of {len(functions)}):\n")
    print("\n".join(f"- `{name}`" for name in missed) or "- none")
    return 0


if __name__ == "__main__":
    sys.exit(main())
