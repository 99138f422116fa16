"""Machine-readable reports with replayable exact certificates.

Machine format: one JSON object per line with sorted keys (stable bytes for
a fixed spec and seed).  The header embeds the full scenario spec and its
hash; every disproving verdict embeds the direction and the rank gap as
exact rationals, so `replay` can re-verify it from the report alone.
Wall-clock timings appear only in the human rendering, keeping the machine
bytes deterministic.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import __version__, arith

SCHEMA_VERSION = 1


def encode_fraction(value) -> str:
    return arith.fraction_str(arith.q(value))


def encode_vector(vec) -> list:
    return arith.Scaled.of(vec).strs()


# patterns compiled on first use (by ``re``'s cache), not at import
_RATIONAL = "-?[0-9]+(?:/0*[1-9][0-9]*)?"           # n or n/d, ASCII digits, d nonzero
_ENTRIES = f"{_RATIONAL}(?:,{_RATIONAL})*"
_SHORT = "-?[0-9]{1,18}(?:,-?[0-9]{1,18})*"         # integers below 10**18: int64 at once
_DENOMINATOR = "/([0-9]+)"


def decode_vectors(rows) -> arith.Scaled:
    """The ``(N, n)`` stack of ``N >= 1`` encoded vectors of ``n`` entries each, over
    the least common denominator, in one strict pass.

    The entries, joined by commas, must match ``-?[0-9]+(/[0-9]+)?`` with a
    nonzero denominator one by one (ASCII digits only), and the comma count
    rules out an entry holding a comma; only then is the text read, integers
    below ``10**18`` straight into int64.  Anything else is a
    :class:`ContractViolation` naming the first bad entry.
    """
    if not rows or not all(isinstance(row, list) for row in rows) \
            or any(len(row) != len(rows[0]) for row in rows):
        raise arith.ContractViolation("an encoded vector must be a list of strings")
    items = [s for row in rows for s in row]
    if not items:
        return arith.Scaled.zeros((len(rows), 0))
    try:
        text = ",".join(items)
    except TypeError:
        text = ""
    separated = text.count(",") == len(items) - 1
    if separated and re.fullmatch(_SHORT, text):
        return arith.Scaled(np.fromstring(text, dtype=np.int64, sep=",").reshape(len(rows), -1))
    if not (separated and re.fullmatch(_ENTRIES, text)):
        bad = next(s for s in items if not (isinstance(s, str) and re.fullmatch(_RATIONAL, s)))
        raise arith.ContractViolation(f"malformed rational {bad!r} in an encoded vector")
    chars = np.frombuffer(text.encode(), dtype=np.uint8)
    where = np.cumsum(chars == ord(","))[chars == ord("/")]     # the entry of each denominator
    denominators = [int(d) for d in re.findall(_DENOMINATOR, text)]
    scale = math.lcm(*denominators)
    factor = np.full(len(items), scale, dtype=object)
    factor[where] = [scale // d for d in denominators]
    numerators = re.sub(_DENOMINATOR, "", text)
    ints = (np.fromstring(numerators, dtype=np.int64, sep=",") if re.fullmatch(_SHORT, numerators)
            else np.array([int(s) for s in numerators.split(",")], dtype=object))
    return arith.Scaled((ints * factor).reshape(len(rows), -1), scale)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def spec_hash(spec_obj: dict) -> str:
    return hashlib.sha256(canonical_json(spec_obj).encode()).hexdigest()


@dataclass
class Report:
    spec: dict
    seed: int
    records: list[dict] = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def add(self, record: dict) -> None:
        self.records.append(record)

    @property
    def negatives(self) -> int:
        return sum(1 for r in self.records if r.get("negative", False))

    @property
    def exit_code(self) -> int:
        return 2 if self.negatives else 0

    def header(self) -> dict:
        return {
            "record": "header",
            "format": "goverify.report",
            "schema": SCHEMA_VERSION,
            "tool_version": __version__,
            "seed": self.seed,
            "backend": arith.EXACT,
            "spec": self.spec,
            "spec_hash": spec_hash(self.spec),
        }

    def to_machine(self) -> str:
        lines = [canonical_json(self.header())]
        lines.extend(canonical_json(r) for r in self.records)
        lines.append(canonical_json({
            "record": "summary",
            "negatives": self.negatives,
            "exit_code": self.exit_code,
        }))
        return "\n".join(lines) + "\n"

    def to_human(self) -> str:
        out = [f"goverify report  (seed={self.seed}, backend={arith.EXACT}, "
               f"spec {spec_hash(self.spec)[:12]})"]
        for r in self.records:
            out.append(_human_record(r, self.timings.get(r.get("name", ""), None)))
        out.append(f"negatives: {self.negatives}  exit code: {self.exit_code}")
        return "\n".join(out) + "\n"


_CRITERION_NOTES = {
    "validate": "structure axioms (antisymmetry, Jacobi, invariant form)",
    "regular": "normalized by a Cartan subalgebra of the ambient algebra",
    "weakly-regular": "no shared module between subalgebra and opposite complement",
    "equivariance": "operator commutes with the subalgebra action",
    "go": "witness solvability of [W+X, LX] = 0 over sampled directions",
    "natred": "vanishing of metric([X,Y]_m, X) on the reductive complement",
    "dazi": "scalar blocks on isometry ideals, one scalar on the complement",
    "split": "bi-invariant block on k, coset witness sweep on m",
    "sweep": "per-tuple agreement of the witness sweep with the normal form",
}


def _human_record(r: dict, timing) -> str:
    name = r.get("name", r.get("record", "?"))
    note = _CRITERION_NOTES.get(name, "")
    body = {k: v for k, v in r.items()
            if k not in {"record", "name", "certificates", "counterexample", "tuples"}}
    verdict = body.pop("verdict", None)
    extra = f" [{timing:.2f}s]" if timing is not None else ""
    head = f"  {name}: {_verdict_text(name, verdict, str(body.get('reason', '')))}{extra}"
    if note:
        head += f"\n      criterion: {note}"
    detail = ", ".join(f"{k}={v}" for k, v in sorted(body.items()) if not isinstance(v, (dict, list)))
    if detail:
        head += f"\n      {detail}"
    if "counterexample" in r and r["counterexample"]:
        head += f"\n      counterexample at {r['counterexample'].get('label', '?')}" \
                f" (rank gap {r['counterexample']['rank_a']} < {r['counterexample']['rank_ab']})"
    if name == "sweep" and "tuples" in r:
        agree = sum(1 for t in r["tuples"] if t["agree"])
        head += f"\n      tuples: {len(r['tuples'])}, agreement {agree}/{len(r['tuples'])}"
    return head


_DECISIONS = {"regular", "weakly-regular", "equivariance", "natred", "split", "sweep"}


def _verdict_text(name: str, verdict, reason: str = "") -> str:
    if verdict is None:
        return "done"
    if name in ("go", "go-isometry"):
        return str(verdict)
    if name == "dazi":
        if verdict:
            suffix = " (bi-invariant)" if "bi-invariant" in reason else ""
            return f"naturally reductive: yes{suffix}"
        return "naturally reductive: no"
    if isinstance(verdict, bool) and name in _DECISIONS:
        return "yes" if verdict else "no"
    if isinstance(verdict, bool):
        return "pass" if verdict else "FAIL"
    return str(verdict)


def parse_machine(text: str) -> tuple[dict, list[dict], dict]:
    """Split a machine report into header, records, and summary.

    Raises :class:`arith.ContractViolation` for a line that is not a JSON
    object, a missing header or summary, and a header whose spec no longer
    matches its ``spec_hash``.
    """
    header = None
    summary = None
    records = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            raise arith.ContractViolation(f"malformed report: line {number} is not JSON ({exc})")
        if not isinstance(obj, dict):
            raise arith.ContractViolation(f"malformed report: line {number} is not a JSON object")
        kind = obj.get("record")
        if kind == "header":
            header = obj
        elif kind == "summary":
            summary = obj
        else:
            records.append(obj)
    if header is None or summary is None:
        raise arith.ContractViolation("malformed report: missing header or summary")
    if "spec" not in header or spec_hash(header["spec"]) != header.get("spec_hash"):
        raise arith.ContractViolation("report spec hash mismatch")
    return header, records, summary
