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


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _decode_rational(text) -> tuple[int, int]:
    """``n`` or ``n/d`` (d positive) as the reduced pair ``(n, d)``."""
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    num, den = (int(match[1]), int(match[2] or 1)) if match else (0, 0)
    if den == 0:
        raise arith.ContractViolation(f"malformed rational {text!r} in an encoded vector")
    g = math.gcd(num, den)
    return num // g, den // g


def decode_vector(items) -> arith.Scaled:
    """Encoded entries, parsed as two ints each, over their least common denominator."""
    if not isinstance(items, list):
        raise arith.ContractViolation("an encoded vector must be a list of strings")
    pairs = [_decode_rational(s) for s in items]
    scale = math.lcm(*(d for _, d in pairs))
    return arith.Scaled(np.array([n * (scale // d) for n, d in pairs], dtype=object), scale)


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
