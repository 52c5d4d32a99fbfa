"""Check records, line-delimited serialization, and the summary document."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"
REFUSED = "REFUSED"


@dataclass(frozen=True)
class ReportRecord:
    check: str
    params: dict
    verdict: str
    evidence: dict = field(default_factory=dict)
    wall: float = 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "check": self.check,
                "params": self.params,
                "verdict": self.verdict,
                "evidence": self.evidence,
                "wall": round(self.wall, 6),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "ReportRecord":
        data = json.loads(line)
        return cls(
            check=data["check"],
            params=data["params"],
            verdict=data["verdict"],
            evidence=data.get("evidence", {}),
            wall=data.get("wall", 0.0),
        )


def write_records(path, records) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")


def read_records(path) -> list[ReportRecord]:
    out = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            out.append(ReportRecord.from_json(line))
    return out


def exit_code(records) -> int:
    verdicts = {rec.verdict for rec in records}
    if FAIL in verdicts:
        return 1
    if INCONCLUSIVE in verdicts or REFUSED in verdicts:
        return 2
    return 0


def summarize(records) -> tuple[str, dict]:
    """A human-readable summary plus the machine form.

    Each check's line carries its records' certificate-method mix, read
    from evidence["method"], and data["methods"] holds the same counts.
    """
    records = list(records)
    if not records:
        return "0 checks\n", {"total": 0, "checks": {}, "methods": {}}
    by_check: dict[str, dict[str, int]] = {}
    methods: dict[str, dict[str, int]] = {}  # check: certificate method: records
    for rec in records:
        by_check.setdefault(rec.check, {}).setdefault(rec.verdict, 0)
        by_check[rec.check][rec.verdict] += 1
        method = rec.evidence.get("method")
        if method is not None:
            mix = methods.setdefault(rec.check, {})
            mix[method] = mix.get(method, 0) + 1
    lines = [f"{len(records)} checks"]
    for check in sorted(by_check):
        counts = by_check[check]
        piece = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        if check in methods:
            mix = ", ".join(f"{m} {v}" for m, v in sorted(methods[check].items()))
            piece += f" ({mix})"
        lines.append(f"  {check}: {piece}")
    slowest = sorted(records, key=lambda r: -r.wall)[:5]
    lines.append("slowest:")
    for rec in slowest:
        lines.append(f"  {rec.wall:8.3f}s  {rec.check} {json.dumps(rec.params, sort_keys=True)}")
    bad = [r for r in records if r.verdict in (FAIL, INCONCLUSIVE, REFUSED)]
    if bad:
        lines.append("non-passing:")
        for rec in bad:
            lines.append(
                f"  {rec.verdict}: {rec.check} {json.dumps(rec.params, sort_keys=True)}"
            )
    else:
        lines.append("all records PASS")
    data = {
        "total": len(records),
        "checks": by_check,
        "methods": methods,
        "exit_code": exit_code(records),
        "non_passing": [
            {"check": r.check, "params": r.params, "verdict": r.verdict} for r in bad
        ],
    }
    return "\n".join(lines) + "\n", data
