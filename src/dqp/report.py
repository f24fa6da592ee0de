"""Report structures shared by every command, and their renderings.

A report is the command name, an echo of the parsed inputs, a results
payload, and a list of named checks.  The JSON rendering is the machine
interface: schema-tagged, keys sorted, integers only (rationals would
be rendered as "num/den" strings), so parsing and re-rendering is the
identity on bytes.  Wall-clock timings are kept on the report object
for the human table rendering but stay out of the JSON and CSV, which
must not change between identical runs.

Dimension-indexed tables travel as lists of [dimension, value] pairs in
descending dimension order; JSON objects would order keys as strings
and read back "10" before "2".  They are built as ``DimensionTable``,
a list that JSON renders like any other, so the table and CSV renderings
tell them from other lists of int pairs, such as chow's classes.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

SCHEMA = "dqp-invariants/1"
# The verify command's suites and default pmax.  They live here, in a
# module every command executes, so that building the argument parser does
# not execute dqp.verify; verify re-exports them under the same names.
SCOPES = ("all", "core", "chow", "closure", "ffcount")
DEFAULT_PMAX = 4

__all__ = [
    "Check", "Report", "SCHEMA", "SCOPES", "DEFAULT_PMAX", "DimensionTable", "dimension_table"
]


@dataclass(frozen=True)
class Check:
    """One named verification with a deterministic detail string."""

    name: str
    status: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status not in ("pass", "fail"):
            raise ValueError(f"check status must be pass or fail (got {self.status!r})")

    @classmethod
    def of(cls, name: str, ok: bool, detail: str, fail_detail: str = "") -> Check:
        """Pass with ``detail`` when ``ok``, else fail with ``fail_detail`` or ``detail``."""
        if ok:
            return cls(name, "pass", detail)
        return cls(name, "fail", fail_detail or detail)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class DimensionTable(list):
    """[dimension, value] pairs, highest dimension first."""


def dimension_table(entries: dict[int, int]) -> DimensionTable:
    """Dict keyed by dimension -> [dimension, value] pairs, highest first."""
    return DimensionTable([d, entries[d]] for d in sorted(entries, reverse=True))


@dataclass
class Report:
    command: str
    inputs: dict
    results: dict
    checks: list[Check] = field(default_factory=list)
    elapsed: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in self.checks
            ],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def render_table(self) -> str:
        lines = [f"command: {self.command}"]
        if self.inputs:
            lines.append("inputs:")
            for key in self.inputs:
                lines.append(f"  {key} = {self.inputs[key]}")
        if self.results:
            lines.append("results:")
            lines.extend(_render_value(self.results, indent=1))
        if self.checks:
            lines.append("checks:")
            for c in self.checks:
                mark = "pass" if c.passed else "FAIL"
                suffix = f": {c.detail}" if c.detail else ""
                lines.append(f"  [{mark}] {c.name}{suffix}")
        if self.elapsed:
            lines.append("elapsed:")
            for section, seconds in self.elapsed.items():
                lines.append(f"  {section}: {seconds:.3f}s")
        return "\n".join(lines) + "\n"

    def render_csv(self) -> str:
        import csv  # only --format csv pays for it
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["section", "key", "value", "detail"])
        for key, value in self.inputs.items():
            writer.writerow(["inputs", key, value, ""])
        for section, key, value in _flatten("results", self.results):
            writer.writerow([section, key, value, ""])
        for c in self.checks:
            writer.writerow(["checks", c.name, c.status, c.detail])
        return buffer.getvalue()


def _render_value(value, indent: int) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key, sub in value.items():
            if isinstance(sub, (dict, list)) and sub and not _is_scalar_list(sub):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_value(sub, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(sub)}")
    elif isinstance(value, DimensionTable):
        for d, v in value:
            lines.append(f"{pad}dim {d}: {v}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, dict) or (
                isinstance(item, list) and not _is_scalar_list(item)
            ):
                lines.append(f"{pad}-")
                lines.extend(_render_value(item, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    else:
        lines.append(f"{pad}{_scalar(value)}")
    return lines


def _is_scalar_list(value) -> bool:
    return isinstance(value, list) and all(
        not isinstance(item, (dict, list)) for item in value
    )


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(_scalar(v) for v in value) + "]"
    return str(value)


def _flatten(prefix: str, value):
    """Yield (section, key, value) rows for the CSV rendering."""
    if isinstance(value, dict):
        for key, sub in value.items():
            if isinstance(sub, DimensionTable):
                for d, v in sub:
                    yield f"{prefix}.{key}", str(d), v
            elif isinstance(sub, dict):
                yield from _flatten(f"{prefix}.{key}", sub)
            elif isinstance(sub, list) and not _is_scalar_list(sub):
                for i, item in enumerate(sub):
                    yield from _flatten(f"{prefix}.{key}[{i}]", item)
            else:
                yield prefix, key, _scalar(sub)
    else:
        yield prefix, "", _scalar(value)
