"""B-file parsing and sequence conformance checking.

A b-file is the OEIS bulk format: one `index value` pair per line, `#` for
comment lines, indices consecutive.  verify() compares parsed records
against this package's g or gbar and reports mismatches as data (a report),
not as exceptions; only malformed input raises.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import DomainError, GapError, ParseError
from .fibonacci import VALUE_LIMIT
from .flip_gbar import gbar
from .g_func import g


# resolve_offset tries these offsets, which cover the usual OEIS index
# conventions around 0, against this many leading records.
_OFFSETS = range(-3, 4)
_PROBE = 10


class BFileRecord(NamedTuple):
    index: int
    value: int


class Mismatch(NamedTuple):
    index: int
    file_value: int
    computed: int


def parse_bfile(text: str) -> list[BFileRecord]:
    """Parse b-file text into records.

    Tolerates blank lines, `#` comments, trailing whitespace and CRLF line
    ends.  Raises ParseError (malformed line) or GapError (indices not
    consecutive), both carrying the 1-based line number.
    """
    records: list[BFileRecord] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(line_no, f"expected 2 fields, got {len(fields)}")
        try:
            for field in fields:  # int() alone would take "1_0", "+0", "١"
                if not (field[field.startswith("-"):].isdigit() and field.isascii()):
                    raise ValueError
            index, value = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(line_no, f"non-integer field in {line!r}") from None
        if index < 0:
            raise ParseError(line_no, f"negative index {index}")
        if not 0 <= value < VALUE_LIMIT:
            raise ParseError(line_no, f"value {value} outside the supported range")
        if records and index != records[-1].index + 1:
            raise GapError(
                line_no,
                f"index {index} does not follow {records[-1].index}")
        records.append(BFileRecord(index, value))
    return records


def render_bfile(records: Iterable[BFileRecord]) -> str:
    """Render records back to b-file text (inverse of parse_bfile)."""
    return "".join(f"{r.index} {r.value}\n" for r in records)


class VerifyReport(NamedTuple):
    func: str
    offset: int
    compared: int
    mismatches: int
    first_mismatch: Mismatch | None

    @property
    def ok(self) -> bool:
        return self.mismatches == 0

    def to_text(self) -> str:
        fields = self._asdict()
        m = fields.pop("first_mismatch")
        lines = [f"{key}: {value}" for key, value in fields.items()]
        if m is not None:
            lines.append(f"first mismatch: index {m.index} file {m.file_value} "
                         f"computed {m.computed}")
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def summary_json(self) -> str:
        """One-line machine-readable summary (schema in the README)."""
        import json  # only this method needs it: keeps it off `import hofg`

        fields = self._asdict()
        m = fields["first_mismatch"]
        fields["first_mismatch"] = None if m is None else m._asdict()
        return json.dumps({**fields, "ok": self.ok})


def verify(records: list[BFileRecord], func: str, offset: int = 0) -> VerifyReport:
    """Compare records against func; record index i maps to argument i + offset.

    Mismatching values are data, not errors: they are counted and the first
    one is kept with both sides.  A report with zero mismatches over zero
    records is vacuously ok.
    """
    if func not in ("g", "gbar"):
        raise DomainError(f"verify: func must be 'g' or 'gbar', got {func!r}")
    fn = g if func == "g" else gbar
    if records and records[0].index + offset < 0:
        raise DomainError(
            f"verify: offset {offset} sends index {records[0].index} below 0")
    if records:
        fn(records[-1].index + offset)  # one bulk fill, then cheap lookups
    mismatches = 0
    first: Mismatch | None = None
    for index, value in records:
        computed = fn(index + offset)
        if computed != value:
            if first is None:
                first = Mismatch(index, value, computed)
            mismatches += 1
    return VerifyReport(func, offset, len(records), mismatches, first)


def resolve_offset(records: list[BFileRecord], func: str) -> int:
    """Find the offset under which the first _PROBE records match func.

    Returns the first of _OFFSETS (in order) that matches; raises
    DomainError when none does.
    """
    if func not in ("g", "gbar"):
        raise DomainError(f"resolve_offset: func must be 'g' or 'gbar', got {func!r}")
    head = records[:_PROBE]
    if not head:
        raise DomainError("resolve_offset: no records to probe")
    for offset in _OFFSETS:
        if head[0].index + offset >= 0 and verify(head, func, offset).ok:
            return offset
    raise DomainError(f"resolve_offset: no candidate offset matches {func}")
