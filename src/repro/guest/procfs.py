"""A minimal /proc entry.

Applications "specify each skip-over area by a VA range, and pass the
VA range to the LKM via a /proc entry" (Section 3.3.2).  The entry
accepts lines of the form::

    <app_id> <query_id> <start_hex>-<end_hex>

one line per area; writes are parsed immediately and handed to the
registered handler.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ProtocolError
from repro.mem.address import VARange

AreaHandler = Callable[[int, int, VARange], None]


class ProcEntry:
    """A write-only /proc file that receives skip-over area registrations."""

    def __init__(self, path: str, handler: AreaHandler) -> None:
        self.path = path
        self._handler = handler
        self.lines_written: int = 0

    def close(self) -> None:
        """Drop the handler; later writes are refused."""
        self._handler = None

    def write(self, text: str) -> int:
        """Parse and deliver each non-empty line; returns bytes consumed."""
        if self._handler is None:
            raise ProtocolError(f"{self.path} is closed")
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            try:
                app_field, qid_field, range_field = line.split()
                start_text, end_text = range_field.split("-")
                app_id = int(app_field)
                query_id = int(qid_field)
                area = VARange(int(start_text, 16), int(end_text, 16))
            except ValueError as exc:
                raise ProtocolError(f"malformed /proc write: {line!r}") from exc
            self.lines_written += 1
            self._handler(app_id, query_id, area)
        return len(text)


def format_area_line(app_id: int, query_id: int, area: VARange) -> str:
    """Render one registration line in the entry's wire format."""
    return f"{app_id} {query_id} {area.start:x}-{area.end:x}\n"
