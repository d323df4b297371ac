"""Xen event channels.

The framework creates "a special event channel port ... when the guest
VM is created, through which the migration daemon can communicate with
the LKM throughout the migration process" (Section 3.3.1).  The model
is a bidirectional message pipe with named endpoints, synchronous
delivery and a full message trace for protocol tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ProtocolError

Handler = Callable[[Any], None]


@dataclass
class _TraceEntry:
    direction: str  # "daemon->guest" or "guest->daemon"
    message: Any
    time: float = 0.0


@dataclass
class EventChannel:
    """A two-endpoint notification channel with message payloads."""

    port: int = 0
    _daemon_handler: Handler | None = None
    _guest_handler: Handler | None = None
    trace: list[_TraceEntry] = field(default_factory=list)
    #: optional clock hook so traces carry simulated timestamps
    now_fn: Callable[[], float] | None = None

    def bind_daemon(self, handler: Handler) -> None:
        self._daemon_handler = handler

    def bind_guest(self, handler: Handler) -> None:
        self._guest_handler = handler

    def unbind(self) -> None:
        """Drop both endpoints; the trace stays readable."""
        self._daemon_handler = None
        self._guest_handler = None

    def _now(self) -> float:
        return self.now_fn() if self.now_fn else 0.0

    def send_to_guest(self, message: Any) -> None:
        """Daemon → LKM notification."""
        if self._guest_handler is None:
            raise ProtocolError("no guest endpoint bound to this event channel")
        self.trace.append(_TraceEntry("daemon->guest", message, self._now()))
        self._guest_handler(message)

    def send_to_daemon(self, message: Any) -> None:
        """LKM → daemon notification."""
        if self._daemon_handler is None:
            raise ProtocolError("no daemon endpoint bound to this event channel")
        self.trace.append(_TraceEntry("guest->daemon", message, self._now()))
        self._daemon_handler(message)

    def messages(self, direction: str | None = None) -> list[Any]:
        """Traced messages, optionally filtered by direction."""
        return [
            e.message
            for e in self.trace
            if direction is None or e.direction == direction
        ]
