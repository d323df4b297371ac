"""Netlink-style kernel↔userspace messaging.

Section 3.3.1 picks netlink because it is "bi-directional, asynchronous
and capable of multicasting".  The model is a multicast group: the LKM
multicasts queries to every subscribed application and receives unicast
replies tagged with the sender's application id.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.errors import ProtocolError

AppHandler = Callable[[Any], None]
KernelHandler = Callable[[int, Any], None]
#: (direction, app_id, message) -> messages to actually deliver.
#: ``direction`` is "multicast" or "to_kernel"; ``app_id`` is None for
#: multicasts.  Returning None passes the message through unchanged;
#: an empty iterable drops it; repeating it duplicates it.  Installed
#: by the fault injector (repro.faults) to model a lossy netlink path.
FaultFilter = Callable[[str, "int | None", Any], "Iterable[Any] | None"]


class NetlinkBus:
    """One netlink multicast group inside a guest."""

    def __init__(self, group: str = "javmm") -> None:
        self.group = group
        self._subscribers: dict[int, AppHandler] = {}
        self._kernel_handler: KernelHandler | None = None
        self.sent_to_apps: list[Any] = []
        self.sent_to_kernel: list[tuple[int, Any]] = []
        self.fault_filter: FaultFilter | None = None

    # -- kernel side -----------------------------------------------------------

    def bind_kernel(self, handler: KernelHandler) -> None:
        self._kernel_handler = handler

    def close(self) -> None:
        """Drop the kernel endpoint, every subscriber and any fault
        filter; the message logs stay readable."""
        self._kernel_handler = None
        self._subscribers.clear()
        self.fault_filter = None

    def multicast(self, message: Any, _bypass_faults: bool = False) -> int:
        """Deliver *message* to every subscriber; returns receiver count."""
        if self.fault_filter is not None and not _bypass_faults:
            receivers = 0
            for out in self._filtered("multicast", None, message):
                receivers = self.multicast(out, _bypass_faults=True)
            return receivers
        self.sent_to_apps.append(message)
        receivers = list(self._subscribers.items())
        for _, handler in receivers:
            handler(message)
        return len(receivers)

    # -- application side --------------------------------------------------------

    def subscribe(self, app_id: int, handler: AppHandler) -> None:
        if app_id in self._subscribers:
            raise ProtocolError(f"app {app_id} already subscribed to {self.group}")
        self._subscribers[app_id] = handler

    def unsubscribe(self, app_id: int) -> None:
        self._subscribers.pop(app_id, None)

    def send_to_kernel(self, app_id: int, message: Any, _bypass_faults: bool = False) -> None:
        if self._kernel_handler is None:
            raise ProtocolError("no kernel endpoint bound to this netlink group")
        if app_id not in self._subscribers:
            raise ProtocolError(f"app {app_id} is not subscribed to {self.group}")
        if self.fault_filter is not None and not _bypass_faults:
            for out in self._filtered("to_kernel", app_id, message):
                self.send_to_kernel(app_id, out, _bypass_faults=True)
            return
        self.sent_to_kernel.append((app_id, message))
        self._kernel_handler(app_id, message)

    def _filtered(self, direction: str, app_id: int | None, message: Any) -> list[Any]:
        assert self.fault_filter is not None
        out = self.fault_filter(direction, app_id, message)
        return [message] if out is None else list(out)

    @property
    def subscriber_ids(self) -> list[int]:
        return sorted(self._subscribers)

    def __len__(self) -> int:
        return len(self._subscribers)
