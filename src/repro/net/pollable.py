"""Pollable objects: the file-descriptor abstraction of the simulated
kernel. Sockets, listeners and notification FDs are pollable; the
epoll model watches them."""

from __future__ import annotations

from itertools import count
from typing import Dict

__all__ = ["Pollable", "wait_readable"]

_fd_counter = count(3)  # 0-2 are "stdio"


class Pollable:
    """Base class for things an epoll can watch."""

    def __init__(self) -> None:
        self.fd = next(_fd_counter)
        self._readable = False
        # Insertion-ordered (dict-as-set) for deterministic wakeups.
        self._watchers: Dict[object, None] = {}  # Epolls / one-shot waiters

    @property
    def readable(self) -> bool:
        return self._readable

    def _mark_readable(self) -> None:
        if not self._readable:
            self._readable = True
            for ep in list(self._watchers):
                ep._notify(self)
        else:
            # Already readable; still nudge watchers in case a waiter
            # registered after the previous notification.
            for ep in list(self._watchers):
                ep._notify(self)

    def _clear_readable(self) -> None:
        self._readable = False


class _ReadableWaiter:
    """One-shot watcher that succeeds ``event`` on the first wakeup."""

    __slots__ = ("event",)

    def __init__(self, event) -> None:
        self.event = event

    def _notify(self, p: Pollable) -> None:
        p._watchers.pop(self, None)
        if not self.event.triggered:
            self.event.succeed()


def wait_readable(sim, pollable: Pollable):
    """Return an event that fires when ``pollable`` becomes readable.

    A lightweight one-shot watcher for client processes (which do not
    model kernel/epoll costs — client machines are not the system
    under test).
    """
    event = sim.event(name=f"readable-fd{pollable.fd}")
    if pollable.readable:
        event.succeed()
        return event
    pollable._watchers[_ReadableWaiter(event)] = None
    return event
