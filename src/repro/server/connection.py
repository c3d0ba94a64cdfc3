"""Per-connection server state, including the TLS-ASYNC state of the
application-level TLS state machine (paper section 3.2) and the saved
read handler that guards against event disorder (section 4.2).
"""

from __future__ import annotations

from collections import deque
from enum import Enum, auto
from typing import Any, Callable, Deque, Optional

from ..net.epoll_sim import NotifyFd
from ..net.socket_sim import SimSocket
from ..ssl.connection import SslConnection

__all__ = ["ConnState", "ServerConnection"]


class ConnState(Enum):
    """Application-level TLS connection states."""

    HANDSHAKE = auto()
    #: Established, waiting for a client request (idle / keepalive).
    IDLE = auto()
    #: Reading or processing a request.
    READING = auto()
    #: Writing the response.
    WRITING = auto()
    #: Paused on an async crypto request (the new TLS-ASYNC state).
    TLS_ASYNC = auto()
    CLOSED = auto()


class ServerConnection:
    """One accepted TLS connection inside a worker."""

    def __init__(self, conn_id: int, sock: SimSocket,
                 ssl: SslConnection) -> None:
        self.conn_id = conn_id
        self.sock = sock
        self.ssl = ssl
        self.state = ConnState.HANDSHAKE
        #: State to restore when the async event is processed.
        self.prior_state: Optional[ConnState] = None
        #: The handler to reschedule on the async event (section 3.2).
        self.async_handler: Optional[Callable] = None
        #: Mirrors stub_status's idle count for this conn.  Teardown can
        #: be interrupted between the CLOSED transition and the stub
        #: update, so the flag — not ``state`` — is authoritative.
        self.stub_idle: bool = False
        #: True once stub_status counted the accept.  The accept path
        #: yields (EPOLL_CTL kernel crossing) between inserting the
        #: conn into the worker's table and the on_accept() update, so
        #: a kill() landing in that window must skip the close-side
        #: update or the alive count underflows.
        self.stub_open: bool = False
        #: Bumped on every TLS-ASYNC parking.  Notification-queue and
        #: retry entries are stamped with it so a stale entry (the conn
        #: was already resumed through the other channel and has parked
        #: on a *new* op) cannot re-run the handler and double-submit.
        self.async_token: int = 0
        #: A read event arrived while TLS-ASYNC: cleared & saved, to be
        #: restored after the async event is processed (section 4.2).
        self.saved_read_pending = False
        #: Peer closed; tear down once current processing completes.
        self.eof_pending = False
        #: Inbound application-data records not yet decrypted.
        self.pending_records: Deque[Any] = deque()
        #: One notification FD shared by all async jobs of this
        #: connection (the section 4.4 optimization).
        self.notify_fd: Optional[NotifyFd] = None
        #: Response bytes still to be written (continuation state).
        self.current_request: Optional[Any] = None
        self.requests_served = 0
        self.handshake_completed_at: Optional[float] = None
        #: When this connection entered TLS-ASYNC (watchdog deadline
        #: anchor); None while not paused.
        self.async_since: Optional[float] = None
        #: Earliest time a ring-full retry should be re-attempted
        #: (exponential submit backoff).
        self.retry_not_before = 0.0

    @property
    def in_async(self) -> bool:
        return self.state is ConnState.TLS_ASYNC

    def enter_async(self, handler: Callable) -> None:
        if self.state is ConnState.TLS_ASYNC:
            raise RuntimeError("already in TLS-ASYNC")
        self.prior_state = self.state
        self.state = ConnState.TLS_ASYNC
        self.async_handler = handler
        self.async_token += 1

    def leave_async(self) -> Callable:
        if self.state is not ConnState.TLS_ASYNC:
            raise RuntimeError("not in TLS-ASYNC")
        handler = self.async_handler
        self.state = self.prior_state
        self.prior_state = None
        self.async_handler = None
        self.async_since = None
        return handler

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ServerConnection {self.conn_id} {self.state.name}>"
