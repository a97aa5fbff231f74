"""Protocol limits: every byte and every second a client may cost us.

The HTTP front end assumed a friendly network: ``readuntil`` with no
deadline, bodies read whole, one connection per request with nothing
counting how many are open.  A hostile peer — a slowloris dripping one
header byte a second, a client posting an 8 GiB body, ten thousand idle
sockets — could hold memory and admission slots forever.

:class:`ProtocolLimits` names every bound in one frozen dataclass so the
server, the CLI, and the docs cannot drift apart.  Two ceilings are
**hard**: no configuration may raise ``max_header_bytes`` above
:data:`HARD_MAX_HEADER_BYTES` or ``max_body_bytes`` above
:data:`HARD_MAX_BODY_BYTES` — values beyond them are clamped at
construction, so *no* configuration of the server is memory-unbounded
(the regression tests in ``tests/test_svc_hardening.py`` pin this).

Each limit maps to one observable refusal (docs/SERVICE.md, "Overload
and hostile networks"):

=====================================  ======================================
limit                                   refusal
=====================================  ======================================
``max_request_line_bytes``              431 Request Header Fields Too Large
``max_header_bytes``                    431 (also the stream buffer limit)
``max_body_bytes``                      413 Payload Too Large
``header_timeout_s``                    408 Request Timeout (slowloris)
``body_timeout_s``                      408 Request Timeout (drip-fed body)
``max_connections``                     503 + ``Retry-After`` at accept
``reserved_read_connections``           429 for compute when the lane is full
``max_requests_per_connection``         ``Connection: close`` on the last one
``keepalive_idle_s``                    silent close of an idle connection
``events_drain_timeout_s``              disconnect of a stalled event reader
``events_buffer_bytes``                 write-buffer bound per event stream
=====================================  ======================================
"""

from __future__ import annotations

from dataclasses import dataclass

#: No configuration may buffer more header bytes than this (64 KiB).
HARD_MAX_HEADER_BYTES = 64 * 1024
#: No configuration may buffer more body bytes than this (8 MiB).
HARD_MAX_BODY_BYTES = 8 * 1024 * 1024


@dataclass(frozen=True)
class ProtocolLimits:
    """Wire-protocol bounds for one :class:`~repro.svc.http.ServiceServer`.

    Every field has a conservative default, so a server constructed with
    ``ProtocolLimits()`` is already hardened.  The CLI exposes seven of
    them as ``serve`` flags; ``max_request_line_bytes``,
    ``keepalive_idle_s``, ``events_drain_timeout_s`` and
    ``events_buffer_bytes`` are set only here.  Size limits are clamped
    to the hard ceilings above.
    """

    #: Maximum bytes of request line + headers before 431.
    max_header_bytes: int = 16 * 1024
    #: Maximum declared/read body bytes before 413.
    max_body_bytes: int = 4 * 1024 * 1024
    #: Maximum bytes of the request line alone before 431.
    max_request_line_bytes: int = 4096
    #: Seconds to receive the complete header block before 408.
    header_timeout_s: float = 10.0
    #: Seconds to receive the complete body before 408.
    body_timeout_s: float = 30.0
    #: Seconds a keep-alive connection may sit idle between requests.
    keepalive_idle_s: float = 15.0
    #: Open connections beyond this are refused with 503 + Retry-After.
    max_connections: int = 256
    #: Connection headroom reserved for read-only routes: compute requests
    #: (POST /v1/cells, /v1/sweeps) may use at most
    #: ``max_connections - reserved_read_connections`` slots concurrently,
    #: so O(1) cached reads are never starved by compute traffic.
    reserved_read_connections: int = 32
    #: Requests served per keep-alive connection before ``Connection:
    #: close`` (bounds per-connection state and amortized abuse).
    max_requests_per_connection: int = 100
    #: Seconds a ``/v1/events`` consumer may stall ``drain()`` before the
    #: connection is aborted (a reader that stops reading must not make
    #: the server buffer without bound).
    events_drain_timeout_s: float = 10.0
    #: Transport write-buffer high watermark per event stream.
    events_buffer_bytes: int = 64 * 1024

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "max_header_bytes",
            min(self.max_header_bytes, HARD_MAX_HEADER_BYTES),
        )
        object.__setattr__(
            self, "max_body_bytes",
            min(self.max_body_bytes, HARD_MAX_BODY_BYTES),
        )
        object.__setattr__(
            self, "max_request_line_bytes",
            min(self.max_request_line_bytes, self.max_header_bytes),
        )
        for name in (
            "max_header_bytes", "max_body_bytes", "max_request_line_bytes",
            "max_connections", "max_requests_per_connection",
            "events_buffer_bytes",
        ):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in (
            "header_timeout_s", "body_timeout_s", "keepalive_idle_s",
            "events_drain_timeout_s",
        ):
            if float(getattr(self, name)) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if self.reserved_read_connections < 0:
            raise ValueError("reserved_read_connections must be >= 0")

    @property
    def compute_connections(self) -> int:
        """Concurrent compute requests allowed (the compute lane width):
        total connections minus the read-only reservation, floor 1."""
        return max(1, self.max_connections - self.reserved_read_connections)
