"""Localhost socket frontend: length-prefixed JSON over TCP.

The wire protocol is deliberately simple (stdlib-only on both ends): each
message is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON.  Requests carry an ``op``:

.. code-block:: json

    {"op": "score", "id": 7, "frame": [[0.1, 0.2], [0.3, 0.4]],
     "client": "cam-front", "priority": "critical"}
    {"op": "ping",  "id": 8}
    {"op": "stats", "id": 9}

``client`` (a quota identity) and ``priority`` (a
:data:`~repro.serving.qos.PRIORITY_CLASSES` name) are optional and only
meaningful against an engine configured with a QoS policy.  Score
responses mirror the engine's typed outcomes via a ``status`` field:
``"ok"`` (with ``score`` / ``is_novel`` / ``margin`` / ``batch_size`` /
``latency_ms``), ``"rejected"`` (refused before queueing; with
``reason`` — an admission-policy reason or ``"queue_full"`` —
``qos_class`` and optionally ``retry_after_ms``), ``"deadline_exceeded"``,
``"degraded"``, ``"failed"`` (also when the server stops waiting for an
answer after its ``request_timeout_s``), or ``"error"`` for malformed
requests.  The request's ``id`` is echoed back verbatim.  A message that
is not UTF-8 JSON drops the connection.

Tracing: a score request may carry a ``"trace"`` object (the
``to_dict()`` form of a :class:`~repro.telemetry.TraceContext`) to parent
the server's spans under the client's trace; with server telemetry active
every score response carries the request's ``trace_id``, the handle
``repro trace`` renders.

:class:`ServingServer` accepts connections on a thread per client and
feeds frames into a :class:`~repro.serving.engine.ServingEngine`;
:class:`ServingClient` is the matching blocking client used by the load
generator, the tests, and as a reference for third-party clients.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    RequestFailedError,
    RequestRejectedError,
    RequestTimedOutError,
    SerializationError,
    ServerOverloadedError,
    ServingError,
    ShapeError,
)
from repro.nn.backend.policy import as_tensor
from repro.serving.engine import ServingEngine
from repro.serving.results import (
    DeadlineExceeded,
    Degraded,
    Failed,
    PendingResult,
    Rejected,
    RequestOutcome,
    Scored,
)
from repro.telemetry import TraceContext, get_telemetry
from repro.utils.log import get_logger

_log = get_logger(__name__)

_LENGTH = struct.Struct(">I")

#: Upper bound on one message; a 60x160 float frame is ~300 kB as JSON.
MAX_MESSAGE_BYTES = 16 * 1024 * 1024


def send_message(sock: socket.socket, payload: Dict[str, Any]) -> None:
    """Write one length-prefixed JSON message."""
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_MESSAGE_BYTES:
        raise ServingError(f"message of {len(data)} bytes exceeds protocol maximum")
    sock.sendall(_LENGTH.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one message; ``None`` on a clean EOF between messages."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ServingError(f"peer announced a {length}-byte message; refusing")
    body = _recv_exact(sock, length)
    if body is None:
        raise ServingError("connection closed mid-message")
    payload = json.loads(body.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ServingError("protocol messages must be JSON objects")
    return payload


class ServingServer:
    """TCP frontend over a :class:`~repro.serving.engine.ServingEngine`.

    Binds immediately (``port=0`` picks an ephemeral port, exposed via
    :attr:`address`); :meth:`start` launches the accept loop.  The server
    does not own the engine — closing the server leaves the engine usable.
    """

    def __init__(
        self,
        engine: ServingEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout_s: float = 60.0,
        recovery_info: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.engine = engine
        self.request_timeout_s = float(request_timeout_s)
        #: Journal-recovery summary from boot (``repro serve
        #: --journal-dir``): how much state this process restored after
        #: the last crash.  Reported on the ``stats`` op so a supervisor
        #: or operator can audit recoveries over the wire.
        self.recovery_info = recovery_info
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.address: Tuple[str, int] = self._listener.getsockname()
        self._accept_thread: Optional[threading.Thread] = None
        self._closed = False

    def start(self) -> "ServingServer":
        """Begin accepting connections (idempotent)."""
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="serving-accept", daemon=True
            )
            self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, peer = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._serve_connection,
                args=(conn, peer),
                name=f"serving-conn-{peer[1]}",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket, peer) -> None:
        with conn:
            while True:
                try:
                    request = recv_message(conn)
                except (ServingError, ValueError, OSError) as exc:
                    # ValueError: undecodable JSON or non-UTF-8 bytes.
                    _log.info("dropping connection from %s: %s", peer, exc)
                    return
                if request is None:
                    return
                try:
                    send_message(conn, self._respond(request))
                except OSError:
                    return

    def _respond(self, request: Dict[str, Any]) -> Dict[str, Any]:
        request_id = request.get("id")
        op = request.get("op")
        if op == "ping":
            return {"id": request_id, "status": "ok", "op": "pong"}
        if op == "stats":
            response = {"id": request_id, "status": "ok", "stats": self.engine.stats()}
            if self.recovery_info is not None:
                response["recovery"] = self.recovery_info
            return response
        if op != "score":
            return {"id": request_id, "status": "error", "error": f"unknown op {op!r}"}
        telem = get_telemetry()
        # Adopt a trace context the client propagated over the wire, or
        # root a fresh trace at this frontend hop.
        trace_arg: Any = "new"
        if "trace" in request:
            try:
                trace_arg = TraceContext.from_dict(request["trace"])
            except SerializationError as exc:
                return {"id": request_id, "status": "error", "error": str(exc)}
        try:
            frame = as_tensor(
                request["frame"], getattr(self.engine.scorer, "dtype", None)
            )
            kwargs: Dict[str, Any] = {}
            if "deadline_ms" in request:
                kwargs["deadline_ms"] = request["deadline_ms"]
            if request.get("client") is not None:
                kwargs["client_id"] = str(request["client"])
            if request.get("priority") is not None:
                kwargs["qos_class"] = str(request["priority"])
            if telem.enabled:
                with telem.span("serving.frontend", trace=trace_arg) as span:
                    kwargs["trace"] = span.context.child()
                    outcome = self._await(self.engine.submit(frame, **kwargs))
            else:
                outcome = self._await(self.engine.submit(frame, **kwargs))
        except KeyError:
            return {"id": request_id, "status": "error", "error": "score requires 'frame'"}
        except (ConfigurationError, ShapeError, TypeError, ValueError) as exc:
            return {"id": request_id, "status": "error", "error": str(exc)}
        response = _serialize_outcome(request_id, outcome)
        if "trace" in kwargs:
            response["trace_id"] = kwargs["trace"].trace_id
        return response

    def _await(self, pending: PendingResult) -> RequestOutcome:
        """The request's outcome, or ``Failed`` once ``request_timeout_s``
        passes without one (the connection stays open either way)."""
        try:
            return pending.result(self.request_timeout_s)
        except ServingError as exc:
            return Failed(error=str(exc))

    def close(self) -> None:
        """Stop accepting; established connections close as clients leave."""
        if self._closed:
            return
        self._closed = True
        # Closing a listening socket does not wake a thread blocked in
        # accept() on Linux; shutting it down first does.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "ServingServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _serialize_outcome(request_id, outcome) -> Dict[str, Any]:
    if isinstance(outcome, Scored):
        response = {
            "id": request_id,
            "status": outcome.status,
            "score": outcome.score,
            "is_novel": outcome.is_novel,
            "margin": outcome.margin,
            "batch_size": outcome.batch_size,
            "latency_ms": outcome.latency_s * 1e3,
            "retries": outcome.retries,
        }
        if outcome.model_version is not None:
            response["model_version"] = outcome.model_version
        return response
    if isinstance(outcome, Rejected):
        response = {
            "id": request_id,
            "status": outcome.status,
            "reason": outcome.reason,
            "qos_class": outcome.qos_class,
        }
        if outcome.client_id is not None:
            response["client"] = outcome.client_id
        if outcome.retry_after_ms is not None:
            response["retry_after_ms"] = outcome.retry_after_ms
        return response
    if isinstance(outcome, DeadlineExceeded):
        return {
            "id": request_id,
            "status": outcome.status,
            "waited_ms": outcome.waited_s * 1e3,
        }
    if isinstance(outcome, Degraded):
        return {
            "id": request_id,
            "status": outcome.status,
            "reason": outcome.reason,
            "is_novel": outcome.is_novel,
            "policy": outcome.policy,
        }
    if isinstance(outcome, Failed):
        return {"id": request_id, "status": outcome.status, "error": outcome.error}
    return {"id": request_id, "status": "error", "error": f"unknown outcome {outcome!r}"}


class ServingClient:
    """Blocking client for the length-prefixed JSON protocol."""

    def __init__(self, host: str, port: int, timeout_s: float = 60.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._lock = threading.Lock()
        self._next_id = 0

    def _call(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        op = payload.get("op")
        with self._lock:
            self._next_id += 1
            payload = dict(payload, id=self._next_id)
            try:
                send_message(self._sock, payload)
                reply = recv_message(self._sock)
            except ServingError:
                raise
            except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
                # Raw socket/codec failures become one typed error, so
                # callers need a single except clause for the transport.
                raise ServingError(
                    f"wire failure during {op!r} request: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
        if reply is None:
            raise ServingError("server closed the connection")
        if reply.get("id") != payload["id"]:
            raise ServingError(
                f"response id {reply.get('id')!r} does not match request {payload['id']}"
            )
        return reply

    def score(
        self,
        frame: np.ndarray,
        deadline_ms: Optional[float] = None,
        trace: Optional[TraceContext] = None,
        client_id: Optional[str] = None,
        priority: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Score one ``(H, W)`` frame; returns the decoded response dict.

        ``client_id`` names this caller for the server's per-client
        quotas; ``priority`` picks a QoS class (one of
        :data:`~repro.serving.qos.PRIORITY_CLASSES`) — both are ignored
        by servers without a QoS policy.  ``trace`` propagates a
        caller-side trace context over the wire, so the server's spans
        parent under the client's; either way a scored response carries
        the request's ``trace_id`` when the server has telemetry active.
        """
        payload: Dict[str, Any] = {"op": "score", "frame": np.asarray(frame).tolist()}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if trace is not None:
            payload["trace"] = trace.to_dict()
        if client_id is not None:
            payload["client"] = client_id
        if priority is not None:
            payload["priority"] = priority
        return self._call(payload)

    def score_strict(
        self,
        frame: np.ndarray,
        deadline_ms: Optional[float] = None,
        trace: Optional[TraceContext] = None,
        client_id: Optional[str] = None,
        priority: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Like :meth:`score`, but non-answers raise typed exceptions.

        Returns the response dict for ``"ok"`` and ``"degraded"``
        statuses (both carry a usable ``is_novel`` verdict).  Otherwise
        raises the matching :class:`~repro.exceptions.ServingError`
        subclass: :class:`~repro.exceptions.RequestRejectedError`
        (admission refusal, with ``reason`` / ``qos_class`` /
        ``retry_after_ms`` attributes),
        :class:`~repro.exceptions.ServerOverloadedError` (queue full),
        :class:`~repro.exceptions.RequestTimedOutError` (deadline passed
        while queued), or :class:`~repro.exceptions.RequestFailedError`
        (backend failure or malformed request).
        """
        reply = self.score(
            frame,
            deadline_ms=deadline_ms,
            trace=trace,
            client_id=client_id,
            priority=priority,
        )
        status = reply.get("status")
        if status in ("ok", "degraded"):
            return reply
        if status == "rejected":
            reason = reply.get("reason", "")
            details = dict(
                reason=reason,
                qos_class=reply.get("qos_class", ""),
                retry_after_ms=reply.get("retry_after_ms"),
            )
            if reason == "queue_full":
                raise ServerOverloadedError("server queue full", **details)
            raise RequestRejectedError(
                f"request rejected by admission control: {reason}", **details
            )
        if status == "deadline_exceeded":
            raise RequestTimedOutError(
                f"deadline passed after {reply.get('waited_ms', 0.0):.1f} ms queued"
            )
        raise RequestFailedError(
            f"request failed with status {status!r}: {reply.get('error', '')}"
        )

    def ping(self) -> bool:
        """Round-trip liveness check."""
        return self._call({"op": "ping"}).get("op") == "pong"

    def stats(self) -> Dict[str, Any]:
        """The engine's counters and latency percentiles."""
        return self._call({"op": "stats"})["stats"]

    def recovery(self) -> Optional[Dict[str, Any]]:
        """The server's boot-time journal-recovery summary (``None`` when
        it serves without ``--journal-dir``)."""
        return self._call({"op": "stats"}).get("recovery")

    def close(self) -> None:
        """Close the connection (idempotent; errors on teardown ignored)."""
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
