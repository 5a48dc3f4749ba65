"""Line-delimited-JSON socket transport for :class:`SearchServer`.

A deliberately tiny wire protocol so a second process (the ``repro
submit`` / ``repro jobs`` / ``repro cache`` CLI, or any language that can
write JSON to a socket) can drive a running service:

* Every request is one JSON object on one line; every request yields
  exactly one JSON response line -- except ``submit`` with
  ``"watch": true``, which first streams the job's event lines
  (``{"event": {...}}``) and then the final response.
* Responses carry ``"ok": true`` or ``"ok": false`` plus ``"error"``.
* A connection may carry any number of requests sequentially.
* A request line longer than :data:`MAX_REQUEST_BYTES` gets a ``bad
  request`` error and the server closes the connection.

Operations::

    {"op": "ping"}
    {"op": "submit", "spec": {...}, "force": false,
     "watch": false, "wait": true}
    {"op": "status", "job": "j3"}
    {"op": "result", "job": "j3", "wait": true}
    {"op": "jobs"}
    {"op": "cancel", "job": "j3"}
    {"op": "cache", "action": "stats" | "clear"}
    {"op": "stats"}
    {"op": "shutdown"}

``submit`` with ``"wait": true`` (the default) blocks until the job is
terminal and embeds the full ``result`` document; ``"wait": false``
returns the job summary immediately (poll with ``status`` / ``result``).
``force``, ``watch`` and ``wait`` must be JSON booleans, ``timeout``
(seconds) a finite number or ``null`` and ``action`` ``"stats"`` or
``"clear"``; any other value is a ``bad request``, answered before a job
is queued.  So is a line that is not UTF-8 JSON, or nests too deep to
parse.
The transport never re-serializes a stored result through live objects
except via ``SessionResult.from_dict``/``to_dict``, so a cache hit's
document is bit-identical to the run that produced it.
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import threading
from typing import Optional, Tuple

from repro.search.spec import SearchSpec
from repro.service.server import SearchServer

__all__ = ["ServiceTCPServer", "start_transport", "probe", "DEFAULT_PORT"]

DEFAULT_PORT = 7661

#: Seconds between ``serve_forever``'s shutdown checks (socketserver's
#: default is 0.5 s, which every ``shutdown()`` would wait out).
POLL_INTERVAL_S = 0.05

#: Longest request line, newline included (a spec is under 1 KB).  A
#: longer line is answered with a ``bad request`` error and the connection
#: is closed, so no client makes the server buffer an unbounded line.
MAX_REQUEST_BYTES = 1 << 20


class _BadRequest(ValueError):
    """A request whose fields have the wrong wire type."""


def _flag(request: dict, name: str, default: bool) -> bool:
    """The JSON boolean ``request[name]`` (``default`` when absent)."""
    value = request.get(name, default)
    if not isinstance(value, bool):
        raise _BadRequest(f"{name} must be true or false, got {value!r}")
    return value


def _timeout(request: dict) -> Optional[float]:
    """``request["timeout"]``: a finite number of seconds, or ``None``.

    ``NaN`` would make ``Job.wait`` spin and ``Infinity`` overflow its
    condition wait, and Python's JSON parser accepts both."""
    value = request.get("timeout")
    if value is not None and (isinstance(value, bool)
                              or not isinstance(value, (int, float))
                              or not math.isfinite(value)):
        raise _BadRequest(
            f"timeout must be a finite number or null, got {value!r}")
    return value


class ServiceTCPServer(socketserver.ThreadingTCPServer):
    """Threaded ND-JSON front end over one :class:`SearchServer`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 search_server: SearchServer) -> None:
        super().__init__(address, _RequestHandler)
        self.search_server = search_server


class _RequestHandler(socketserver.StreamRequestHandler):
    """One connection: requests in, responses out, line by line."""

    def handle(self) -> None:
        while True:
            raw = self.rfile.readline(MAX_REQUEST_BYTES + 1)
            if not raw:
                return
            if len(raw) > MAX_REQUEST_BYTES:
                self._send({"ok": False, "error":
                            f"bad request: line longer than "
                            f"{MAX_REQUEST_BYTES} bytes"})
                return
            line = raw.strip()
            if not line:
                continue
            try:
                request = json.loads(line.decode("utf-8"))
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except (ValueError, UnicodeDecodeError,
                    RecursionError) as error:
                # RecursionError: arrays or objects nested about a
                # thousand deep, which the parser cannot descend.
                self._send({"ok": False, "error": f"bad request: {error}"})
                continue
            try:
                stop = self._dispatch(request)
            except BrokenPipeError:  # pragma: no cover - client went away
                return
            except _BadRequest as error:
                self._send({"ok": False, "error": f"bad request: {error}"})
                continue
            except Exception as error:  # noqa: BLE001 - protocol boundary
                self._send({"ok": False,
                            "error": f"{type(error).__name__}: {error}"})
                continue
            if stop:
                return

    # ------------------------------------------------------------------
    def _send(self, document: dict) -> None:
        self.wfile.write(json.dumps(document).encode("utf-8") + b"\n")
        self.wfile.flush()

    def _job_response(self, job, with_result: bool) -> dict:
        response = {"ok": True, "job": job.to_dict()}
        if with_result and job.result is not None:
            response["result"] = job.result.to_dict()
        if job.error is not None:
            response["error"] = job.error
        return response

    def _dispatch(self, request: dict) -> bool:
        server = self.server.search_server
        op = request.get("op")
        if op == "ping":
            import repro

            self._send({"ok": True, "version": repro.__version__})
        elif op == "submit":
            force = _flag(request, "force", False)
            watch = _flag(request, "watch", False)
            wait = _flag(request, "wait", True)
            timeout = _timeout(request)
            spec = SearchSpec.from_dict(request["spec"])
            job = server.submit(spec, force=force)
            if watch:
                for event in job.events():
                    self._send({"event": event})
                self._send(self._job_response(job, with_result=True))
            elif wait:
                job.wait(timeout=timeout)
                self._send(self._job_response(job, with_result=True))
            else:
                self._send(self._job_response(job, with_result=False))
        elif op == "status":
            job = server.job(request["job"])
            self._send(self._job_response(job, with_result=False))
        elif op == "result":
            wait = _flag(request, "wait", True)
            timeout = _timeout(request)
            job = server.job(request["job"])
            if wait:
                job.wait(timeout=timeout)
            if not job.done:
                self._send({"ok": False,
                            "error": f"job {job.id} is {job.state}"})
            else:
                self._send(self._job_response(job, with_result=True))
        elif op == "jobs":
            self._send({"ok": True,
                        "jobs": [job.to_dict() for job in server.jobs()]})
        elif op == "cancel":
            cancelled = server.cancel(request["job"])
            self._send({"ok": True, "cancelled": cancelled})
        elif op == "cache":
            action = request.get("action", "stats")
            if action not in ("stats", "clear"):
                raise _BadRequest(
                    f'action must be "stats" or "clear", got {action!r}')
            store = server.store
            if store is None:
                self._send({"ok": False, "error": "cache disabled"})
            elif action == "clear":
                self._send({"ok": True, "cleared": store.clear()})
            else:
                self._send({"ok": True, "stats": store.stats()})
        elif op == "stats":
            self._send({"ok": True, "stats": server.stats()})
        elif op == "shutdown":
            self._send({"ok": True, "stopping": True})
            # shutdown() blocks until serve_forever() exits; it must be
            # called off the serve_forever thread, which handler threads
            # are (ThreadingTCPServer), so this is safe -- but the
            # search server itself is closed by the owner around
            # serve_forever, not here.
            threading.Thread(target=self.server.shutdown,
                             daemon=True).start()
            return True
        else:
            self._send({"ok": False, "error": f"unknown op {op!r}"})
        return False


def start_transport(search_server: SearchServer, host: str = "127.0.0.1",
                    port: int = 0,
                    in_thread: bool = True) -> ServiceTCPServer:
    """Bind the ND-JSON transport and (optionally) serve in a thread.

    ``port=0`` binds an ephemeral port -- read the real one from
    ``transport.server_address[1]`` (what the tests do).  With
    ``in_thread=True`` (default) ``serve_forever`` runs on a daemon
    thread and the call returns immediately; call ``shutdown()`` +
    ``server_close()`` when done.  The CLI runs it in the foreground
    instead.
    """
    transport = ServiceTCPServer((host, port), search_server)
    if in_thread:
        thread = threading.Thread(target=transport.serve_forever,
                                  args=(POLL_INTERVAL_S,),
                                  name="repro-service-transport",
                                  daemon=True)
        thread.start()
    return transport


def probe(host: str, port: int, timeout: float = 1.0) -> bool:
    """True when a service answers ``ping`` at ``host:port``."""
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.sendall(b'{"op": "ping"}\n')
            handle = sock.makefile("rb")
            line = handle.readline()
        return bool(line) and json.loads(line.decode("utf-8")).get("ok") \
            is True
    except (OSError, ValueError):
        return False
