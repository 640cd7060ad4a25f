"""A unix-socket front end for :class:`~repro.serving.server.AMCServer`.

Transport: newline-delimited JSON over a unix domain socket — one
request object per line, one response object per line, stdlib only.
The cube itself never crosses the wire: requests carry a *cube
reference* (an ENVI path the server loads, with its ``.gt.npy`` ground
truth sidecar when present), which is the right shape for a local
service fronting multi-hundred-MB scenes.  Content addressing happens
server-side over the loaded bytes, so two paths to identical content
still dedupe.

Operations::

    {"op": "submit", "cube": PATH, "params": {...}, "wait": true,
     "workload": "amc", "target_class": null,
     "profile": false, "write_outputs": false}
    {"op": "status" | "wait" | "cancel", "job_id": N, "profile": false}
    {"op": "stats"}
    {"op": "health"}
    {"op": "shutdown"}

``workload`` names any registered algorithm (default: the server's
default workload).  ``target_class`` adapts the label-map sidecar to
detection: the target spectrum (for workloads that require one)
becomes the mean of that class's pixels, and the evaluation mask
becomes that class's footprint.  Without ``target_class``, the sidecar
is forwarded only to classify workloads — a label map is not a
detection mask.

Responses are ``{"ok": true, ...}`` or ``{"ok": false, "error": TYPE,
"message": ...}`` — a full queue answers ``error="ServerBusyError"``
with a ``retry_after_s`` hint, the wire form of backpressure.

:func:`request` is the matching blocking client (used by ``repro
submit``); it is deliberately synchronous — clients are ordinary
processes, and only the *server* lives on an event loop.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket

from repro.errors import ReproError, ServerBusyError, ServingError
from repro.hsi.envi import read_scene
from repro.serving import jobs as jobstates
from repro.serving.server import AMCServer
from repro.viz import write_result_maps
from repro.workloads import get_workload

#: Protocol operations the front end understands.
OPS = ("submit", "status", "wait", "cancel", "stats", "health",
       "shutdown")

#: Exception classes a request handler converts into error responses
#: (anything else is a server bug and should surface loudly).
_REQUEST_ERRORS = (ReproError, ValueError, KeyError, TypeError,
                   OverflowError, OSError)


def _error_response(exc: Exception) -> dict:
    response = {"ok": False, "error": type(exc).__name__,
                "message": str(exc)}
    if isinstance(exc, ServerBusyError):
        response["retry_after_s"] = exc.retry_after_s
    return response


class UnixSocketFrontend:
    """Serve one :class:`AMCServer` on a unix domain socket.

    The front end owns only transport concerns (framing, request
    parsing, response shaping, the shutdown signal); every decision
    about jobs belongs to the server object, which is equally usable
    in-process without this class (see ``examples/serving_demo.py``).
    """

    def __init__(self, server: AMCServer, socket_path: str) -> None:
        self.server = server
        self.socket_path = socket_path
        self._listener: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()

    async def start(self) -> "UnixSocketFrontend":
        """Bind the socket and begin accepting connections."""
        self._listener = await asyncio.start_unix_server(
            self._handle_connection, path=self.socket_path)
        return self

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` request arrives, then close."""
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        """Close the listener and remove the socket file."""
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)

    # -- connection handling ---------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                try:
                    payload = json.loads(line)
                    response = await self._dispatch(payload)
                except json.JSONDecodeError as exc:
                    response = _error_response(exc)
                except _REQUEST_ERRORS as exc:
                    response = _error_response(exc)
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        except (asyncio.CancelledError, ConnectionResetError):
            # Loop teardown after a shutdown request cancels handlers
            # still parked in readline(); that is a clean exit, not an
            # error worth a traceback.
            pass
        finally:
            writer.close()

    async def _dispatch(self, payload) -> dict:
        if not isinstance(payload, dict):
            raise ReproError(f"a request must be a JSON object, got "
                             f"{type(payload).__name__}")
        op = payload.get("op")
        if op not in OPS:
            raise ReproError(f"unknown op {op!r}; expected one of {OPS}")
        if op == "submit":
            return await self._op_submit(payload)
        if op == "stats":
            return {"ok": True, "stats": self.server.stats()}
        if op == "health":
            return {"ok": True, "health": self.server.health()}
        if op == "shutdown":
            self._shutdown.set()
            return {"ok": True, "stopping": True}
        job_id = int(payload["job_id"])
        if op == "wait":
            status = await self.server.wait(job_id)
        elif op == "cancel":
            status = await self.server.cancel(job_id)
        else:
            status = self.server.status(job_id)
        return self._job_response(job_id, status,
                                  with_profile=payload.get("profile", False))

    async def _op_submit(self, payload: dict) -> dict:
        path = payload["cube"]
        loop = asyncio.get_running_loop()
        cube, ground_truth = await loop.run_in_executor(
            None, read_scene, path)
        workload = payload.get("workload")
        wl = (self.server.default_workload if workload is None
              else get_workload(workload))
        params, ground_truth = wl.adapt_sidecar(
            cube, ground_truth, payload.get("params"),
            payload.get("target_class"))
        job = await self.server.submit(cube, params, workload=wl,
                                       ground_truth=ground_truth)
        # wait_result hands the result over before the result cache
        # can evict it
        result = (await job.wait_result() if payload.get("wait", True)
                  else job.result)
        outputs = None
        if payload.get("write_outputs", False):
            if result is None and job.state == jobstates.DONE:
                raise ServingError(
                    f"job {job.job_id}: its result was released before "
                    f"its outputs could be written")
            if hasattr(result, "labels"):
                outputs = await loop.run_in_executor(
                    None, write_result_maps, result, path)
        response = self._job_response(
            job.job_id, job.status(),
            with_profile=payload.get("profile", False))
        if outputs is not None:
            response["outputs"] = outputs
        return response

    def _job_response(self, job_id: int, status,
                      with_profile: bool) -> dict:
        response = {"ok": True, "job": status.to_dict()}
        if with_profile:
            report = self.server.job(job_id).report
            response["profile"] = (None if report is None
                                   else report.to_dict())
        return response


# -- the blocking client -------------------------------------------------


def request(socket_path: str, payload: dict,
            timeout_s: float | None = None) -> dict:
    """Send one request to a serving socket; return the response dict.

    The client half of the protocol: connect, write one JSON line,
    read one JSON line.  ``timeout_s`` bounds the whole exchange
    (``None`` waits as long as the job runs — submit-and-wait on a
    cold cube legitimately takes a while).
    """
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout_s)
        sock.connect(socket_path)
        sock.sendall(json.dumps(payload).encode() + b"\n")
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
    raw = b"".join(chunks)
    if not raw:
        raise ReproError(f"server at {socket_path} closed the connection "
                         f"without responding")
    return json.loads(raw)
