"""A one-connection-at-a-time HTTP client for the sweep service.

Each call opens a connection, sends one request and reads the whole
response (the service speaks HTTP/1.0 and closes after each response).
Every call is timed and counted, so the traced run can report the
service layer from the client side.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Seconds any single HTTP exchange may take before it counts as failed.
TIMEOUT_S = 120.0

class TripError(RuntimeError):
    """A trip broke a correctness rule (non-2xx, grammar, job state...)."""


@dataclass
class HttpStats:
    requests: int = 0
    http_errors: int = 0
    seconds: Dict[str, List[float]] = field(default_factory=dict)

    def note(self, kind: str, status: int, seconds: float) -> None:
        self.requests += 1
        if not 200 <= status < 300:
            self.http_errors += 1
        self.seconds.setdefault(kind, []).append(seconds)


class ServiceClient:
    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.stats = HttpStats()

    def _open(self, method: str, path: str, body: Optional[bytes] = None):
        connection = http.client.HTTPConnection(self.host, self.port, timeout=TIMEOUT_S)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        return connection, connection.getresponse()

    def call(self, kind: str, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        started = time.perf_counter()
        connection, response = self._open(method, path, body)
        try:
            data = response.read()
        finally:
            connection.close()
        self.stats.note(kind, response.status, time.perf_counter() - started)
        return response.status, data

    def json(self, kind: str, method: str, path: str, body: Optional[object] = None):
        payload = None if body is None else json.dumps(body).encode()
        status, data = self.call(kind, method, path, payload)
        if not 200 <= status < 300:
            raise TripError(f"{method} {path} -> HTTP {status}: {data[:200]!r}")
        return json.loads(data)

    def events(self, job_id: str) -> Tuple[List[Tuple[str, dict]], float]:
        """The job's SSE stream until the server closes it.

        Returns ``(events, first_event_at)`` where events are
        ``(kind, data)`` pairs and ``first_event_at`` is the
        ``perf_counter`` time the first event arrived.
        """
        started = time.perf_counter()
        connection, response = self._open("GET", f"/jobs/{job_id}/events")
        events: List[Tuple[str, dict]] = []
        first = None
        kind = None
        try:
            if response.status != 200:
                response.read()
                raise TripError(f"events for job {job_id} -> HTTP {response.status}")
            for raw in response:
                line = raw.decode("utf-8").rstrip("\n")
                if line.startswith("event: "):
                    kind = line[len("event: "):]
                elif line.startswith("data: ") and kind is not None:
                    events.append((kind, json.loads(line[len("data: "):])))
                    if first is None:
                        first = time.perf_counter()
                    kind = None
        finally:
            connection.close()
            self.stats.note("stream", response.status, time.perf_counter() - started)
        return events, first if first is not None else time.perf_counter()
