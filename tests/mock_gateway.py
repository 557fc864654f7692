"""Offline HTTP stand-in for a model endpoint.

Replays a queue of scripted (status, body) responses and records every
request, so gateway retry/auth/protocol behavior is testable without any
network access. Once the queue is empty, ``answer(body)``, when set,
builds a 200 reply from the request body. Canned payloads live in
tests/fixtures/gateway/.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from typing import Callable

FIXTURES = Path(__file__).parent / "fixtures" / "gateway"


def load_fixture(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


class MockEndpoint:
    def __init__(self):
        self.responses: list[tuple[int, bytes]] = []
        self.requests: list[dict] = []
        self.answer: Callable[[dict], dict] | None = None
        self._server = HTTPServer(("127.0.0.1", 0), self._make_handler())
        # shutdown() waits for serve_forever's next poll, so poll often
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    def _make_handler(self):
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length) if length else b"{}"
                body = json.loads(raw or b"{}")
                endpoint.requests.append(
                    {"path": self.path, "headers": dict(self.headers), "raw": raw, "body": body}
                )
                if endpoint.responses:
                    status, data = endpoint.responses.pop(0)
                elif endpoint.answer is not None:
                    status, data = 200, json.dumps(endpoint.answer(body)).encode("utf-8")
                else:
                    status, data = 500, b'{"error": "no scripted response left"}'
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        return Handler

    def start(self) -> "MockEndpoint":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def enqueue(self, status: int, payload: dict) -> None:
        self.enqueue_raw(status, json.dumps(payload).encode("utf-8"))

    def enqueue_raw(self, status: int, body: bytes) -> None:
        """Script a reply whose body is sent as given, JSON or not."""
        self.responses.append((status, body))

    def enqueue_fixture(self, name: str, status: int = 200) -> None:
        self.enqueue(status, load_fixture(name))
