"""Offline HTTP stand-in for a model endpoint.

Replays a queue of scripted (status, body, headers) responses and records
every request, so gateway retry/auth/protocol behavior is testable without any
network access. Once the queue is empty, ``answer(body)``, when set,
builds the reply from the request body: a payload sent with status 200, or
a (status, payload) pair. The server answers each connection on its own
thread and keeps the peak number of requests in flight at once. Canned
payloads live in tests/fixtures/gateway/.

A pair's two directed requests are sent together, so the queue serves them
in whichever order they arrive; ``answer_by_new_message`` replies by which
message the request puts in its "new" slot instead.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Mapping

FIXTURES = Path(__file__).parent / "fixtures" / "gateway"


def load_fixture(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


def new_slot(body: dict) -> str:
    """What a request puts in its "new" slot, and all that follows it.

    That is the completion a scoring request sends, or the rest of a chat
    prompt from the text after ``### New Patient: ``.
    """
    if "completion" in body:
        return body["completion"]
    return body["messages"][-1]["content"].split("### New Patient: ", 1)[1]


def answer_by_new_message(fixtures: Mapping[str, str]) -> Callable[[dict], dict]:
    """An ``answer`` that replies with ``fixtures[text]``, for the message text in the "new" slot.

    In either request kind the slot holds the text, then its EHR block
    after a newline, if any.
    """

    def answer(body: dict) -> dict:
        slot = new_slot(body)
        for text, name in fixtures.items():
            if slot == text or slot.startswith(text + "\n"):
                return load_fixture(name)
        raise KeyError(f"no fixture for the new message of {slot[:80]!r}")

    return answer


class MockEndpoint:
    def __init__(self):
        self.responses: list[tuple[int, bytes, dict[str, str]]] = []
        self.requests: list[dict] = []
        self.answer: Callable[[dict], dict | tuple[int, dict]] | None = None
        self.inflight_peak = 0
        self._inflight = 0
        self._lock = threading.Lock()
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), self._make_handler())
        # shutdown() waits for serve_forever's next poll, so poll often
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    def _make_handler(self):
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                with endpoint._lock:
                    endpoint._inflight += 1
                    endpoint.inflight_peak = max(endpoint.inflight_peak, endpoint._inflight)
                try:
                    self._serve()
                finally:
                    with endpoint._lock:
                        endpoint._inflight -= 1

            def _serve(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length) if length else b"{}"
                body = json.loads(raw or b"{}")
                with endpoint._lock:
                    endpoint.requests.append(
                        {"path": self.path, "headers": dict(self.headers), "raw": raw, "body": body}
                    )
                    scripted = endpoint.responses.pop(0) if endpoint.responses else None
                headers = {}
                if scripted is not None:
                    status, data, headers = scripted
                elif endpoint.answer is not None:
                    reply = endpoint.answer(body)
                    status, payload = reply if isinstance(reply, tuple) else (200, reply)
                    data = json.dumps(payload).encode("utf-8")
                else:
                    status, data = 500, b'{"error": "no scripted response left"}'
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                for name, value in headers.items():
                    self.send_header(name, value)
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

    def enqueue(
        self, status: int, payload: dict, headers: Mapping[str, str] | None = None
    ) -> None:
        self.enqueue_raw(status, json.dumps(payload).encode("utf-8"), headers)

    def enqueue_raw(
        self, status: int, body: bytes, headers: Mapping[str, str] | None = None
    ) -> None:
        """Script a reply whose body is sent as given, JSON or not, with extra headers."""
        self.responses.append((status, body, dict(headers or {})))

    def enqueue_fixture(self, name: str, status: int = 200) -> None:
        self.enqueue(status, load_fixture(name))
