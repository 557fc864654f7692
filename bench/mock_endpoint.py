"""Loopback stand-in for an OpenAI-compatible chat endpoint, run as its own process.

It answers every chat completion with YES/NO ``top_logprobs`` derived from
the ``[triage:N]`` tags of the two messages in the prompt: P(YES) is 0.9
when the new message is more urgent, 0.1 when it is less urgent and 0.5 on
equal levels. Each request waits a fixed injected delay, which stands in
for model latency. The server counts requests, time spent in handlers and
the peak number of requests in flight; ``GET /stats`` reads the counters
and ``POST /reset`` clears them.

    python3 bench/mock_endpoint.py

prints ``port <n>`` once it is listening on 127.0.0.1 and serves until
terminated or until its standard input closes, which happens when the
process that started it exits.
"""

from __future__ import annotations

import json
import math
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_TAG = re.compile(r"\[triage:([1-6])\]")
# Injected model latency per request: short enough that the client's own
# per-request cost stays visible beside it.
DELAY_S = 0.002


def yes_probability(user_prompt: str) -> float:
    """P(YES) for "is the new (second) message more urgent than the existing one"."""
    existing, new = (int(level) for level in _TAG.findall(user_prompt)[:2])
    if new < existing:
        return 0.9
    if new > existing:
        return 0.1
    return 0.5


class Counters:
    def __init__(self):
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.requests = 0
            self.server_s = 0.0
            self.inflight = 0
            self.inflight_peak = 0
            self.errors = 0

    def enter(self) -> None:
        with self._lock:
            self.inflight += 1
            self.inflight_peak = max(self.inflight_peak, self.inflight)

    def leave(self, seconds: float, ok: bool) -> None:
        with self._lock:
            self.inflight -= 1
            self.requests += 1
            self.server_s += seconds
            self.errors += not ok

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "server_s": self.server_s,
                "inflight_peak": self.inflight_peak,
                "errors": self.errors,
            }


def _completion(p_yes: float) -> dict:
    answer = "YES" if p_yes > 0.5 else "NO"
    return {
        "choices": [
            {
                "message": {"role": "assistant", "content": answer},
                "logprobs": {
                    "content": [
                        {
                            "token": answer,
                            "top_logprobs": [
                                {"token": "YES", "logprob": math.log(p_yes)},
                                {"token": "NO", "logprob": math.log(1.0 - p_yes)},
                            ],
                        }
                    ]
                },
            }
        ],
        "usage": {"prompt_tokens": 0, "completion_tokens": 1},
    }


def make_server() -> ThreadingHTTPServer:
    counters = Counters()

    class Handler(BaseHTTPRequestHandler):
        def _reply(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path == "/stats":
                self._reply(200, counters.snapshot())
            else:
                self._reply(404, {"error": "not found"})

        def do_POST(self):
            if self.path == "/reset":
                counters.reset()
                self._reply(200, {})
                return
            started = time.perf_counter()
            counters.enter()
            ok = False
            try:
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                p_yes = yes_probability(body["messages"][-1]["content"])
                time.sleep(DELAY_S)
                self._reply(200, _completion(p_yes))
                ok = True
            except (KeyError, TypeError, ValueError) as exc:
                self._reply(400, {"error": f"{type(exc).__name__}: {exc}"})
            finally:
                counters.leave(time.perf_counter() - started, ok)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def main() -> int:
    server = make_server()

    def _stop_when_parent_exits() -> None:
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=_stop_when_parent_exits, daemon=True).start()
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
