"""OpenAI-compatible chat-completions stub serving the fake model on loopback.

Run as its own process so its Python work does not compete with the
program under test for the interpreter lock. Prints ``PORT <n>`` once it
listens, exits when its standard input closes, and answers:

* ``POST /v1/chat/completions``: the fake model's reply for the role named
  by the model (``fake-decomposer`` / ``fake-evaluator``), after a fixed
  ``DELAY_S`` delay, with ``usage`` equal to ``estimate_tokens`` of the
  user prompt and of the reply, so both transports charge the same tokens.
* ``GET /stats``: completions requests served and connections that carried
  at least one of them.

Each response, status line, headers and body, goes out in a single write:
separate writes for headers and body add a delayed-ACK stall to every
keep-alive call.

    python3 bench/stub.py --plans plans.json
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dualtrack.agents import CHAT_COMPLETIONS_PATH, estimate_tokens  # noqa: E402

from fake_model import FakeModel  # noqa: E402

ROLE_OF_MODEL = {"fake-decomposer": "decomposer", "fake-evaluator": "evaluator"}
# Per-call delay: a few ms, comparable to the client's own cost of one
# ``requests.post`` on loopback (about 2.3-2.7 ms).
DELAY_S = 0.0025


class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0


def make_handler(model: FakeModel, stats: Stats):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self) -> None:
            super().setup()
            self.counted = False

        def log_message(self, format, *args) -> None:  # noqa: A002
            pass

        def _send(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + body)

        def do_GET(self) -> None:  # noqa: N802
            if self.path != "/stats":
                self._send(404, {"error": "not found"})
                return
            with stats.lock:
                payload = {"requests": stats.requests, "connections": stats.connections}
            self._send(200, payload)

        def do_POST(self) -> None:  # noqa: N802
            with stats.lock:
                stats.requests += 1
                if not self.counted:
                    stats.connections += 1
            self.counted = True
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path != CHAT_COMPLETIONS_PATH:
                self._send(404, {"error": "not found"})
                return
            try:
                request = json.loads(raw)
                role = ROLE_OF_MODEL[request["model"]]
                prompt = request["messages"][-1]["content"]
                text = model.reply(role, prompt)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                self._send(400, {"error": f"{type(exc).__name__}: {exc}"})
                return
            time.sleep(DELAY_S)
            prompt_tokens, completion_tokens = estimate_tokens(prompt), estimate_tokens(text)
            self._send(200, {
                "object": "chat.completion",
                "model": request["model"],
                "choices": [{"index": 0, "finish_reason": "stop",
                             "message": {"role": "assistant", "content": text}}],
                "usage": {"prompt_tokens": prompt_tokens,
                          "completion_tokens": completion_tokens,
                          "total_tokens": prompt_tokens + completion_tokens},
            })

    return Handler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--plans", required=True, help="JSON list of problem plans")
    args = parser.parse_args()
    model = FakeModel(json.loads(Path(args.plans).read_text(encoding="utf-8")))
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(model, Stats()))
    server.daemon_threads = True
    threading.Thread(target=server.serve_forever, daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    sys.stdin.read()  # returns when the parent closes the pipe or exits
    server.shutdown()
    server.server_close()


if __name__ == "__main__":
    main()
