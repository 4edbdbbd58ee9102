from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests
from hypothesis import given, strategies as st

from dualtrack.agents import (
    BackendError,
    BackendTimeout,
    DecodeParams,
    HTTPBackend,
    Role,
    ScriptExhausted,
    ScriptedBackend,
    estimate_tokens,
)


class TestEstimateTokens:
    def test_empty(self):
        assert estimate_tokens("") == 0

    def test_exact_block(self):
        assert estimate_tokens("abcd") == 1

    def test_partial_block_rounds_up(self):
        assert estimate_tokens("0123456789") == 3

    def test_multibyte_counts_bytes(self):
        assert estimate_tokens("éé") == 1  # 4 utf-8 bytes

    @given(a=st.text(max_size=64), b=st.text(max_size=64))
    def test_monotone_and_subadditive_within_one(self, a, b):
        combined = estimate_tokens(a + b)
        assert combined >= estimate_tokens(a)
        assert estimate_tokens(a) + estimate_tokens(b) - 1 <= combined
        assert combined <= estimate_tokens(a) + estimate_tokens(b)


class TestDecodeParams:
    def test_defaults_are_greedy(self):
        params = DecodeParams()
        assert params.temperature == 0.0
        assert params.max_new_tokens == 128

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            DecodeParams(temperature=-0.1)

    def test_zero_max_new_tokens_rejected(self):
        with pytest.raises(ValueError):
            DecodeParams(max_new_tokens=0)


class TestScriptedBackend:
    def test_replies_in_order(self):
        backend = ScriptedBackend({"decomposer": ["STEP: a", "FINAL_ANSWER: 5"]})
        first = backend.complete(Role.DECOMPOSER, "prompt")
        second = backend.complete(Role.DECOMPOSER, "prompt")
        assert [first.raw_text, second.raw_text] == ["STEP: a", "FINAL_ANSWER: 5"]

    def test_exhaustion_raises(self):
        backend = ScriptedBackend({"decomposer": ["STEP: a"]})
        backend.complete(Role.DECOMPOSER, "prompt")
        with pytest.raises(ScriptExhausted):
            backend.complete(Role.DECOMPOSER, "prompt")

    def test_roles_have_independent_cursors(self):
        backend = ScriptedBackend(
            {"decomposer": ["STEP: a"], "evaluator": ["Score: 3"]}
        )
        assert backend.complete(Role.DECOMPOSER, "p").raw_text == "STEP: a"
        assert backend.complete(Role.EVALUATOR, "p").raw_text == "Score: 3"
        assert backend.calls(Role.DECOMPOSER) == 1
        assert backend.calls(Role.EVALUATOR) == 1
        with pytest.raises(ScriptExhausted):
            backend.complete(Role.DECOMPOSER, "p")

    def test_token_usage_is_estimated(self):
        backend = ScriptedBackend({"evaluator": ["Score: 3"]})
        reply = backend.complete(Role.EVALUATOR, "abcdefgh")
        assert reply.prompt_tokens == estimate_tokens("abcdefgh")
        assert reply.completion_tokens == estimate_tokens("Score: 3")

    def test_replay_is_deterministic(self):
        scripts = {"decomposer": ["STEP: a", "STEP: b"]}
        runs = []
        for _ in range(2):
            backend = ScriptedBackend(scripts)
            runs.append(
                [backend.complete(Role.DECOMPOSER, "same prompt") for _ in range(2)]
            )
        assert runs[0] == runs[1]

    def test_role_accepts_plain_strings(self):
        backend = ScriptedBackend({"decomposer": ["STEP: a"]})
        assert backend.complete("decomposer", "p").raw_text == "STEP: a"


class _FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text if payload is None else json.dumps(payload)

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


def _chat_payload(content, usage=None):
    payload = {"choices": [{"message": {"content": content}}]}
    if usage is not None:
        payload["usage"] = usage
    return payload


@pytest.fixture
def http_backend():
    return HTTPBackend(
        base_url="http://models.internal/",
        api_key="secret-key",
        models={Role.DECOMPOSER: "decomposer-8b", Role.EVALUATOR: "evaluator-8b"},
    )


class TestHTTPBackend:
    def test_success_reads_content_and_usage(self, http_backend, monkeypatch):
        calls = []

        def fake_post(url, json=None, headers=None, timeout=None):
            calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
            return _FakeResponse(
                payload=_chat_payload(
                    "STEP: ok", usage={"prompt_tokens": 11, "completion_tokens": 7}
                )
            )

        monkeypatch.setattr(requests, "post", fake_post)
        reply = http_backend.complete(Role.DECOMPOSER, "the prompt", DecodeParams())
        assert reply.raw_text == "STEP: ok"
        assert reply.prompt_tokens == 11
        assert reply.completion_tokens == 7

        request = calls[0]
        assert request["url"] == "http://models.internal/v1/chat/completions"
        assert request["json"]["model"] == "decomposer-8b"
        assert request["json"]["temperature"] == 0.0
        assert request["json"]["max_tokens"] == 128
        roles = [message["role"] for message in request["json"]["messages"]]
        assert roles == ["system", "user"]
        assert request["json"]["messages"][1]["content"] == "the prompt"
        assert request["headers"]["Authorization"] == "Bearer secret-key"

    def test_missing_usage_falls_back_to_estimates(self, http_backend, monkeypatch):
        monkeypatch.setattr(
            requests, "post", lambda *a, **k: _FakeResponse(payload=_chat_payload("Score: 3"))
        )
        reply = http_backend.complete(Role.EVALUATOR, "abcdefgh")
        assert reply.prompt_tokens == estimate_tokens("abcdefgh")
        assert reply.completion_tokens == estimate_tokens("Score: 3")

    def test_persistent_500_raises_with_status_and_body(self, http_backend, monkeypatch):
        attempts = []
        monkeypatch.setattr(
            requests,
            "post",
            lambda *a, **k: attempts.append(1)
            or _FakeResponse(status_code=500, text="upstream exploded"),
        )
        with pytest.raises(BackendError) as excinfo:
            http_backend.complete(Role.DECOMPOSER, "p")
        assert excinfo.value.status == 500
        assert "upstream exploded" in excinfo.value.body
        assert len(attempts) == 2  # one automatic retry

    def test_transient_then_success(self, http_backend, monkeypatch):
        responses = [
            _FakeResponse(status_code=503, text="busy"),
            _FakeResponse(payload=_chat_payload("STEP: fine")),
        ]
        monkeypatch.setattr(requests, "post", lambda *a, **k: responses.pop(0))
        assert http_backend.complete(Role.DECOMPOSER, "p").raw_text == "STEP: fine"

    def test_client_error_is_not_retried(self, http_backend, monkeypatch):
        attempts = []
        monkeypatch.setattr(
            requests,
            "post",
            lambda *a, **k: attempts.append(1)
            or _FakeResponse(status_code=404, text="no such model"),
        )
        with pytest.raises(BackendError) as excinfo:
            http_backend.complete(Role.DECOMPOSER, "p")
        assert excinfo.value.status == 404
        assert len(attempts) == 1

    def test_timeout_maps_to_backend_timeout(self, http_backend, monkeypatch):
        def fake_post(*args, **kwargs):
            raise requests.Timeout("too slow")

        monkeypatch.setattr(requests, "post", fake_post)
        with pytest.raises(BackendTimeout):
            http_backend.complete(Role.DECOMPOSER, "p")

    def test_malformed_json_body(self, http_backend, monkeypatch):
        monkeypatch.setattr(
            requests, "post", lambda *a, **k: _FakeResponse(text="<html>gateway</html>")
        )
        with pytest.raises(BackendError):
            http_backend.complete(Role.DECOMPOSER, "p")

    def test_missing_choices_shape(self, http_backend, monkeypatch):
        monkeypatch.setattr(
            requests, "post", lambda *a, **k: _FakeResponse(payload={"choices": []})
        )
        with pytest.raises(BackendError):
            http_backend.complete(Role.DECOMPOSER, "p")

    def test_unconfigured_role_rejected(self, monkeypatch):
        backend = HTTPBackend(base_url="http://models.internal")
        with pytest.raises(BackendError):
            backend.complete(Role.DECOMPOSER, "p")


class _Handler(BaseHTTPRequestHandler):
    """Plays the server's next action: ``(status, body bytes)`` sent with one
    ``write``, ``"close"`` (no response) or ``"stall"`` (no response for 1 s)."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002
        pass

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers["Content-Length"]))
        server = self.server
        with server.lock:
            server.received += 1
            action = server.actions[min(server.received, len(server.actions)) - 1]
        if action in ("close", "stall"):
            if action == "stall":
                server.released.wait(1.0)
            self.close_connection = True
            return
        status, body = action
        head = (
            f"HTTP/1.1 {status} Status\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)


class _LocalEndpoint(ThreadingHTTPServer):
    """A chat-completions endpoint on 127.0.0.1; the last action repeats."""

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.lock = threading.Lock()
        self.released = threading.Event()
        self.received = 0
        self.actions: list = []

    def backend(self, *actions, timeout: float = 5.0) -> HTTPBackend:
        self.actions = list(actions)
        return HTTPBackend(
            base_url=f"http://127.0.0.1:{self.server_address[1]}",
            models={Role.DECOMPOSER: "decomposer-8b", Role.EVALUATOR: "evaluator-8b"},
            timeout=timeout,
        )


def _ok(content, usage=None):
    return 200, json.dumps(_chat_payload(content, usage)).encode("utf-8")


@pytest.fixture
def endpoint():
    server = _LocalEndpoint()
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.released.set()
    server.shutdown()
    server.server_close()


class TestHTTPBackendAgainstLocalServer:
    """Faults served by a real loopback server; ``requests`` is not patched."""

    def test_transient_500_then_success(self, endpoint):
        backend = endpoint.backend((500, b"busy"), _ok("STEP: fine"))
        assert backend.complete(Role.DECOMPOSER, "p").raw_text == "STEP: fine"
        assert endpoint.received == 2

    @pytest.mark.parametrize(
        "actions, timeout, error, status, message, received",
        [
            ([(429, b"slow down")], 5.0, BackendError, 429, "HTTP 429: slow down", 2),
            ([(404, b"no such model")], 5.0, BackendError, 404, "HTTP 404: no such model", 1),
            ([(200, b'{"choices": [{"mess')], 5.0, BackendError, 200,
             'malformed JSON body: {"choices": [{"mess', 1),
            ([_ok(5)], 5.0, BackendError, 200, "message content is not text", 1),
            (["close"], 5.0, BackendError, None, "transport error: ", 2),
            (["stall"], 0.2, BackendTimeout, None, "no response within 0.2s", 2),
        ],
        ids=["persistent-429", "404", "truncated-json", "content-not-text",
             "closed-without-response", "timeout"],
    )
    def test_fault(self, endpoint, actions, timeout, error, status, message, received):
        backend = endpoint.backend(*actions, timeout=timeout)
        with pytest.raises(BackendError) as excinfo:
            backend.complete(Role.DECOMPOSER, "p")
        assert type(excinfo.value) is error
        assert excinfo.value.status == status
        assert str(excinfo.value).startswith(message)
        assert endpoint.received == received

    @pytest.mark.parametrize("usage", [[1], "12", 7], ids=["list", "string", "number"])
    def test_usage_that_is_not_an_object_is_estimated(self, endpoint, usage):
        backend = endpoint.backend(_ok("Score: 3", usage))
        reply = backend.complete(Role.EVALUATOR, "abcdefgh")
        assert reply.prompt_tokens == estimate_tokens("abcdefgh")
        assert reply.completion_tokens == estimate_tokens("Score: 3")
        assert endpoint.received == 1
