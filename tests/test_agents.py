from __future__ import annotations

import json
import math
import threading
import time

import pytest
import requests
from hypothesis import given, strategies as st

from dualtrack.agents import (
    DEFAULT_SYSTEM_PROMPTS,
    AgentReply,
    BackendError,
    BackendTimeout,
    DecodeParams,
    HTTPBackend,
    Role,
    ScriptExhausted,
    ScriptedBackend,
    estimate_tokens,
)

from conftest import chat_ok, chat_payload


class TestEstimateTokens:
    def test_empty(self):
        assert estimate_tokens("") == 0

    def test_exact_block(self):
        assert estimate_tokens("abcd") == 1

    def test_partial_block_rounds_up(self):
        assert estimate_tokens("0123456789") == 3

    def test_multibyte_counts_bytes(self):
        assert estimate_tokens("éé") == 1  # 4 utf-8 bytes

    @given(text=st.text())
    def test_is_the_utf8_byte_ceiling(self, text):
        assert estimate_tokens(text) == math.ceil(len(text.encode("utf-8")) / 4)

    @given(a=st.text(max_size=64), b=st.text(max_size=64))
    def test_monotone_and_subadditive_within_one(self, a, b):
        combined = estimate_tokens(a + b)
        assert combined >= estimate_tokens(a)
        assert estimate_tokens(a) + estimate_tokens(b) - 1 <= combined
        assert combined <= estimate_tokens(a) + estimate_tokens(b)


class TestAgentReply:
    """The record contract: immutable, built alike by position or keyword."""

    def test_record_contract(self):
        reply = AgentReply("a", 1, 2)
        assert reply == AgentReply(raw_text="a", prompt_tokens=1, completion_tokens=2)
        assert repr(reply) == "AgentReply(raw_text='a', prompt_tokens=1, completion_tokens=2)"
        with pytest.raises(AttributeError):
            reply.raw_text = "b"


class TestDecodeParams:
    def test_defaults_are_greedy(self):
        params = DecodeParams()
        assert params.temperature == 0.0
        assert params.max_new_tokens == 128

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            DecodeParams(temperature=-0.1)

    def test_nan_temperature_rejected(self):
        with pytest.raises(ValueError):
            DecodeParams(float("nan"))

    @pytest.mark.parametrize("temperature", [0, 1, True])
    def test_integer_temperature_is_stored_as_the_float_it_equals(self, temperature):
        params = DecodeParams(temperature)
        assert type(params.temperature) is float and params.temperature == temperature
        assert params == DecodeParams(float(temperature))
        assert json.dumps(params._asdict()) == json.dumps(DecodeParams(float(temperature))._asdict())
        assert type(params._replace(temperature=0).temperature) is float

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

    def test_string_and_role_keys_serve_alike(self):
        scripts = {"decomposer": ["STEP: a", "STEP: b", "STEP: c"],
                   "evaluator": ["Score: 3", "Score: 1"]}
        backends = [ScriptedBackend(scripts),
                    ScriptedBackend({Role(role): replies for role, replies in scripts.items()})]
        for key in (Role.DECOMPOSER, "decomposer", Role.EVALUATOR, "evaluator"):
            assert len({backend.calls(key) for backend in backends}) == 1
        for key in ("decomposer", Role.DECOMPOSER, "evaluator", Role.EVALUATOR):
            replies = {backend.complete(key, "p").raw_text for backend in backends}
            assert len(replies) == 1, (key, replies)
            assert len({backend.calls(key) for backend in backends}) == 1
        for backend in backends:
            assert (backend.calls("decomposer"), backend.calls(Role.EVALUATOR)) == (2, 2)
            with pytest.raises(ScriptExhausted):
                backend.complete("evaluator", "p")

    @pytest.mark.parametrize("role", ["decomposer", Role.DECOMPOSER], ids=["string", "member"])
    def test_exhaustion_names_the_role_however_it_is_given(self, role):
        backend = ScriptedBackend({"decomposer": ["STEP: a"]})
        backend.complete(role, "p")
        with pytest.raises(ScriptExhausted) as excinfo:
            backend.complete(role, "p")
        assert str(excinfo.value) == "decomposer script exhausted after 1 replies"

    def test_unknown_role_is_a_value_error(self):
        backend = ScriptedBackend({"decomposer": ["STEP: a"]})
        with pytest.raises(ValueError):
            backend.complete("planner", "p")


class _FakeResponse:
    def __init__(self, status_code=200, payload=None, text="", headers=None):
        self.status_code = status_code
        self.headers = headers or {}
        self._payload = payload
        self.text = text if payload is None else json.dumps(payload)

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


def _no_network(*args, **kwargs):
    raise AssertionError("a request bypassed requests.Session.post")


def patch_post(monkeypatch, fake):
    """Answer every ``requests.Session.post`` with ``fake``, called as
    ``requests.post`` is: the URL, then keywords. A request sent any other
    way fails here instead of reaching the network."""
    monkeypatch.setattr(requests.Session, "post",
                        lambda session, *args, **kwargs: fake(*args, **kwargs))
    monkeypatch.setattr(requests.Session, "request", _no_network)


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
                payload=chat_payload(
                    "STEP: ok", usage={"prompt_tokens": 11, "completion_tokens": 7}
                )
            )

        patch_post(monkeypatch, fake_post)
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
        patch_post(monkeypatch, lambda *a, **k: _FakeResponse(payload=chat_payload("Score: 3")))
        reply = http_backend.complete(Role.EVALUATOR, "abcdefgh")
        assert reply.prompt_tokens == estimate_tokens("abcdefgh")
        assert reply.completion_tokens == estimate_tokens("Score: 3")

    def test_persistent_500_raises_with_status_and_body(self, http_backend, monkeypatch):
        attempts = []
        patch_post(
            monkeypatch,
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
            _FakeResponse(payload=chat_payload("STEP: fine")),
        ]
        patch_post(monkeypatch, lambda *a, **k: responses.pop(0))
        assert http_backend.complete(Role.DECOMPOSER, "p").raw_text == "STEP: fine"

    def test_client_error_is_not_retried(self, http_backend, monkeypatch):
        attempts = []
        patch_post(
            monkeypatch,
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

        patch_post(monkeypatch, fake_post)
        with pytest.raises(BackendTimeout):
            http_backend.complete(Role.DECOMPOSER, "p")

    def test_malformed_json_body(self, http_backend, monkeypatch):
        patch_post(monkeypatch, lambda *a, **k: _FakeResponse(text="<html>gateway</html>"))
        with pytest.raises(BackendError):
            http_backend.complete(Role.DECOMPOSER, "p")

    def test_missing_choices_shape(self, http_backend, monkeypatch):
        patch_post(monkeypatch, lambda *a, **k: _FakeResponse(payload={"choices": []}))
        with pytest.raises(BackendError):
            http_backend.complete(Role.DECOMPOSER, "p")

    def test_each_thread_reuses_its_own_session(self, http_backend, monkeypatch):
        sessions = []

        def fake_post(session, url, **kwargs):
            sessions.append(session)
            return _FakeResponse(payload=chat_payload("STEP: ok"))

        monkeypatch.setattr(requests.Session, "post", fake_post)
        monkeypatch.setattr(requests.Session, "request", _no_network)  # requests.post sends here
        http_backend.complete(Role.DECOMPOSER, "p")
        http_backend.complete(Role.EVALUATOR, "p")
        worker = threading.Thread(target=http_backend.complete, args=(Role.DECOMPOSER, "p"))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert len(sessions) == 3
        assert all(isinstance(session, requests.Session) for session in sessions)
        assert sessions[1] is sessions[0] and sessions[2] is not sessions[0]

    def test_unconfigured_role_rejected(self, monkeypatch):
        backend = HTTPBackend(base_url="http://models.internal")
        with pytest.raises(BackendError):
            backend.complete(Role.DECOMPOSER, "p")

    # http.client sends header values as Latin-1 and refuses CR and LF in them.
    @pytest.mark.parametrize("key", ["sk-\u20acuro", "sk-\udcff", "sk-1\nX-Injected: 1",
                                     "sk-1\r"])
    def test_key_no_http_header_can_carry_is_refused_without_showing_it(self, key):
        with pytest.raises(ValueError, match="api_key") as refused:
            HTTPBackend(base_url="http://models.internal", api_key=key)
        assert key not in str(refused.value)


class TestHTTPBackendAgainstLocalServer:
    """Faults served by a real loopback server; ``requests`` is not patched."""

    def test_transient_500_then_success(self, endpoint):
        backend = endpoint.backend((500, b"busy"), chat_ok("STEP: fine"))
        assert backend.complete(Role.DECOMPOSER, "p").raw_text == "STEP: fine"
        assert endpoint.received == 2

    @pytest.mark.parametrize(
        "actions, timeout, error, status, message, received",
        [
            ([(429, b"slow down")], 5.0, BackendError, 429, "HTTP 429: slow down", 2),
            ([(404, b"no such model")], 5.0, BackendError, 404, "HTTP 404: no such model", 1),
            ([(200, b'{"choices": [{"mess')], 5.0, BackendError, 200,
             'malformed JSON body: {"choices": [{"mess', 1),
            ([chat_ok(5)], 5.0, BackendError, 200, "message content is not text", 1),
            ([chat_ok("STEP: \ud800")], 5.0, BackendError, 200,
             "message content is not valid Unicode", 1),
            (["close"], 5.0, BackendError, None, "transport error: ", 2),
            (["stall"], 0.2, BackendTimeout, None, "no response within 0.2s", 2),
        ],
        ids=["persistent-429", "404", "truncated-json", "content-not-text",
             "content-not-unicode", "closed-without-response", "timeout"],
    )
    def test_fault(self, endpoint, actions, timeout, error, status, message, received):
        backend = endpoint.backend(*actions, timeout=timeout)
        with pytest.raises(BackendError) as excinfo:
            backend.complete(Role.DECOMPOSER, "p")
        assert type(excinfo.value) is error
        assert excinfo.value.status == status
        assert str(excinfo.value).startswith(message)
        assert endpoint.received == received

    @pytest.mark.parametrize(
        "status, retry_after, slept",
        [
            (429, "2", [2.0]),
            (503, " 1 ", [1.0]),
            (503, "30", [5.0]),
            (429, "0", [0.0]),
            (429, None, []),
            (503, "Wed, 21 Oct 2015 07:28:00 GMT", []),
            (429, "1.5", []),
            (500, "2", []),
        ],
        ids=["429-delta", "503-delta", "capped-at-timeout", "zero", "missing", "http-date",
             "not-delta-seconds", "500-ignores-it"],
    )
    def test_retry_after_delays_the_one_retry(
        self, endpoint, monkeypatch, status, retry_after, slept
    ):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        headers = {} if retry_after is None else {"Retry-After": retry_after}
        backend = endpoint.backend((status, b"busy", headers), chat_ok("STEP: fine"),
                                   timeout=5.0)
        assert backend.complete(Role.DECOMPOSER, "p").raw_text == "STEP: fine"
        assert sleeps == slept
        assert endpoint.received == 2

    def test_retry_after_is_not_waited_after_the_last_attempt(self, endpoint, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        backend = endpoint.backend((429, b"slow down", {"Retry-After": "3"}))
        with pytest.raises(BackendError) as excinfo:
            backend.complete(Role.DECOMPOSER, "p")
        assert str(excinfo.value) == "HTTP 429: slow down"
        assert sleeps == [3.0]
        assert endpoint.received == 2

    @pytest.mark.parametrize("api_key", ["k", None], ids=["key", "no-key"])
    def test_wire_request(self, endpoint, api_key):
        endpoint.actions = [chat_ok("STEP: fine")]
        backend = HTTPBackend(base_url=endpoint.url + "/", api_key=api_key,
                              models={Role.DECOMPOSER: "decomposer-8b"})
        params = DecodeParams(temperature=0.5, max_new_tokens=64)
        assert backend.complete("decomposer", "the prompt", params).raw_text == "STEP: fine"
        assert endpoint.paths == ["/v1/chat/completions"]
        [(headers, body)] = endpoint.requests
        assert headers["Content-Type"] == "application/json"
        assert headers.get("Authorization") == (None if api_key is None else "Bearer k")
        assert body == {
            "model": "decomposer-8b",
            "messages": [{"role": "system", "content": DEFAULT_SYSTEM_PROMPTS[Role.DECOMPOSER]},
                         {"role": "user", "content": "the prompt"}],
            "temperature": 0.5,
            "max_tokens": 64,
        }

    @pytest.mark.parametrize("role, error, message", [
        ("evaluator", BackendError, "'evaluator'"),
        ("planner", ValueError, "planner"),
    ], ids=["unconfigured", "unknown"])
    def test_role_without_a_model_sends_nothing(self, endpoint, role, error, message):
        backend = HTTPBackend(base_url=endpoint.url, models={Role.DECOMPOSER: "decomposer-8b"})
        with pytest.raises(error, match=message):
            backend.complete(role, "p")
        assert endpoint.requests == [] and endpoint.paths == []

    @pytest.mark.parametrize("usage", [[1], "12", 7], ids=["list", "string", "number"])
    def test_usage_that_is_not_an_object_is_estimated(self, endpoint, usage):
        backend = endpoint.backend(chat_ok("Score: 3", usage))
        reply = backend.complete(Role.EVALUATOR, "abcdefgh")
        assert reply.prompt_tokens == estimate_tokens("abcdefgh")
        assert reply.completion_tokens == estimate_tokens("Score: 3")
        assert endpoint.received == 1
