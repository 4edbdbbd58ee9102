"""Agent backends with uniform token accounting.

Interchangeable backends expose ``complete(role, prompt, params)``:

* :class:`ScriptedBackend` replays canned replies per role — the
  deterministic test/replay double.
* :class:`HTTPBackend` speaks the OpenAI-compatible chat-completions
  protocol against a real model endpoint.

Token usage comes from the endpoint's ``usage`` report when available
and otherwise from :func:`estimate_tokens`, a tokenizer-free byte-based
estimate, so budget accounting works identically for both backends.
"""

from __future__ import annotations

import threading
import time
from enum import Enum
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .protocol import (DECOMPOSER_SYSTEM_PROMPT, EVALUATOR_SYSTEM_PROMPT, is_unicode,
                       make_checked, new_record)

if TYPE_CHECKING:
    import requests

CHAT_COMPLETIONS_PATH = "/v1/chat/completions"
API_BASE_ENV = "DUALTRACK_API_BASE"
API_KEY_ENV = "DUALTRACK_API_KEY"

_TRANSIENT_STATUSES = {429, 500, 502, 503, 504}
_BODY_EXCERPT_CHARS = 200


class Role(str, Enum):
    DECOMPOSER = "decomposer"
    EVALUATOR = "evaluator"


DEFAULT_SYSTEM_PROMPTS = {
    Role.DECOMPOSER: DECOMPOSER_SYSTEM_PROMPT,
    Role.EVALUATOR: EVALUATOR_SYSTEM_PROMPT,
}


class BackendError(Exception):
    """The endpoint failed: non-success status, malformed body, or transport error."""

    def __init__(self, message: str, status: int | None = None, body: str | None = None):
        super().__init__(message)
        self.status = status
        self.body = body


class BackendTimeout(BackendError):
    """The endpoint did not answer within the configured timeout."""


class ScriptExhausted(BackendError):
    """A scripted backend has no canned replies left for the role."""


class _DecodeParamsFields(NamedTuple):
    temperature: float = 0.0
    max_new_tokens: int = 128


class DecodeParams(_DecodeParamsFields):
    """Sampling settings for one agent call; greedy by default."""

    __slots__ = ()
    _make = classmethod(make_checked)

    def __new__(cls, *args, **kwargs) -> "DecodeParams":
        self = super().__new__(cls, *args, **kwargs)
        if not self.temperature >= 0:  # NaN too
            raise ValueError("temperature must be non-negative")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be positive")
        return self


class AgentReply(NamedTuple):
    """One agent reply plus its token usage."""

    raw_text: str
    prompt_tokens: int
    completion_tokens: int

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


def estimate_tokens(text: str) -> int:
    """Approximate token count as ceil(utf-8 bytes / 4); 0 for empty text."""
    # An ASCII text has one byte per character, so it need not be encoded.
    size = len(text) if text.isascii() else len(text.encode("utf-8"))
    return (size + 3) // 4


class ScriptedBackend:
    """Deterministic backend replaying an ordered script of replies per role.

    Single-owner: one instance per in-flight solve. Replaying the same
    script yields identical reply sequences. The backend holds each role's
    sequence as given and never writes to it, so backends can share a script.
    """

    def __init__(self, scripts: Mapping[Role | str, Sequence[str]]):
        self._scripts: dict[Role, Sequence[str]] = {
            role if isinstance(role, Role) else Role(role): replies
            for role, replies in scripts.items()
        }
        self._cursor: dict[Role, int] = dict.fromkeys(self._scripts, 0)

    def complete(
        self, role: Role | str, prompt: str, params: DecodeParams | None = None
    ) -> AgentReply:
        if not isinstance(role, Role):
            role = Role(role)
        replies = self._scripts.get(role, ())
        served = self._cursor.get(role, 0)
        if served >= len(replies):
            raise ScriptExhausted(f"{role.value} script exhausted after {served} replies")
        self._cursor[role] = served + 1
        text = replies[served]
        return new_record(AgentReply, (text, estimate_tokens(prompt), estimate_tokens(text)))

    def calls(self, role: Role | str) -> int:
        """Number of replies served so far for the role."""
        return self._cursor.get(role if isinstance(role, Role) else Role(role), 0)


def _http_error(what: str, response: requests.Response) -> BackendError:
    """An endpoint failure carrying the response's status and a body excerpt."""
    body = response.text[:_BODY_EXCERPT_CHARS]
    return BackendError(f"{what}: {body}", status=response.status_code, body=body)


def _retry_after(response: requests.Response) -> float | None:
    """The delta-seconds ``Retry-After`` of a 429 or 503, else None (an
    HTTP-date included)."""
    if response.status_code not in (429, 503):
        return None
    value = response.headers.get("Retry-After", "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


class HTTPBackend:
    """OpenAI-compatible chat-completions client.

    POSTs ``{model, messages, temperature, max_tokens}`` to
    ``<base_url>/v1/chat/completions`` and reads
    ``choices[0].message.content`` plus the ``usage`` token counts. Both
    roles may point at the same endpoint with different models and
    system prompts; the role is carried in configuration.

    One automatic retry is made for transient failures only (timeouts,
    connection errors, HTTP 429/500/502/503/504), after the delta-seconds
    ``Retry-After`` of a 429 or 503, capped at the timeout; transport
    retries never consume the solver's step-retry budget. Each thread keeps
    its own ``requests.Session``, and so its connection, from its first call;
    threads share no mutable state, so one instance is safe under concurrent
    workers.
    """

    def __init__(
        self,
        base_url: str,
        api_key: str | None = None,
        models: Mapping[Role | str, str] | None = None,
        system_prompts: Mapping[Role | str, str] | None = None,
        timeout: float = 60.0,
    ):
        # http.client sends a header value as Latin-1 and refuses CR and LF in it.
        if api_key and (max(api_key) > "\xff" or "\r" in api_key or "\n" in api_key):
            raise ValueError("api_key: an HTTP header takes only Latin-1 text without CR or LF")
        # Loaded here rather than at import, so runs without an endpoint never
        # load the HTTP stack and a live run pays for it before its first call.
        import requests

        self._http = requests
        self._local = threading.local()  # this thread's Session, as .session
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout
        self._models = {Role(r): m for r, m in (models or {}).items()}
        self._system_prompts = dict(DEFAULT_SYSTEM_PROMPTS)
        self._system_prompts.update(
            {Role(r): p for r, p in (system_prompts or {}).items()}
        )

    def complete(
        self, role: Role | str, prompt: str, params: DecodeParams | None = None
    ) -> AgentReply:
        role = Role(role)
        params = params or DecodeParams()
        model = self._models.get(role)
        if model is None:
            raise BackendError(f"no model configured for role {role.value!r}")
        url = self.base_url + CHAT_COMPLETIONS_PATH
        body = {
            "model": model,
            "messages": [
                {"role": "system", "content": self._system_prompts[role]},
                {"role": "user", "content": prompt},
            ],
            "temperature": params.temperature,
            "max_tokens": params.max_new_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        session = getattr(self._local, "session", None)
        if session is None:
            session = self._local.session = self._http.Session()
        for attempt in range(2):
            try:
                response = session.post(url, json=body, headers=headers, timeout=self.timeout)
            except self._http.Timeout:
                error = BackendTimeout(f"no response within {self.timeout}s")
                continue
            except self._http.RequestException as exc:
                error = BackendError(f"transport error: {exc}")
                continue
            if response.status_code == 200:
                return self._parse_response(response, prompt)
            error = _http_error(f"HTTP {response.status_code}", response)
            if response.status_code not in _TRANSIENT_STATUSES:
                break
            if attempt == 0 and (delay := _retry_after(response)) is not None:
                time.sleep(min(delay, self.timeout))
        raise error

    def _parse_response(self, response: requests.Response, prompt: str) -> AgentReply:
        try:
            data = response.json()
        except ValueError:
            raise _http_error("malformed JSON body", response) from None
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise _http_error("unexpected response shape", response) from None
        if not isinstance(content, str):
            raise BackendError("message content is not text", status=response.status_code)
        if not is_unicode(content):
            raise BackendError("message content is not valid Unicode", status=response.status_code)
        # A usage that is not an object counts as absent: both counts are estimated.
        usage = data.get("usage")
        usage = usage if isinstance(usage, dict) else {}
        return AgentReply(
            raw_text=content,
            prompt_tokens=_usage_count(usage, "prompt_tokens", estimate_tokens(prompt)),
            completion_tokens=_usage_count(
                usage, "completion_tokens", estimate_tokens(content)
            ),
        )


def _usage_count(usage: Mapping[str, object], key: str, fallback: int) -> int:
    value = usage.get(key)
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    return fallback
