"""Agent backends with uniform token accounting.

Interchangeable backends expose ``complete(role, prompt, params)``:

* :class:`ScriptedBackend` replays canned replies per role — the
  deterministic test/replay double.
* :class:`HTTPBackend` speaks the OpenAI-compatible chat-completions
  protocol against a real model endpoint.
* :class:`ReplayBackend` serves the replies a trace recorded, then hands
  each role's calls on to that role's live backend.

Token usage comes from the endpoint's ``usage`` report when available
and otherwise from :func:`estimate_tokens`, a tokenizer-free byte-based
estimate, so budget accounting works identically for both backends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Mapping, Sequence

from .protocol import DECOMPOSER_SYSTEM_PROMPT, EVALUATOR_SYSTEM_PROMPT

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


@dataclass(frozen=True)
class DecodeParams:
    """Sampling settings for one agent call; greedy by default."""

    temperature: float = 0.0
    max_new_tokens: int = 128

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be positive")


@dataclass(frozen=True)
class AgentReply:
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
    script yields identical reply sequences.
    """

    def __init__(self, scripts: Mapping[Role | str, Sequence[str]]):
        self._scripts: dict[Role, list[str]] = {
            Role(role): list(replies) for role, replies in scripts.items()
        }
        self._cursor: dict[Role, int] = {role: 0 for role in self._scripts}

    def complete(
        self, role: Role | str, prompt: str, params: DecodeParams | None = None
    ) -> AgentReply:
        if not isinstance(role, Role):
            role = Role(role)
        replies = self._scripts.get(role, [])
        served = self._cursor.get(role, 0)
        if served >= len(replies):
            raise ScriptExhausted(f"{role.value} script exhausted after {served} replies")
        self._cursor[role] = served + 1
        text = replies[served]
        return AgentReply(
            raw_text=text,
            prompt_tokens=estimate_tokens(prompt),
            completion_tokens=estimate_tokens(text),
        )

    def calls(self, role: Role | str) -> int:
        """Number of replies served or skipped so far for the role."""
        return self._cursor.get(Role(role), 0)

    def skip(self, role: Role | str, count: int) -> None:
        """Move the role's cursor past ``count`` replies served elsewhere."""
        self._cursor[Role(role)] = self.calls(role) + count


class ReplayBackend:
    """Serves each role's recorded ``(raw, tokens_charged)`` replies in order,
    then hands that role's calls to its live backend; a role with none raises
    ``ScriptExhausted``.

    A served reply reaches no backend and charges its recorded total, since a
    trace does not split it into prompt and completion. A live backend with a
    ``skip`` method (a positional script) is moved past the recorded replies
    here. Single-owner, like ScriptedBackend.
    """

    def __init__(
        self,
        replies: Mapping[Role | str, Sequence[tuple[str, int]]],
        decomposer: object | None = None,
        evaluator: object | None = None,
    ):
        self._replies = {Role(role): list(recorded) for role, recorded in replies.items()}
        self._served = {role: 0 for role in Role}
        self._live = {Role.DECOMPOSER: decomposer, Role.EVALUATOR: evaluator}
        for role, backend in self._live.items():
            if hasattr(backend, "skip"):
                backend.skip(role, len(self._replies.get(role, [])))

    def complete(
        self, role: Role | str, prompt: str, params: DecodeParams | None = None
    ) -> AgentReply:
        if not isinstance(role, Role):
            role = Role(role)
        recorded = self._replies.get(role, [])
        served = self._served[role]
        if served < len(recorded):
            self._served[role] = served + 1
            raw, tokens = recorded[served]
            return AgentReply(raw_text=raw, prompt_tokens=tokens, completion_tokens=0)
        if self._live[role] is None:
            raise ScriptExhausted(f"{role.value} replay exhausted after {served} replies")
        return self._live[role].complete(role, prompt, params)


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
    retries never consume the solver's step-retry budget. Calls share no
    mutable state, so a single instance is safe under concurrent workers.
    """

    def __init__(
        self,
        base_url: str,
        api_key: str | None = None,
        models: Mapping[Role | str, str] | None = None,
        system_prompts: Mapping[Role | str, str] | None = None,
        timeout: float = 60.0,
    ):
        # Loaded here rather than at import, so runs without an endpoint never
        # load the HTTP stack and a live run pays for it before its first call.
        import requests

        self._http = requests
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

        for attempt in range(2):
            try:
                response = self._http.post(url, json=body, headers=headers, timeout=self.timeout)
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
