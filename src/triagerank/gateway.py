"""Remote chat-completion and scalar-scoring client.

Speaks the OpenAI-compatible chat-completions schema plus a minimal
scoring route (POST {prompt, completion} -> {score}) over the standard
library's http.client, one connection per attempt. Transient failures
(a network, TLS or HTTP framing error, a status other than 200 outside
4xx, or a 408 or 429) are retried with exponential backoff; a
``Retry-After`` in whole seconds replaces the backoff, capped at the
timeout. Any other HTTP 4xx is rejected immediately. Secrets come only
from environment variables.
"""

from __future__ import annotations

import http.client
import json
import logging
import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Mapping
from urllib.parse import urlsplit

from .errors import (
    BadScore,
    ConfigError,
    EndpointUnavailable,
    ProtocolError,
    RequestRejected,
)

logger = logging.getLogger(__name__)

DEFAULT_API_KEY_ENV = "TRIAGERANK_API_KEY"
BASE_URL_ENV = "TRIAGERANK_BASE_URL"

# Fraction of first-position probability mass the top-k must cover before
# a missing YES/NO probability may be derived as the complement.
EXHAUSTIVE_MASS = 0.99


# the connection class for each URL scheme the gateway speaks
_CONNECTIONS = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}


@dataclass(frozen=True)
class EndpointConfig:
    """Connection settings for one model endpoint.

    ``api_key_env`` names the environment variable holding the secret;
    the key itself is never stored in the config.
    """

    base_url: str
    model_name: str
    api_key_env: str = DEFAULT_API_KEY_ENV
    timeout: float = 30.0
    max_retries: int = 2
    max_parallel: int = 4
    chat_path: str = "/v1/chat/completions"
    score_path: str = "/score"
    retry_backoff: float = 0.5

    def __post_init__(self):
        try:
            url = urlsplit(self.base_url)
            url.port  # raises on a port that is not a number in range
        except ValueError as exc:
            raise ConfigError(f"bad base_url {self.base_url!r}: {exc}") from None
        if url.scheme not in _CONNECTIONS or not url.hostname:
            raise ConfigError(
                f"base_url must be an http:// or https:// URL with a host, got {self.base_url!r}"
            )
        if self.timeout <= 0:
            raise ConfigError("timeout must be positive")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.max_parallel < 1:
            raise ConfigError("max_parallel must be >= 1")

    @property
    def api_key(self) -> str:
        return os.environ.get(self.api_key_env, "")


@dataclass(frozen=True)
class CompletionResult:
    """One completion: text, optional YES/NO probabilities, token usage."""

    text: str
    token_probabilities: dict[str, float] | None = None
    usage: dict[str, int] | None = None


# Request Timeout and Too Many Requests: the endpoint asks for the request again
_RETRIED_4XX = frozenset((408, 429))


def _retry_after(value: str | None, cap: float) -> float | None:
    """A ``Retry-After`` in whole seconds, at most ``cap``; None for an HTTP-date or none.

    RFC 9110 10.2.3: the value is either delay-seconds (ASCII digits) or
    an HTTP-date, which falls back to the backoff.
    """
    if value is None:
        return None
    value = value.strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(float(value), cap)


_semaphores: dict[tuple, threading.BoundedSemaphore] = {}
_semaphores_lock = threading.Lock()


def _semaphore(config: EndpointConfig) -> threading.BoundedSemaphore:
    key = (config.base_url, config.model_name, config.max_parallel)
    with _semaphores_lock:
        if key not in _semaphores:
            _semaphores[key] = threading.BoundedSemaphore(config.max_parallel)
        return _semaphores[key]


def _post_json(config: EndpointConfig, path: str, payload: dict) -> dict:
    url = config.base_url.rstrip("/") + path
    parts = urlsplit(url)
    connection_type = _CONNECTIONS[parts.scheme]
    port = parts.port or connection_type.default_port
    target = parts.path + (f"?{parts.query}" if parts.query else "")
    body = json.dumps(payload, allow_nan=False).encode()
    headers = {"Content-Type": "application/json"}
    if config.api_key:
        headers["Authorization"] = f"Bearer {config.api_key}"
    last_error: str = "no attempt made"
    wait: float | None = None  # the last reply's Retry-After, which replaces the backoff
    for attempt in range(config.max_retries + 1):
        if attempt:
            time.sleep(config.retry_backoff * 2 ** (attempt - 1) if wait is None else wait)
            wait = None
        connection = connection_type(parts.hostname, port, timeout=config.timeout)
        try:
            with _semaphore(config):
                connection.request("POST", target, body, headers)
                response = connection.getresponse()
                status, data = response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            status, last_error = None, f"{type(exc).__name__}: {exc}"
        finally:
            connection.close()
        if status == 200:
            try:
                reply = json.loads(data)
            except ValueError:
                raise ProtocolError(f"{url} returned non-JSON body") from None
            if not isinstance(reply, dict):
                raise ProtocolError(f"{url} returned a non-object JSON payload")
            return reply
        if status is not None:
            if status in _RETRIED_4XX:
                wait = _retry_after(response.getheader("Retry-After"), config.timeout)
            elif 400 <= status < 500:
                text = data.decode("utf-8", errors="replace")
                raise RequestRejected(
                    f"{url} returned {status}: {text[:500]}", status=status, body=text
                )
            last_error = f"HTTP {status}"
        # a failed exchange, a 408 or 429, or a non-200 status outside 4xx: try again
        logger.warning("request to %s failed (attempt %d): %s", url, attempt + 1, last_error)
    raise EndpointUnavailable(
        f"{url} unavailable after {config.max_retries + 1} attempts ({last_error})"
    )


def _normalize_token(token: str) -> str:
    return token.strip().lower()


def extract_yes_no_probabilities(
    candidates: Mapping[str, float],
) -> dict[str, float]:
    """Aggregate first-position candidate probabilities into YES/NO mass.

    Surface forms differing only in case or surrounding whitespace are
    summed. When exactly one of the two answers appears, the other is set
    to the complement only if the candidate list covers at least 99% of
    the probability mass; otherwise it is taken as 0. Returns {} when
    neither answer appears.
    """
    p_yes = 0.0
    p_no = 0.0
    yes_seen = False
    no_seen = False
    total = 0.0
    for token, probability in candidates.items():
        total += probability
        normalized = _normalize_token(token)
        if normalized == "yes":
            p_yes += probability
            yes_seen = True
        elif normalized == "no":
            p_no += probability
            no_seen = True
    if not yes_seen and not no_seen:
        return {}
    if yes_seen and not no_seen:
        p_no = max(0.0, 1.0 - p_yes) if total >= EXHAUSTIVE_MASS else 0.0
    elif no_seen and not yes_seen:
        p_yes = max(0.0, 1.0 - p_no) if total >= EXHAUSTIVE_MASS else 0.0
    if p_yes + p_no > 1.0 + 1e-9:
        raise ProtocolError(
            f"YES/NO probabilities sum to {p_yes + p_no:.6f} > 1"
        )
    return {"YES": min(p_yes, 1.0), "NO": min(p_no, 1.0)}


def _candidate_probabilities(entries) -> dict[str, float]:
    """Sum exp(logprob) per token over the schema's list of {token, logprob} objects."""
    if not isinstance(entries, list):
        raise ProtocolError("malformed top_logprobs entries")
    try:
        items = [(entry["token"], entry["logprob"]) for entry in entries]
    except (TypeError, KeyError):
        raise ProtocolError("malformed top_logprobs entries") from None
    candidates: dict[str, float] = {}
    for token, logprob in items:
        if not isinstance(logprob, (int, float)) or not math.isfinite(logprob):
            raise ProtocolError(f"non-finite logprob for token {token!r}")
        candidates[token] = candidates.get(token, 0.0) + math.exp(logprob)
    return candidates


def complete(
    config: EndpointConfig,
    system: str,
    user: str,
    want_logprobs: bool = False,
) -> CompletionResult:
    """Issue one chat completion; optionally extract YES/NO probabilities.

    With ``want_logprobs`` the request asks for per-token logprobs and the
    first answer position's candidates are converted to probabilities via
    ``extract_yes_no_probabilities``.
    """
    payload: dict = {
        "model": config.model_name,
        "messages": [
            {"role": "system", "content": system},
            {"role": "user", "content": user},
        ],
        "temperature": 0.0,
    }
    if want_logprobs:
        payload["logprobs"] = True
        payload["top_logprobs"] = 8
    data = _post_json(config, config.chat_path, payload)
    try:
        choice = data["choices"][0]
        text = choice["message"]["content"]
    except (KeyError, IndexError, TypeError):
        raise ProtocolError("completion response missing choices[0].message.content") from None
    token_probabilities = None
    if want_logprobs:
        try:
            entries = choice["logprobs"]["content"][0]["top_logprobs"]
        except (KeyError, IndexError, TypeError):
            raise ProtocolError("completion response missing top_logprobs") from None
        token_probabilities = extract_yes_no_probabilities(
            _candidate_probabilities(entries)
        )
    usage = data.get("usage") or {}
    return CompletionResult(
        text=text, token_probabilities=token_probabilities, usage=dict(usage)
    )


def score(config: EndpointConfig, prompt: str, completion: str) -> float:
    """Fetch the scalar reward for (prompt, completion) from the scoring route."""
    data = _post_json(
        config, config.score_path, {"prompt": prompt, "completion": completion}
    )
    if "score" not in data:
        raise ProtocolError("scoring response missing 'score' field")
    return finite_score(data["score"])


def finite_score(raw: object) -> float:
    """A backend's score as a plain float; raises BadScore unless a finite number.

    An int or a float, a subclass of either too, is a number; a bool or a
    string is not, and an int too large for a float is not finite.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise BadScore(f"score is not a number: {raw!r}")
    try:
        value = float(raw)
    except OverflowError:
        raise BadScore("score is an integer too large for a float") from None
    if not math.isfinite(value):
        raise BadScore(f"score is not finite: {raw!r}")
    return value


def config_from_env(model_name: str, base_url: str | None = None) -> EndpointConfig:
    """Build an EndpointConfig, honoring the base-URL override variable."""
    url = base_url or os.environ.get(BASE_URL_ENV)
    if not url:
        raise ConfigError(
            f"no endpoint base URL given and {BASE_URL_ENV} is not set"
        )
    return EndpointConfig(base_url=url, model_name=model_name)
