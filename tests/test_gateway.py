from __future__ import annotations

import json
import math
import socket
import socketserver
import threading
from contextlib import contextmanager

import pytest

from triagerank import gateway
from triagerank.errors import (
    BadScore,
    ConfigError,
    EndpointUnavailable,
    ProtocolError,
    RequestRejected,
)
from triagerank.gateway import (
    CompletionResult,
    EndpointConfig,
    complete,
    config_from_env,
    extract_yes_no_probabilities,
    score,
)


def config_for(endpoint, **overrides) -> EndpointConfig:
    settings = {
        "base_url": endpoint.base_url,
        "model_name": "mock-model",
        "timeout": 5.0,
        "max_retries": 2,
        "retry_backoff": 0.001,
    }
    settings.update(overrides)
    return EndpointConfig(**settings)


# ---------------------------------------------------------------- extraction


def test_extract_both_present():
    probs = extract_yes_no_probabilities({" YES": 0.8, " NO": 0.2})
    assert probs == {"YES": 0.8, "NO": 0.2}


def test_extract_aggregates_surface_forms():
    probs = extract_yes_no_probabilities({"Yes": 0.5, " yes": 0.23, " NO": 0.27})
    assert probs["YES"] == pytest.approx(0.73)
    assert probs["NO"] == pytest.approx(0.27)


def test_extract_complement_only_when_exhaustive():
    # candidates cover 99.5% of the mass: complement is safe
    probs = extract_yes_no_probabilities({" NO": 0.9, ".": 0.095})
    assert probs["YES"] == pytest.approx(0.1)
    # candidates cover 40%: the absent token gets 0
    probs = extract_yes_no_probabilities({" YES": 0.4})
    assert probs == {"YES": 0.4, "NO": 0.0}


def test_extract_neither_present():
    assert extract_yes_no_probabilities({"MAYBE": 0.9}) == {}


def test_extract_rejects_mass_above_one():
    with pytest.raises(ProtocolError):
        extract_yes_no_probabilities({"YES": 0.8, " yes": 0.3, "NO": 0.2})


def test_probability_sum_bound_after_aggregation():
    probs = extract_yes_no_probabilities({" YES": 0.62, "no": 0.38})
    assert probs["YES"] + probs["NO"] <= 1.0 + 1e-9


# --------------------------------------------------------------- completions


def test_logprob_fixture_top2(mock_endpoint):
    mock_endpoint.enqueue_fixture("logprob_top2")
    result = complete(config_for(mock_endpoint), "sys", "user", want_logprobs=True)
    assert result.text == "YES"
    assert result.token_probabilities["YES"] == pytest.approx(0.8, abs=1e-9)
    assert result.token_probabilities["NO"] == pytest.approx(0.2, abs=1e-9)
    assert result.usage["total_tokens"] == 181


def test_logprob_fixture_complement(mock_endpoint):
    mock_endpoint.enqueue_fixture("logprob_complement")
    result = complete(config_for(mock_endpoint), "sys", "user", want_logprobs=True)
    assert result.token_probabilities["YES"] == pytest.approx(0.1, abs=1e-9)


def test_logprob_fixture_aggregate(mock_endpoint):
    mock_endpoint.enqueue_fixture("logprob_aggregate")
    result = complete(config_for(mock_endpoint), "sys", "user", want_logprobs=True)
    assert result.token_probabilities["YES"] == pytest.approx(0.73, abs=1e-9)


def test_logprob_fixture_unparseable_yields_empty(mock_endpoint):
    mock_endpoint.enqueue_fixture("logprob_unparseable")
    result = complete(config_for(mock_endpoint), "sys", "user", want_logprobs=True)
    assert result.token_probabilities == {}


def test_logprob_fixture_one_sided_short_mass(mock_endpoint):
    # top-k shows only YES at 0.4 (60% of mass unaccounted): no complement
    mock_endpoint.enqueue_fixture("logprob_one_sided_short")
    result = complete(config_for(mock_endpoint), "sys", "user", want_logprobs=True)
    assert result.token_probabilities["YES"] == pytest.approx(0.4, abs=1e-9)
    assert result.token_probabilities["NO"] == 0.0


@pytest.mark.parametrize(
    "top_logprobs",
    [{" YES": -0.22, " NO": -1.61}, [{"token": " YES", "logprob": -0.22}, -1.61]],
    ids=["mapping", "non-object-entry"],
)
def test_malformed_top_logprobs_is_protocol_error(mock_endpoint, top_logprobs):
    from .mock_gateway import load_fixture

    payload = load_fixture("logprob_top2")
    payload["choices"][0]["logprobs"]["content"][0]["top_logprobs"] = top_logprobs
    mock_endpoint.enqueue(200, payload)
    with pytest.raises(ProtocolError, match="malformed top_logprobs"):
        complete(config_for(mock_endpoint), "sys", "user", want_logprobs=True)


def test_request_payload_shape(mock_endpoint, monkeypatch):
    monkeypatch.setenv("TRIAGERANK_API_KEY", "sk-test")
    mock_endpoint.enqueue_fixture("logprob_top2")
    complete(config_for(mock_endpoint), "sys prompt", "user prompt", want_logprobs=True)
    request = mock_endpoint.requests[0]
    assert request["path"] == "/v1/chat/completions"
    assert request["headers"]["Content-Type"] == "application/json"
    assert request["headers"]["Authorization"] == "Bearer sk-test"
    assert request["raw"] == json.dumps(
        {
            "model": "mock-model",
            "messages": [
                {"role": "system", "content": "sys prompt"},
                {"role": "user", "content": "user prompt"},
            ],
            "temperature": 0.0,
            "logprobs": True,
            "top_logprobs": 8,
        }
    ).encode()
    body = request["body"]
    assert body["model"] == "mock-model"
    assert body["temperature"] == 0.0
    assert body["logprobs"] is True
    assert body["messages"][0] == {"role": "system", "content": "sys prompt"}


# -------------------------------------------------------------------- retries


def test_retry_then_success(mock_endpoint):
    mock_endpoint.enqueue(500, {"error": "transient"})
    mock_endpoint.enqueue(500, {"error": "transient"})
    mock_endpoint.enqueue_fixture("retry_success")
    result = complete(
        config_for(mock_endpoint, max_retries=3), "sys", "user", want_logprobs=True
    )
    assert isinstance(result, CompletionResult)
    assert len(mock_endpoint.requests) == 3


def test_4xx_rejected_without_retry(mock_endpoint):
    mock_endpoint.enqueue_raw(401, b"bad key")
    with pytest.raises(RequestRejected) as excinfo:
        complete(config_for(mock_endpoint), "sys", "user")
    assert excinfo.value.status == 401
    assert excinfo.value.body == "bad key"
    assert len(mock_endpoint.requests) == 1


def test_4xx_with_a_body_that_is_not_utf8_keeps_its_status(mock_endpoint):
    mock_endpoint.enqueue_raw(403, b"\xff\xfe denied")
    with pytest.raises(RequestRejected) as excinfo:
        complete(config_for(mock_endpoint), "sys", "user")
    assert excinfo.value.status == 403
    assert excinfo.value.body == "\ufffd\ufffd denied"
    assert len(mock_endpoint.requests) == 1


def test_exhausted_retries(mock_endpoint):
    for _ in range(3):
        mock_endpoint.enqueue(500, {"error": "down"})
    with pytest.raises(EndpointUnavailable):
        complete(config_for(mock_endpoint, max_retries=2), "sys", "user")
    assert len(mock_endpoint.requests) == 3


def test_429_then_success_makes_two_requests(mock_endpoint):
    mock_endpoint.enqueue(429, {"error": "slow down"})
    mock_endpoint.enqueue_fixture("retry_success")
    assert complete(config_for(mock_endpoint), "sys", "user").text == "YES"
    assert len(mock_endpoint.requests) == 2


@pytest.mark.parametrize(
    "retry_after, slept",
    [
        ("3", 3.0),
        (" 0 ", 0.0),
        ("120", 5.0),  # capped at the timeout
        ("Wed, 21 Oct 2015 07:28:00 GMT", 0.001),  # an HTTP-date: the backoff
        ("1.5", 0.001),  # not whole seconds: the backoff
        ("\u0663", 0.001),  # a digit, but not an ASCII one: the backoff
        (None, 0.001),
    ],
)
@pytest.mark.parametrize("status", [429, 408])
def test_retry_after_in_whole_seconds_replaces_the_backoff(
    mock_endpoint, monkeypatch, status, retry_after, slept
):
    sleeps = []
    monkeypatch.setattr(gateway.time, "sleep", sleeps.append)
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    mock_endpoint.enqueue(status, {"error": "later"}, headers)
    mock_endpoint.enqueue(status, {"error": "later"})
    mock_endpoint.enqueue_fixture("retry_success")
    complete(config_for(mock_endpoint, timeout=5.0, max_retries=2), "sys", "user")
    # the second wait follows a reply without the header: the backoff, doubled
    assert sleeps == [slept, 0.002]
    assert len(mock_endpoint.requests) == 3


def test_408_on_every_attempt_is_unavailable_naming_it(mock_endpoint):
    for _ in range(3):
        mock_endpoint.enqueue(408, {"error": "timeout"})
    with pytest.raises(EndpointUnavailable, match=r"after 3 attempts \(HTTP 408\)"):
        complete(config_for(mock_endpoint, max_retries=2), "sys", "user")
    assert len(mock_endpoint.requests) == 3


@pytest.mark.parametrize("status", [400, 401, 403, 404, 409, 422])
def test_other_4xx_is_rejected_after_one_request(mock_endpoint, status):
    mock_endpoint.enqueue(status, {"error": "no"}, {"Retry-After": "0"})
    with pytest.raises(RequestRejected) as excinfo:
        complete(config_for(mock_endpoint, max_retries=2), "sys", "user")
    assert excinfo.value.status == status
    assert len(mock_endpoint.requests) == 1


def test_refused_connection_is_unavailable_after_every_attempt(caplog):
    with socket.socket() as probe:  # a loopback port nothing listens on
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    config = EndpointConfig(
        base_url=f"http://127.0.0.1:{port}", model_name="m", max_retries=2, retry_backoff=0
    )
    with caplog.at_level("WARNING", logger="triagerank.gateway"):
        with pytest.raises(EndpointUnavailable, match="after 3 attempts"):
            complete(config, "sys", "user")
    attempts = [record for record in caplog.records if record.name == "triagerank.gateway"]
    assert len(attempts) == 3


@contextmanager
def misbehaving_server(reply):
    """A loopback server that hands each connection to ``reply(socket)``.

    Yields the list of accepted connections, complete once the block exits.
    """
    accepted = []

    class Handler(socketserver.BaseRequestHandler):
        def handle(self):
            accepted.append(self.client_address)
            self.request.settimeout(5)
            reply(self.request)

    with socketserver.TCPServer(("127.0.0.1", 0), Handler) as server:
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
        thread.start()
        try:
            host, port = server.server_address
            yield f"http://{host}:{port}", accepted
        finally:
            server.shutdown()
            thread.join(timeout=5)
    assert not thread.is_alive()


def close_without_reply(connection):
    connection.recv(65536)


def garbage_status_line(connection):
    connection.recv(65536)
    connection.sendall(b"NOT-HTTP 200 OK\r\n\r\n{}")


def never_answer(connection):
    while connection.recv(65536):  # until the client gives up and closes
        pass


@pytest.mark.parametrize(
    "reply",
    [close_without_reply, garbage_status_line, never_answer],
    ids=["closed-without-reply", "garbage-status-line", "no-answer"],
)
def test_broken_transport_is_unavailable_after_every_attempt(caplog, reply):
    with misbehaving_server(reply) as (base_url, accepted):
        config = EndpointConfig(
            base_url=base_url, model_name="m", timeout=0.2, max_retries=2, retry_backoff=0
        )
        with caplog.at_level("WARNING", logger="triagerank.gateway"):
            with pytest.raises(EndpointUnavailable, match="after 3 attempts"):
                complete(config, "sys", "user")
    assert len(accepted) == 3
    attempts = [record for record in caplog.records if record.name == "triagerank.gateway"]
    assert len(attempts) == 3


def test_https_to_a_plain_http_server_is_unavailable_after_every_attempt(
    mock_endpoint, caplog
):
    config = config_for(
        mock_endpoint,
        base_url=mock_endpoint.base_url.replace("http://", "https://"),
        timeout=0.2,
        retry_backoff=0,
    )
    with caplog.at_level("WARNING", logger="triagerank.gateway"):
        with pytest.raises(EndpointUnavailable, match="after 3 attempts"):
            complete(config, "sys", "user")
    attempts = [record for record in caplog.records if record.name == "triagerank.gateway"]
    assert len(attempts) == 3
    assert mock_endpoint.requests == []


@pytest.mark.parametrize(
    "body", [b"<html>bad gateway</html>", b"[1, 2]"], ids=["not-json", "array"]
)
def test_200_without_a_json_object_is_protocol_error(mock_endpoint, body):
    mock_endpoint.enqueue_raw(200, body)
    with pytest.raises(ProtocolError):
        complete(config_for(mock_endpoint), "sys", "user")
    assert len(mock_endpoint.requests) == 1


def test_malformed_completion_is_protocol_error(mock_endpoint):
    mock_endpoint.enqueue(200, {"no_choices": []})
    with pytest.raises(ProtocolError):
        complete(config_for(mock_endpoint), "sys", "user")


# -------------------------------------------------------------------- scoring


def test_score_passthrough(mock_endpoint):
    mock_endpoint.enqueue_fixture("reward_ok")
    assert score(config_for(mock_endpoint), "p", "c") == 1.25
    assert mock_endpoint.requests[0]["path"] == "/score"
    assert mock_endpoint.requests[0]["body"] == {"prompt": "p", "completion": "c"}


def test_score_nan_rejected(mock_endpoint):
    mock_endpoint.enqueue_fixture("reward_nan")
    with pytest.raises(BadScore):
        score(config_for(mock_endpoint), "p", "c")


@pytest.mark.parametrize(
    "body",
    [b'{"score": true}', b'{"score": "0.25"}', b'{"score": 1' + b"0" * 400 + b"}"],
    ids=["bool", "numeric-string", "int-too-large-for-a-float"],
)
def test_score_that_is_not_a_finite_number_is_bad(mock_endpoint, body):
    mock_endpoint.enqueue_raw(200, body)
    with pytest.raises(BadScore):
        score(config_for(mock_endpoint), "p", "c")
    assert len(mock_endpoint.requests) == 1


def test_score_missing_field(mock_endpoint):
    mock_endpoint.enqueue_fixture("reward_missing")
    with pytest.raises(ProtocolError):
        score(config_for(mock_endpoint), "p", "c")


def test_score_deterministic_mock(mock_endpoint):
    mock_endpoint.enqueue_fixture("reward_ok")
    mock_endpoint.enqueue_fixture("reward_ok")
    first = score(config_for(mock_endpoint), "p", "c")
    second = score(config_for(mock_endpoint), "p", "c")
    assert first == second


# ---------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ConfigError):
        EndpointConfig(base_url="http://x", model_name="m", timeout=0)
    with pytest.raises(ConfigError):
        EndpointConfig(base_url="http://x", model_name="m", max_retries=-1)
    with pytest.raises(ConfigError):
        EndpointConfig(base_url="http://x", model_name="m", max_parallel=0)


@pytest.mark.parametrize(
    "settings",
    [
        {"base_url": "localhost:9"},
        {"base_url": "ftp://example.test"},
        {"base_url": "http://"},
        {"base_url": "http://example.test:port"},
    ],
    ids=["no-scheme", "ftp", "no-host", "bad-port"],
)
def test_unusable_endpoint_is_config_error(settings):
    with pytest.raises(ConfigError):
        EndpointConfig(**{"base_url": "http://x", "model_name": "m", **settings})


def test_config_from_env(monkeypatch):
    monkeypatch.delenv("TRIAGERANK_BASE_URL", raising=False)
    with pytest.raises(ConfigError):
        config_from_env("m")
    monkeypatch.setenv("TRIAGERANK_BASE_URL", "http://example.test")
    assert config_from_env("m").base_url == "http://example.test"


def test_api_key_comes_from_environment(monkeypatch):
    config = EndpointConfig(base_url="http://x", model_name="m")
    monkeypatch.delenv("TRIAGERANK_API_KEY", raising=False)
    assert config.api_key == ""
    monkeypatch.setenv("TRIAGERANK_API_KEY", "secret")
    assert config.api_key == "secret"


def test_logprob_exp_of_fixture_values():
    # exp of the stored logprobs recovers the intended masses
    from .mock_gateway import load_fixture

    entries = load_fixture("logprob_top2")["choices"][0]["logprobs"]["content"][0][
        "top_logprobs"
    ]
    assert math.exp(entries[0]["logprob"]) == pytest.approx(0.8, abs=1e-12)
    assert math.exp(entries[1]["logprob"]) == pytest.approx(0.2, abs=1e-12)
