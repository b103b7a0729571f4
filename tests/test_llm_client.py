"""Endpoint client behavior: retries, caching, scripted and hash doubles."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

import sqlscout.llm_client as llm
from sqlscout.errors import (
    ContractViolation,
    EndpointUnavailable,
    ProtocolError,
    ScriptError,
    TransportError,
)
from sqlscout.llm_client import (
    CachedEmbedder,
    CachedModel,
    CountingModel,
    EndpointConfig,
    HashEmbedder,
    OpenAIChatClient,
    OpenAIEmbedder,
    ResponseCache,
    ScriptedModel,
)


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text
        self.headers = headers or {}

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


def chat_payload(content: str) -> dict:
    return {"choices": [{"message": {"content": content}}]}


@pytest.fixture
def no_sleep(monkeypatch):
    naps = []
    monkeypatch.setattr(llm.time, "sleep", naps.append)
    return naps


def make_client() -> OpenAIChatClient:
    return OpenAIChatClient(EndpointConfig(chat_model="m", base_url="http://x/v1"))


def test_client_requires_model_name():
    with pytest.raises(ContractViolation):
        OpenAIChatClient(EndpointConfig(chat_model=""))


def test_retry_then_success(monkeypatch, no_sleep):
    responses = iter([
        FakeResponse(status_code=500, text="boom"),
        FakeResponse(status_code=429, text="slow down"),
        FakeResponse(payload=chat_payload("fine")),
    ])
    calls = []
    monkeypatch.setattr(llm.requests.Session, "request",
                        lambda *a, **k: (calls.append(a), next(responses))[1])
    assert make_client().sample("p", 0.0, 64, 0) == "fine"
    assert len(calls) == 3
    assert no_sleep == [1.0, 2.0]  # backoff schedule


def test_retries_exhausted(monkeypatch, no_sleep):
    monkeypatch.setattr(llm.requests.Session, "request",
                        lambda *a, **k: FakeResponse(status_code=503))
    with pytest.raises(EndpointUnavailable):  # an outage, not a refusal
        make_client().sample("p", 0.0, 64, 0)
    assert no_sleep == [1.0, 2.0, 4.0]


@pytest.mark.parametrize("status, retry_after, nap", [
    (429, "3", 3.0),
    (503, "0.5", 0.5),
    (429, "86400", llm.HTTP_TIMEOUT_SECS),              # capped
    (503, "Wed, 21 Oct 2026 07:28:00 GMT", 1.0),        # HTTP-date: fixed step
    (429, "soon", 1.0),                                 # malformed: fixed step
    (429, "-2", 1.0),
    (500, "3", 1.0),                                    # only 429 and 503 ask
])
def test_retry_after_sets_the_wait(monkeypatch, no_sleep, status, retry_after,
                                   nap):
    responses = iter([
        FakeResponse(status_code=status, headers={"Retry-After": retry_after}),
        FakeResponse(status_code=500),
        FakeResponse(payload=chat_payload("fine")),
    ])
    monkeypatch.setattr(llm.requests.Session, "request",
                        lambda *a, **k: next(responses))
    assert make_client().sample("p", 0.0, 64, 0) == "fine"
    assert no_sleep == [nap, 2.0]  # the next wait is the fixed step again

def test_client_error_is_not_retried(monkeypatch, no_sleep):
    calls = []
    monkeypatch.setattr(
        llm.requests.Session, "request",
        lambda *a, **k: (calls.append(1), FakeResponse(status_code=400, text="bad"))[1],
    )
    with pytest.raises(TransportError) as refused:
        make_client().sample("p", 0.0, 64, 0)
    assert len(calls) == 1
    # the endpoint is up and refused this one request: not an outage
    assert not isinstance(refused.value, EndpointUnavailable)


@pytest.mark.parametrize("status", [401, 403, 404])
def test_a_refused_key_model_or_url_is_an_outage_at_once(monkeypatch, no_sleep,
                                                         status):
    calls = []
    monkeypatch.setattr(
        llm.requests.Session, "request",
        lambda *a, **k: (calls.append(1), FakeResponse(status_code=status,
                                                       text="no such model"))[1],
    )
    with pytest.raises(EndpointUnavailable, match=f"HTTP {status}"):
        make_client().sample("p", 0.0, 64, 0)
    # every request would be refused alike: no retry, no sleep
    assert len(calls) == 1 and no_sleep == []


@pytest.mark.parametrize("base_url, api_key, error", [
    ("localhost:8000/v1", "", "InvalidSchema"),   # no scheme: no adapter for it
    ("http//localhost:8000/v1", "", "MissingSchema"),
    ("http://", "", "InvalidURL"),                # no host
    ("http://x/v1", "sk-key\n", "InvalidHeader"),  # a key read with its newline
])
def test_a_request_that_cannot_be_built_is_an_outage_at_once(
        monkeypatch, no_sleep, base_url, api_key, error):
    def send(*a, **k):
        raise AssertionError("the request was built and sent")

    monkeypatch.setattr(llm.requests.adapters.HTTPAdapter, "send", send)
    client = OpenAIChatClient(EndpointConfig(chat_model="m", base_url=base_url,
                                             api_key=api_key))
    with pytest.raises(EndpointUnavailable, match="no request can be sent") as down:
        client.sample("p", 0.0, 64, 0)
    assert type(down.value.__cause__).__name__ == error
    # every attempt would fail alike: no retry, no sleep
    assert no_sleep == []


def test_network_exception_retried(monkeypatch, no_sleep):
    attempts = []

    def post(*a, **k):
        attempts.append(1)
        if len(attempts) < 2:
            raise llm.requests.ConnectionError("refused")
        return FakeResponse(payload=chat_payload("ok"))

    monkeypatch.setattr(llm.requests.Session, "request", post)
    assert make_client().sample("p", 0.0, 64, 0) == "ok"


def test_malformed_body_raises_protocol_error(monkeypatch):
    monkeypatch.setattr(llm.requests.Session, "request",
                        lambda *a, **k: FakeResponse(payload={"choices": []}))
    with pytest.raises(ProtocolError):
        make_client().sample("p", 0.0, 64, 0)


def test_non_json_body_raises_protocol_error(monkeypatch):
    monkeypatch.setattr(llm.requests.Session, "request",
                        lambda *a, **k: FakeResponse(payload=None, text="<html>"))
    with pytest.raises(ProtocolError):
        make_client().sample("p", 0.0, 64, 0)


@pytest.fixture
def local_endpoint(monkeypatch):
    """An OpenAI-style stub on 127.0.0.1 that records each request's client port."""
    for var in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY",
                "http_proxy", "https_proxy", "all_proxy"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    ports: list[tuple[str, int]] = []

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive, so a connection can be reused

        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            ports.append((self.path, self.client_address[1]))
            if self.path.endswith("/embeddings"):
                reply = {"data": [{"index": i, "embedding": [1.0, 0.0]}
                                  for i in range(len(body["input"]))]}
            else:
                reply = chat_payload("ok")
            data = json.dumps(reply).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/v1", ports
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_clients_reuse_one_connection_per_thread(local_endpoint):
    base_url, ports = local_endpoint
    config = EndpointConfig(base_url=base_url, chat_model="m", embed_model="e")
    chat, embedder = OpenAIChatClient(config), OpenAIEmbedder(config)
    try:
        for i in range(20):
            assert chat.sample("p", 0.0, 8, i) == "ok"
        assert embedder.embed(["a"]).shape == (1, 2)
        assert embedder.embed(["b", "c"]).shape == (2, 2)
        other = threading.Thread(target=lambda: chat.sample("p", 0.0, 8, 0))
        other.start()
        other.join(timeout=30)
        assert not other.is_alive()
    finally:
        chat.close()
        embedder.close()
    chat_ports = [port for path, port in ports if path.endswith("/chat/completions")]
    embed_ports = {port for path, port in ports if path.endswith("/embeddings")}
    assert len(chat_ports) == 21 and len(set(chat_ports[:20])) == 1
    assert chat_ports[20] != chat_ports[0]  # another thread, its own connection
    assert len(embed_ports) == 1


# ---- cache ----

def test_cache_roundtrip_and_miss(tmp_path):
    cache = ResponseCache(tmp_path)
    assert cache.get("m", "prompt", 0.8, 0) is None
    cache.put("m", "prompt", 0.8, 0, "answer")
    assert cache.get("m", "prompt", 0.8, 0) == "answer"
    # every key component separates entries
    assert cache.get("m", "prompt", 0.8, 1) is None
    assert cache.get("m", "prompt", 1.0, 0) is None
    assert cache.get("other", "prompt", 0.8, 0) is None
    assert cache.get("m", "prompt!", 0.8, 0) is None


def test_cache_keeps_a_text_with_a_lone_surrogate(tmp_path):
    # an endpoint's JSON may carry a "\ud800" escape; the cache stores and
    # returns such a text as it came, under such a prompt too
    cache = ResponseCache(tmp_path)
    cache.put("m", "prompt \ud800", 0.8, 0, "answer \udfff")
    assert cache.get("m", "prompt \ud800", 0.8, 0) == "answer \udfff"
    assert cache.get("m", "prompt", 0.8, 0) is None


def test_cache_keys_of_valid_text_are_unchanged():
    # the keys existing cache directories were written under
    assert ResponseCache._key("m", "prompt", 0.8, 0) == (
        "04c08788b0ee33943539acb8ad5a58bb7aeb570f836e10d22439e14b7d614203")
    assert ResponseCache._key("gpt", "Wie viele Cafés? 東京", 0.8, 3) == (
        "eded03ea32fe14c3d1dd85b8d1c4012b4a05d1dded2f45d311194b7265777500")


def test_cached_model_shields_inner(tmp_path):
    inner = ScriptedModel()
    inner.add("q", ["first", "second"])
    counter = CountingModel(inner)
    model = CachedModel(counter, ResponseCache(tmp_path), "m")
    assert model.sample("q", 0.8, 64, 0) == "first"
    assert model.sample("q", 0.8, 64, 0) == "first"
    assert model.sample("q", 0.8, 64, 1) == "second"
    assert counter.count == 2  # one real call per distinct key


def test_cache_survives_reopen(tmp_path):
    inner = ScriptedModel()
    inner.add("q", "text")
    CachedModel(inner, ResponseCache(tmp_path), "m").sample("q", 0.0, 64, 0)
    # a fresh cache over the same directory, inner model answers nothing
    empty = ScriptedModel()
    model = CachedModel(empty, ResponseCache(tmp_path), "m")
    assert model.sample("q", 0.0, 64, 0) == "text"


def test_cached_embedder_mixes_hits_and_misses(tmp_path):
    cache = ResponseCache(tmp_path)
    inner = HashEmbedder(dim=8)
    counted = []

    class Spy:
        def embed(self, texts):
            counted.append(list(texts))
            return inner.embed(texts)

    embedder = CachedEmbedder(Spy(), cache, "emb")
    first = embedder.embed(["a", "b"])
    second = embedder.embed(["b", "c", "a"])
    assert counted == [["a", "b"], ["c"]]
    np.testing.assert_allclose(second[2], first[0], atol=1e-12)
    np.testing.assert_allclose(second[0], first[1], atol=1e-12)


def test_cached_embedder_fetches_a_repeated_miss_once(tmp_path):
    # retrieval can pass one text twice: a value in two columns, or a value
    # equal to its keyword
    inner = HashEmbedder(dim=8)
    counted = []

    class Spy:
        def embed(self, texts):
            counted.append(list(texts))
            return inner.embed(texts)

    embedder = CachedEmbedder(Spy(), ResponseCache(tmp_path), "emb")
    rows = embedder.embed(["Paris", "Paris", "Lyon"])
    assert counted == [["Paris", "Lyon"]]
    np.testing.assert_allclose(rows, inner.embed(["Paris", "Paris", "Lyon"]),
                               atol=1e-12)
    again = embedder.embed(["Lyon", "Paris", "Lyon"])
    assert counted == [["Paris", "Lyon"]]  # all hits now
    np.testing.assert_allclose(again, rows[[2, 0, 2]], atol=1e-12)


# ---- doubles ----

def test_scripted_model_rules_in_order():
    model = ScriptedModel()
    model.add(lambda p: "x" in p and "y" in p, "both")
    model.add("x", "just x")
    assert model.sample("x and y", 0.0, 8, 0) == "both"
    assert model.sample("x alone", 0.0, 8, 0) == "just x"


def test_complete_loops_sample_indices():
    # n samples of one prompt are indices 0..n-1 of the sample primitive;
    # each index draws its own response and the wrapper passes every one on
    inner = ScriptedModel()
    inner.add("hello", ["a", "b", "c"])
    model = CountingModel(inner)
    out = [model.sample("hello", 0.8, 64, i, tag="A5") for i in range(3)]
    assert out == ["a", "b", "c"]
    assert model.count == 3
    assert inner.calls == [("hello", 0.8, i, "A5") for i in range(3)]


def test_scripted_model_unmatched_raises():
    model = ScriptedModel()
    model.add("expected", "text")
    with pytest.raises(ScriptError):
        model.sample("something else entirely", 0.0, 8, 0)


def test_scripted_model_index_overflow_raises():
    model = ScriptedModel()
    model.add("p", ["only one"])
    with pytest.raises(ScriptError):
        model.sample("p", 0.0, 8, 1)


def test_hash_embedder_deterministic_unit_norm():
    emb = HashEmbedder(dim=32)
    a1 = emb.embed(["alpha"])
    a2 = emb.embed(["alpha", "beta"])
    np.testing.assert_allclose(a1[0], a2[0], atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(a2, axis=1), [1.0, 1.0], atol=1e-12)
    # unrelated texts are not parallel
    assert abs(float(a2[0] @ a2[1])) < 0.9


def test_endpoint_config_from_env(monkeypatch):
    for var in ("SQLSCOUT_BASE_URL", "OPENAI_BASE_URL", "SQLSCOUT_API_KEY",
                "OPENAI_API_KEY", "SQLSCOUT_CHAT_MODEL", "SQLSCOUT_EMBED_MODEL",
                "SQLSCOUT_CACHE_DIR"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENAI_BASE_URL", "http://alt/v1")
    monkeypatch.setenv("SQLSCOUT_CHAT_MODEL", "chat-x")
    cfg = EndpointConfig.from_env()
    assert cfg.base_url == "http://alt/v1"
    assert cfg.chat_model == "chat-x"
    monkeypatch.setenv("SQLSCOUT_BASE_URL", "http://main/v1")
    assert EndpointConfig.from_env().base_url == "http://main/v1"
