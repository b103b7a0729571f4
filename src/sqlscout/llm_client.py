"""Chat and embedding clients for any OpenAI-compatible endpoint.

The search engine only needs one primitive: draw the i-th sample for a prompt
at a temperature. Everything else (on-disk response cache, scripted models
for tests) is built on that surface, so caching and scripting compose with
the real client without the engine knowing which one it holds.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol, runtime_checkable

import numpy as np
import requests

from .errors import ContractViolation, ProtocolError, ScriptError, TransportError

MAX_RETRIES = 3
BACKOFF_SECS = (1.0, 2.0, 4.0)
HTTP_TIMEOUT_SECS = 120.0


@runtime_checkable
class ChatModel(Protocol):
    def sample(self, prompt: str, temperature: float, max_tokens: int,
               sample_index: int, tag: str = "") -> str:
        """Return the sample_index-th completion for the prompt."""
        ...


class Embedder(Protocol):
    def embed(self, texts: list[str]) -> np.ndarray:
        """One unit-norm float64 row per input text."""
        ...


# ---- endpoint configuration ----

@dataclass
class EndpointConfig:
    base_url: str = "http://localhost:8000/v1"
    api_key: str = ""
    chat_model: str = ""
    embed_model: str = ""
    cache_dir: str = ""

    @classmethod
    def from_env(cls) -> EndpointConfig:
        env = os.environ
        return cls(
            base_url=env.get("SQLSCOUT_BASE_URL")
            or env.get("OPENAI_BASE_URL")
            or "http://localhost:8000/v1",
            api_key=env.get("SQLSCOUT_API_KEY") or env.get("OPENAI_API_KEY") or "",
            chat_model=env.get("SQLSCOUT_CHAT_MODEL", ""),
            embed_model=env.get("SQLSCOUT_EMBED_MODEL", ""),
            cache_dir=env.get("SQLSCOUT_CACHE_DIR", ""),
        )


class _ThreadSessions:
    """One `requests.Session` per calling thread.

    A session keeps its connection to the endpoint open between calls, so a
    thread's calls after its first skip connection set-up. Sessions are not
    shared, because `requests` does not promise that one is thread-safe.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: list[requests.Session] = []

    def get(self) -> requests.Session:
        session = getattr(self._local, "session", None)
        if session is None:
            session = self._local.session = requests.Session()
            with self._lock:
                self._open.append(session)
        return session

    def close(self) -> None:
        """Close every thread's session; a later call opens a new one."""
        with self._lock:
            sessions, self._open = self._open, []
        for session in sessions:
            session.close()
        self._local = threading.local()


def _post_with_retries(session: requests.Session, url: str, payload: dict,
                       api_key: str) -> dict:
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    last_err: Exception | None = None
    for attempt in range(MAX_RETRIES + 1):
        if attempt:
            time.sleep(BACKOFF_SECS[attempt - 1])
        try:
            resp = session.post(url, json=payload, headers=headers,
                                timeout=HTTP_TIMEOUT_SECS)
        except requests.RequestException as exc:
            last_err = exc
            continue
        if resp.status_code == 429 or resp.status_code >= 500:
            last_err = TransportError(f"HTTP {resp.status_code} from {url}")
            continue
        if resp.status_code != 200:
            raise TransportError(
                f"HTTP {resp.status_code} from {url}: {resp.text[:200]}"
            )
        try:
            return resp.json()
        except ValueError as exc:
            raise ProtocolError(f"non-JSON response from {url}") from exc
    raise TransportError(f"retries exhausted for {url}: {last_err}")


class OpenAIChatClient:
    """Chat-completions client. One request per sample; retries with backoff.

    Each thread that calls it reuses one connection (see _ThreadSessions).
    """

    def __init__(self, config: EndpointConfig):
        if not config.chat_model:
            raise ContractViolation("chat_model must be configured")
        self.config = config
        self._sessions = _ThreadSessions()

    def sample(self, prompt: str, temperature: float, max_tokens: int,
               sample_index: int, tag: str = "") -> str:
        del sample_index, tag  # independence comes from n=1 per request
        payload = {
            "model": self.config.chat_model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
            "max_tokens": max_tokens,
            "n": 1,
        }
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        data = _post_with_retries(self._sessions.get(), url, payload,
                                  self.config.api_key)
        try:
            text = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed chat response: {exc}") from exc
        if not isinstance(text, str):
            raise ProtocolError("chat response content is not text")
        return text

    def close(self) -> None:
        """Close the connections this client holds open."""
        self._sessions.close()


class OpenAIEmbedder:
    """Embeddings client; vectors are re-normalized locally."""

    def __init__(self, config: EndpointConfig):
        if not config.embed_model:
            raise ContractViolation("embed_model must be configured")
        self.config = config
        self._sessions = _ThreadSessions()

    def embed(self, texts: list[str]) -> np.ndarray:
        if not texts:
            raise ContractViolation("embed requires at least one text")
        url = self.config.base_url.rstrip("/") + "/embeddings"
        payload = {"model": self.config.embed_model, "input": list(texts)}
        data = _post_with_retries(self._sessions.get(), url, payload,
                                  self.config.api_key)
        try:
            items = sorted(data["data"], key=lambda d: d["index"])
            vectors = np.asarray([d["embedding"] for d in items], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed embeddings response: {exc}") from exc
        if vectors.ndim != 2 or vectors.shape[0] != len(texts):
            raise ProtocolError("embeddings response shape mismatch")
        return _normalize_rows(vectors)

    def close(self) -> None:
        """Close the connections this client holds open."""
        self._sessions.close()


def _normalize_rows(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return vectors / norms


class HashEmbedder:
    """Deterministic stand-in embedder: text hash seeds a pseudo-random unit vector.

    Identical texts map to identical vectors; unrelated texts are nearly
    orthogonal in expectation. Useful for tests and offline runs.
    """

    def __init__(self, dim: int = 64):
        self.dim = dim

    def embed(self, texts: list[str]) -> np.ndarray:
        if not texts:
            raise ContractViolation("embed requires at least one text")
        rows = []
        for text in texts:
            digest = hashlib.sha256(text.encode("utf-8")).digest()
            rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
            rows.append(rng.standard_normal(self.dim))
        return _normalize_rows(np.asarray(rows, dtype=np.float64))


# ---- response caching ----

class ResponseCache:
    """Content-addressed file store keyed on (model, prompt, temperature, sample index).

    One file per entry under two-level fan-out directories; writes go to a
    temp file first and are renamed into place, so concurrent writers are safe
    and interrupted runs never leave partial entries.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _key(model: str, prompt: str, temperature: float, sample_index: int) -> str:
        prompt_sha = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        material = json.dumps(
            [model, prompt_sha, float(temperature), int(sample_index)],
            separators=(",", ":"),
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.txt"

    def get(self, model: str, prompt: str, temperature: float,
            sample_index: int) -> str | None:
        path = self._path(self._key(model, prompt, temperature, sample_index))
        if not path.exists():
            return None
        return path.read_text(encoding="utf-8")

    def put(self, model: str, prompt: str, temperature: float,
            sample_index: int, text: str) -> None:
        path = self._path(self._key(model, prompt, temperature, sample_index))
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{uuid.uuid4().hex}.tmp"
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)


class CachedModel:
    """Wraps a ChatModel with a ResponseCache; hits never touch the inner model."""

    def __init__(self, inner: ChatModel, cache: ResponseCache, model_name: str):
        self.inner = inner
        self.cache = cache
        self.model_name = model_name

    def sample(self, prompt: str, temperature: float, max_tokens: int,
               sample_index: int, tag: str = "") -> str:
        hit = self.cache.get(self.model_name, prompt, temperature, sample_index)
        if hit is not None:
            return hit
        text = self.inner.sample(prompt, temperature, max_tokens, sample_index,
                                 tag=tag)
        self.cache.put(self.model_name, prompt, temperature, sample_index, text)
        return text


class CachedEmbedder:
    """Per-text embedding cache in front of any Embedder."""

    def __init__(self, inner: Embedder, cache: ResponseCache, model_name: str):
        self.inner = inner
        self.cache = cache
        self.model_name = model_name

    def embed(self, texts: list[str]) -> np.ndarray:
        rows: list[np.ndarray | None] = []
        misses: list[str] = []
        for text in texts:
            hit = self.cache.get(self.model_name, text, 0.0, 0)
            rows.append(np.asarray(json.loads(hit)) if hit is not None else None)
            if hit is None:
                misses.append(text)
        if misses:
            fetched = self.inner.embed(misses)
            it = iter(range(len(misses)))
            for i, row in enumerate(rows):
                if row is None:
                    vec = fetched[next(it)]
                    self.cache.put(self.model_name, texts[i], 0.0, 0,
                                   json.dumps([float(x) for x in vec]))
                    rows[i] = vec
        return np.asarray(rows, dtype=np.float64)


# ---- test doubles ----

Matcher = Callable[[str], bool]


@dataclass
class ScriptedModel:
    """Rule-based model for tests: first matching rule answers.

    Each rule pairs a matcher (substring or predicate) with either one text,
    used for every sample index, or a list indexed by sample index. A prompt
    no rule matches, or an index past the list, raises ScriptError so a test
    scenario with a hole fails loudly.
    """

    rules: list[tuple[str | Matcher, str | list[str]]] = field(default_factory=list)
    calls: list[tuple[str, float, int, str]] = field(default_factory=list)

    def add(self, matcher: str | Matcher, responses: str | list[str]) -> None:
        self.rules.append((matcher, responses))

    def sample(self, prompt: str, temperature: float, max_tokens: int,
               sample_index: int, tag: str = "") -> str:
        del max_tokens
        self.calls.append((prompt, temperature, sample_index, tag))
        for matcher, responses in self.rules:
            matched = matcher in prompt if isinstance(matcher, str) else matcher(prompt)
            if not matched:
                continue
            if isinstance(responses, str):
                return responses
            if sample_index < len(responses):
                return responses[sample_index]
            raise ScriptError(
                f"no scripted response for sample {sample_index} "
                f"(rule has {len(responses)}); tag={tag!r}"
            )
        raise ScriptError(
            f"no scripted rule matches prompt (tag={tag!r}): {prompt[:160]!r}"
        )


class CountingModel:
    """Pass-through wrapper that counts how many samples reach the inner model."""

    def __init__(self, inner: ChatModel):
        self.inner = inner
        self.count = 0

    def sample(self, prompt: str, temperature: float, max_tokens: int,
               sample_index: int, tag: str = "") -> str:
        self.count += 1
        return self.inner.sample(prompt, temperature, max_tokens, sample_index,
                                 tag=tag)
