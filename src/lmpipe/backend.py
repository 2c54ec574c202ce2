"""Text-in/completions-out backends.

The scripted backend is the offline oracle: a list of (matcher, responses)
entries drives every completion deterministically, so semantics tests never
touch a network, and records every call in an append-only log. The HTTP
backend talks to one OpenAI-compatible endpoint. Both can be wrapped in a
response cache keyed on (backend id, prompt text, generation params).
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence
from urllib.parse import unquote, urlsplit

from .core import INT, LIST, STR, STR_LIST, check_record, check_version, read_json

DEFAULT_MAX_TOKENS = 500
DEFAULT_TEMPERATURE = 0.7

API_KEY_ENV = "LM_API_KEY"
API_BASE_ENV = "LM_API_BASE"

SCRIPT_VERSION = 1


class BackendError(RuntimeError):
    """Raised when a backend cannot produce completions."""

    def __init__(self, message: str, retryable: bool = False):
        super().__init__(message)
        self.retryable = retryable


class UnscriptedPromptError(BackendError):
    """A prompt reached the scripted backend without any matching entry."""

    def __init__(self, digest: str):
        super().__init__(f"unscripted prompt (digest {digest})")
        self.digest = digest


def stable_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class GenerationParams:
    max_tokens: int = DEFAULT_MAX_TOKENS
    temperature: float = DEFAULT_TEMPERATURE
    n: int = 1

    def __post_init__(self) -> None:
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be > 0")
        if not self.temperature >= 0:  # NaN too: no endpoint accepts it
            raise ValueError("temperature must be >= 0")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        # computed once: every cached call keys on it. Equal params can differ
        # in digest (temperature 1 against 1.0), so it is per instance, not
        # memoized by value.
        object.__setattr__(self, "_digest", stable_digest(json.dumps(
            {"max_tokens": self.max_tokens, "temperature": self.temperature, "n": self.n},
            sort_keys=True,
        )))

    def __deepcopy__(self, memo):  # immutable: program copies share it
        return self

    def digest(self) -> str:
        return self._digest


@dataclass(frozen=True)
class CallRecord:
    prompt: str
    params: GenerationParams
    completions: tuple[str, ...]


class CallLog:
    """Append-only, thread-safe record of backend calls."""

    def __init__(self) -> None:
        self._records: list[CallRecord] = []
        self._lock = threading.Lock()

    def append(self, record: CallRecord) -> None:
        with self._lock:
            self._records.append(record)

    def records(self) -> list[CallRecord]:
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


@dataclass
class ScriptEntry:
    """One matcher plus its response queue.

    An ``exact`` entry matches a prompt equal to ``match``; a ``substring``
    entry (the default) matches a prompt that contains ``match``. Each
    matching call consumes the next response; once the queue runs out the
    last response repeats forever.
    """

    match: str
    responses: list[str]
    mode: str = "substring"
    _consumed: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not self.responses:
            raise ValueError("script entry needs at least one response")
        if self.mode not in ("substring", "exact"):
            raise ValueError(f"unknown matcher mode {self.mode!r}")

    def next_response(self) -> str:
        idx = min(self._consumed, len(self.responses) - 1)
        self._consumed += 1
        return self.responses[idx]


class ScriptedBackend:
    """Deterministic backend: first declared matching entry wins."""

    backend_id = "scripted"

    def __init__(self, entries: Sequence[ScriptEntry]):
        self.entries = list(entries)
        self.call_log = CallLog()
        self._lock = threading.Lock()

    def generate(self, prompt: str, params: GenerationParams = GenerationParams()) -> list[str]:
        if not prompt:
            raise BackendError("prompt must be nonempty")
        with self._lock:
            for entry in self.entries:
                if (prompt == entry.match if entry.mode == "exact" else entry.match in prompt):
                    completions = tuple(entry.next_response() for _ in range(params.n))
                    break
            else:
                raise UnscriptedPromptError(stable_digest(prompt))
        self.call_log.append(CallRecord(prompt, params, completions))
        return list(completions)


def load_script(path: str | Path) -> list[ScriptEntry]:
    """Read a script file: {"version": 1, "entries": [{match, mode, responses}, ...]}."""
    return read_json(path, _script_entries)


_SCRIPT_FIELDS = {"entries": LIST, "version": INT}
_ENTRY_FIELDS = {"match": STR, "mode": STR, "responses": STR_LIST}


def _script_entries(data: dict) -> list[ScriptEntry]:
    check_version(data, SCRIPT_VERSION, "script")
    check_record(data, _SCRIPT_FIELDS, "script")
    return [ScriptEntry(**check_record(e, _ENTRY_FIELDS, "script entry", optional=("mode",)))
            for e in data["entries"]]


@dataclass(frozen=True)
class EndpointConfig:
    """Where and how to reach an OpenAI-compatible completions endpoint."""

    model: str
    api_base: Optional[str] = None
    timeout: float = 60.0

    def resolve_base(self) -> str:
        base = self.api_base or os.environ.get(API_BASE_ENV)
        if not base:
            raise BackendError(f"no endpoint URL: set {API_BASE_ENV} or configure api_base")
        return base.rstrip("/")


class _Response(NamedTuple):
    """What ``HTTPBackend`` reads of an HTTP reply."""

    status_code: int
    text: str
    location: Optional[str] = None  # where a 3xx points

    def json(self):
        return json.loads(self.text)


@functools.cache
def _tls_context():
    """Built on first use: TLS is verified against the system CA store, loaded once."""
    import ssl

    return ssl.create_default_context()


class _Endpoint(NamedTuple):
    scheme: str
    netloc: str  # host[:port], which NO_PROXY is matched against
    host: str
    port: Optional[int]
    target: str  # the request target: path and query


@functools.lru_cache(maxsize=64)
def _endpoint(url: str) -> _Endpoint:
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"not an http or https URL: {url!r}")
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    return _Endpoint(parts.scheme, parts.netloc, parts.hostname, parts.port, target)


def _proxy_server(proxy: str) -> tuple[str, Optional[int], dict]:
    """A proxy URL's host, port and, when it names a user and a password, its
    ``Proxy-Authorization`` header, read as urllib reads them."""
    parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    auth = {}
    if parts.username and parts.password:
        user_pass = f"{unquote(parts.username)}:{unquote(parts.password)}"
        auth["Proxy-Authorization"] = "Basic " + base64.b64encode(user_pass.encode()).decode("ascii")
    return parts.hostname, parts.port, auth


_HEADERS = {"Content-Type": "application/json", "User-Agent": "lmpipe"}

_to_json = json.dumps  # the transport's ``json`` parameter hides the module


def _send(conn, target: str, body: bytes, headers: dict):
    """The reply's status and headers; ``conn`` is closed if they never come."""
    try:
        conn.request("POST", target, body, headers)
        return conn.getresponse()
    except BaseException:
        conn.close()
        raise


class _Connections:
    """The default ``post``: ``http.client`` connections kept alive, the idle
    ones pooled per endpoint.

    A connection serves one call at a time and is closed when the reply says
    so (HTTP/1.0, or ``Connection: close``). A call on a pooled connection
    that fails before any reply, because the server closed it while it was
    idle, is re-sent once on a fresh connection; any other failure is raised.
    A redirect is not followed: a 3xx is returned like any other status, with
    its ``Location``, so the credential only reaches the URL it was given
    for. ``HTTP(S)_PROXY`` are read at the first call and ``NO_PROXY`` at each
    call a proxy would carry: http goes to the proxy as an absolute-URI
    request, https through a CONNECT tunnel, and the proxy URL's user and
    password become ``Proxy-Authorization``. A non-2xx reply is returned, not
    raised, so its status and body reach the error message.
    """

    def __init__(self) -> None:
        self._idle: dict[tuple, list] = {}
        self._lock = threading.Lock()
        self._proxies: Optional[dict[str, str]] = None

    def post(self, url: str, json: dict, headers: dict, timeout: float) -> _Response:
        endpoint = _endpoint(url)
        proxy = self._proxy(endpoint)
        target, headers = endpoint.target, {**_HEADERS, **headers}
        if proxy is not None and endpoint.scheme == "http":
            _, _, auth = _proxy_server(proxy)
            target = url
            headers.update(auth)
        body = _to_json(json, allow_nan=False).encode("utf-8")
        key = (endpoint.scheme, endpoint.netloc, proxy, timeout)  # a connection keeps its timeout
        with self._lock:
            idle = self._idle.get(key)
            conn = idle.pop() if idle else None
        reply = None
        if conn is not None:
            try:
                reply = _send(conn, target, body, headers)
            except ConnectionError:  # closed while idle: the request got no reply
                pass
        if reply is None:
            conn = self._connect(endpoint, proxy, timeout)
            reply = _send(conn, target, body, headers)
        try:
            text = reply.read().decode("utf-8", "replace")
        except BaseException:
            conn.close()
            raise
        if not reply.will_close:  # http.client has closed a connection whose reply said so
            with self._lock:
                self._idle.setdefault(key, []).append(conn)
        location = reply.getheader("Location") if 300 <= reply.status < 400 else None
        return _Response(reply.status, text, location)

    def _proxy(self, endpoint: _Endpoint) -> Optional[str]:
        """The proxy URL that carries a call to ``endpoint``, if any."""
        if self._proxies is None:  # two first calls may both read them: they read the same
            import urllib.request

            self._proxies = urllib.request.getproxies()
        proxy = self._proxies.get(endpoint.scheme)
        if proxy is not None:
            from urllib.request import proxy_bypass

            if proxy_bypass(endpoint.netloc):
                return None
        return proxy

    @staticmethod
    def _connect(endpoint: _Endpoint, proxy: Optional[str], timeout: float):
        """A connection that opens at its first request."""
        import http.client

        host, port = endpoint.host, endpoint.port
        if proxy is not None:
            host, port, auth = _proxy_server(proxy)
        if endpoint.scheme == "http":
            return http.client.HTTPConnection(host, port, timeout=timeout)
        conn = http.client.HTTPSConnection(host, port, timeout=timeout, context=_tls_context())
        if proxy is not None:
            conn.set_tunnel(endpoint.host, endpoint.port, auth)
        return conn

    def close(self) -> None:
        """Close the idle connections."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()


def _choice_texts(payload) -> list[str]:
    """The completion texts of a chat completions payload; ``ValueError`` says
    what is malformed."""
    if not isinstance(payload, dict):
        raise ValueError("the payload is not a JSON object")
    choices = payload.get("choices", [])
    if not isinstance(choices, list):
        raise ValueError("'choices' is not a list")
    texts = []
    for i, choice in enumerate(choices):
        if not isinstance(choice, dict):
            raise ValueError(f"choice {i} is not an object")
        message = choice.get("message") or {}
        if not isinstance(message, dict):
            raise ValueError(f"the message of choice {i} is not an object")
        text = message.get("content") or choice.get("text") or ""
        if not isinstance(text, str):
            raise ValueError(f"the text of choice {i} is not a string")
        texts.append(text)
    return texts


class HTTPBackend:
    """Live-LM mode against one OpenAI-compatible chat completions endpoint.

    The credential is read from the LM_API_KEY environment variable at call
    time. ``post(url, json=, headers=, timeout=)`` is injectable for testing;
    it returns an object with ``status_code``, ``text`` and ``json()``. The
    default keeps its connections alive until ``close()``. The id names the
    model and the endpoint, so a response cache never mixes two of them.
    """

    def __init__(self, config: EndpointConfig, post: Optional[Callable] = None):
        self.config = config
        self._connections = _Connections()
        self._post = post or self._connections.post

    def close(self) -> None:
        """Close the idle connections; a later call opens a new one."""
        self._connections.close()

    @property
    def backend_id(self) -> str:
        return f"http:{self.config.model}@{self.config.resolve_base()}"

    def generate(self, prompt: str, params: GenerationParams = GenerationParams()) -> list[str]:
        if not prompt:
            raise BackendError("prompt must be nonempty")
        api_key = os.environ.get(API_KEY_ENV)
        if not api_key:
            raise BackendError(f"missing credential: set the {API_KEY_ENV} environment variable")
        url = self.config.resolve_base() + "/chat/completions"
        body = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "max_tokens": params.max_tokens,
            "temperature": params.temperature,
            "n": params.n,
        }
        try:
            response = self._post(
                url,
                json=body,
                headers={"Authorization": f"Bearer {api_key}"},
                timeout=self.config.timeout,
            )
        except Exception as exc:  # transport failure: retryable, never cached
            raise BackendError(f"transport error calling {url}: {exc}", retryable=True) from exc
        status = response.status_code
        if status == 401:
            raise BackendError(
                f"credential rejected (401); check the {API_KEY_ENV} environment variable: "
                f"{response.text}"
            )
        if not 200 <= status < 300:
            # rate limits and server errors may pass; other client errors will not
            location = getattr(response, "location", None)  # an injected post may not say
            where = f" (Location: {location})" if location else ""
            raise BackendError(f"endpoint returned {status}{where}: {response.text}",
                               retryable=status == 429 or status >= 500)
        try:
            completions = _choice_texts(response.json())
        except ValueError as exc:
            raise BackendError(f"malformed response from {url} (status {status}): {exc}") from exc
        if len(completions) != params.n:
            raise BackendError(
                f"endpoint returned {len(completions)} choices, expected {params.n}"
            )
        return completions


class CacheKey(NamedTuple):
    """Equal (backend, prompt, params) always produce an equal key. The key
    holds the prompt itself: a ``str`` computes its hash once."""

    backend_id: str
    prompt: str
    params_digest: str


class _Flight:
    """An inner call that other callers with its key wait on; ``completions``
    stays None if the call failed. The first caller that has to wait makes
    ``done``, under the cache's lock, so an uncontended call makes none."""

    def __init__(self) -> None:
        self.done: Optional[threading.Event] = None
        self.completions: Optional[list[str]] = None


class CachingBackend:
    """Response cache in front of any backend. Errors are never cached.

    Single-flight: while one call for a key is in flight, other calls with the
    same key wait for it instead of calling the inner backend again. If that
    call fails, each waiting call makes its own.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self._cache: dict[CacheKey, list[str]] = {}
        self._in_flight: dict[CacheKey, _Flight] = {}
        self._lock = threading.Lock()

    @property
    def backend_id(self) -> str:
        return self.inner.backend_id

    @property
    def call_log(self) -> CallLog:
        return self.inner.call_log

    def cache_key(self, prompt: str, params: GenerationParams) -> CacheKey:
        return CacheKey(self.inner.backend_id, prompt, params.digest())

    def close(self) -> None:
        """Close the inner backend, if it has anything to close."""
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()

    def generate(self, prompt: str, params: GenerationParams = GenerationParams()) -> list[str]:
        key = self.cache_key(prompt, params)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                return list(cached)
            flight = self._in_flight.get(key)
            leads = flight is None
            if leads:
                flight = self._in_flight[key] = _Flight()
            elif flight.done is None:
                flight.done = threading.Event()
        if not leads:
            flight.done.wait()
            if flight.completions is not None:
                return list(flight.completions)
            return self._fill(key, prompt, params)  # the leader's error is not shared
        try:
            flight.completions = self._fill(key, prompt, params)
            return list(flight.completions)
        finally:
            with self._lock:
                del self._in_flight[key]
                done = flight.done  # no caller can find the flight to make one now
            if done is not None:
                done.set()

    def _fill(self, key: CacheKey, prompt: str, params: GenerationParams) -> list[str]:
        completions = self.inner.generate(prompt, params)
        with self._lock:
            self._cache.setdefault(key, list(completions))
        return list(completions)
