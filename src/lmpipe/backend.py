"""Text-in/completions-out backends.

The scripted backend is the offline oracle: a list of (matcher, responses)
entries drives every completion deterministically, so semantics tests never
touch a network, and records every call in an append-only log. The HTTP
backend talks to one OpenAI-compatible endpoint. Either can be wrapped in a
response cache, which serves the one backend it wraps and keys on the prompt
text alone.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import os
import re
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
    """``ScriptedBackend.generate``'s optional argument, whose ``n`` draws that
    many responses in one call. lmpipe calls ``generate(prompt)``; only the
    benchmark's stub LM passes params."""

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


@dataclass(frozen=True)
class CallRecord:
    prompt: str


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
                    completions = [entry.next_response() for _ in range(params.n)]
                    break
            else:
                raise UnscriptedPromptError(stable_digest(prompt))
        self.call_log.append(CallRecord(prompt))
        return completions


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


@functools.cache
def _tls_context():
    """Built on first use: TLS is verified against the system CA store, loaded once."""
    import ssl

    return ssl.create_default_context()


class _Endpoint(NamedTuple):
    scheme: str
    netloc: str  # host[:port], which NO_PROXY is matched against
    host: str
    port: int
    authority: str  # the Host header of a direct or tunnelled request
    target: str  # the request target: path and query


_PORTS = {"http": 80, "https": 443}

_UNSENDABLE_URL = re.compile(r"[^\x21-\x7e]")  # a space, a control or a non-ASCII character


@functools.lru_cache(maxsize=64)
def _endpoint(url: str) -> _Endpoint:
    parts = urlsplit(url)
    if "@" in (parts.netloc or url):  # never echoed: it may hold a credential
        raise ValueError(f"a user name or password in the URL; set the credential in {API_KEY_ENV}")
    if parts.scheme not in _PORTS or not parts.hostname:
        raise ValueError(f"not an http or https URL: {url!r}")
    if _UNSENDABLE_URL.search(url):
        raise ValueError(f"a space, a control or a non-ASCII character in the URL: {url!r}")
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    host, default = parts.hostname, _PORTS[parts.scheme]
    authority = f"[{host}]" if ":" in host else host  # an IPv6 address
    if parts.port not in (None, default):
        authority += f":{parts.port}"
    return _Endpoint(parts.scheme, parts.netloc, host, parts.port or default, authority, target)


class _Proxy(NamedTuple):
    url: str  # as its variable holds it: the connections it carries are pooled under it
    address: tuple[str, int]
    auth: dict  # Proxy-Authorization, when the URL names a user and a password


def _proxy_variable(name: str) -> tuple[str, str]:
    """``name``, or ``NAME`` where it is not set, and its value ("" is unset).
    Under CGI, ``HTTP_PROXY`` may be a client's ``Proxy`` header (CVE-2016-1000110)."""
    value = os.environ.get(name)
    if value is not None:
        return name, value
    name = name.upper()
    value = os.environ.get(name, "")
    cgi = value and name == "HTTP_PROXY" and "REQUEST_METHOD" in os.environ
    return name, "" if cgi else value


_PORT_SUFFIX = re.compile(r"(.*):[0-9]*", re.DOTALL)  # urllib's: host:port, or host:


def _proxy(endpoint: _Endpoint) -> Optional[_Proxy]:
    """The proxy that carries a call to ``endpoint``, by urllib's POSIX rule
    read at each call: ``<scheme>_proxy``, unless ``no_proxy`` is ``*`` or
    lists the host, its host:port or a domain it is in. A proxy URL that is
    not http or https, or has no host or a bad port, raises a ``BackendError``
    naming its variable, never its value."""
    name, url = _proxy_variable(f"{endpoint.scheme}_proxy")
    if not url:
        return None
    _, no_proxy = _proxy_variable("no_proxy")
    netloc = endpoint.netloc.lower()
    host = _PORT_SUFFIX.fullmatch(netloc)
    hosts = (f".{netloc}", f".{host[1] if host else netloc}")  # "." + h ends in "." + d: h is d or in d
    domains = ["." + d.strip().lstrip(".").lower() for d in no_proxy.split(",") if d.strip()]
    if no_proxy == "*" or any(h.endswith(d) for d in domains for h in hosts):
        return None
    try:
        parts = urlsplit(url if "://" in url else f"http://{url}")
        address = (parts.hostname, parts.port or _PORTS[endpoint.scheme])
    except ValueError:
        address = None
    if address is None or parts.scheme not in _PORTS or not parts.hostname:
        raise BackendError(f"bad proxy: the {name} environment variable is not an http or https URL "
                           "with a host and a valid port")
    auth = {}
    if parts.username and parts.password:
        user_pass = f"{unquote(parts.username)}:{unquote(parts.password)}"
        auth["Proxy-Authorization"] = "Basic " + base64.b64encode(user_pass.encode()).decode("ascii")
    return _Proxy(url, address, auth)


_HEADERS = {"Content-Type": "application/json", "User-Agent": "lmpipe"}

# a header value that would end its line, or that Latin-1 cannot encode
_UNSENDABLE_VALUE = re.compile(r"[\r\n\0]|[^\x00-\xff]")


def _request(method: str, target: str, headers: dict, body: bytes = b"") -> bytes:
    """The bytes of one HTTP/1.1 request; ``ValueError``, naming the header
    but not its value, for a value that cannot go into one."""
    lines = [f"{method} {target} HTTP/1.1"]
    for name, value in headers.items():
        if _UNSENDABLE_VALUE.search(value):
            raise ValueError(f"the {name} header holds a CR, LF, NUL or non-Latin-1 character")
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


# a reply's limits, as http.client sets them: a longer line, or more headers, raises
_MAX_LINE = 65536
_MAX_HEADERS = 100


def _line(reader, what: str) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise OSError(f"{what} longer than {_MAX_LINE} bytes")
    return line


def _read_head(reader) -> tuple[bool, int, dict]:
    """Whether a reply is HTTP/1.0, its status, and its headers (names
    lowercased, the first of each kept), past any 1xx reply. A reply that
    never starts raises ``ConnectionError``; one that breaks the protocol or
    a limit, ``OSError``."""
    while True:
        line = _line(reader, "status line")
        if not line:
            raise ConnectionResetError("the server closed the connection without a reply")
        parts = line.split(None, 2)
        status = int(parts[1]) if len(parts) > 1 and len(parts[1]) == 3 and parts[1].isdigit() else 0
        if status < 100 or not parts[0].startswith(b"HTTP/1."):
            raise OSError(f"malformed status line {line[:100]!r}")
        headers: dict[bytes, bytes] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = _line(reader, "header line")
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = line.partition(b":")
            if colon:
                headers.setdefault(name.strip().lower(), value.strip())
        else:
            raise OSError(f"more than {_MAX_HEADERS} headers")
        if status >= 200:
            return parts[0] == b"HTTP/1.0", status, headers


def _read_body(reader, http_1_0: bool, status: int, headers: dict) -> tuple[bytes, bool]:
    """A reply's body, and whether its connection may carry another request:
    as http.client decides, HTTP/1.0 closes unless it says keep-alive,
    ``Connection: close`` closes, and a body read until the server closes
    leaves nothing to keep."""
    connection = headers.get(b"connection", b"").lower()
    if http_1_0:
        keep = b"keep-alive" in headers or b"keep-alive" in connection
    else:
        keep = b"close" not in connection
    if status in (204, 304):
        return b"", keep
    if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        return _read_chunked(reader), keep
    length = headers.get(b"content-length", b"")
    if not length.isdigit():
        return reader.read(), False
    return _read_exactly(reader, int(length)), keep


def _read_exactly(reader, size: int) -> bytes:
    data = reader.read(size)
    if len(data) < size:
        raise OSError(f"the reply ended {size - len(data)} bytes short of its length")
    return data


def _read_chunked(reader) -> bytes:
    """A ``Transfer-Encoding: chunked`` body; chunk extensions and the trailer
    are read past."""
    chunks = []
    while True:
        line = _line(reader, "chunk size line")
        try:
            size = int(line.split(b";", 1)[0], 16)
        except ValueError:
            size = -1
        if size < 0:
            raise OSError(f"malformed chunk size line {line[:100]!r}")
        if size == 0:
            break
        chunks.append(_read_exactly(reader, size + 2)[:size])  # the chunk and its CRLF
    while _line(reader, "trailer line") not in (b"\r\n", b"\n", b""):
        pass
    return b"".join(chunks)


def _tunnel(sock, endpoint: _Endpoint, auth: dict) -> None:
    """Open a CONNECT tunnel through the proxy at the other end of ``sock``."""
    # host:port, the port written even where the Host header leaves it out
    target = endpoint.authority if endpoint.port != _PORTS["https"] else f"{endpoint.authority}:443"
    sock.sendall(_request("CONNECT", target, {"Host": target, **auth}))
    with sock.makefile("rb") as reader:
        _, status, _ = _read_head(reader)
    if status != 200:
        raise OSError(f"the proxy refused the tunnel: {status}")


class _Connection:
    """A socket, and the one buffered reader its replies are read through."""

    def __init__(self, sock) -> None:
        self.sock = sock
        self.reader = sock.makefile("rb")

    @classmethod
    def open(cls, endpoint: _Endpoint, proxy: Optional[_Proxy], timeout: float) -> _Connection:
        """A connection to ``endpoint``, through ``proxy`` if one is given."""
        import socket

        address = (endpoint.host, endpoint.port) if proxy is None else proxy.address
        sock = socket.create_connection(address, timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if endpoint.scheme == "https":
                if proxy is not None:
                    _tunnel(sock, endpoint, proxy.auth)
                sock = _tls_context().wrap_socket(sock, server_hostname=endpoint.host)
            return cls(sock)
        except BaseException:
            sock.close()
            raise

    def send(self, request: bytes) -> tuple[bool, int, dict]:
        """Send ``request`` in one write and read its reply's head; closed if
        that fails."""
        try:
            self.sock.sendall(request)
            return _read_head(self.reader)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class _Connections:
    """The default ``post``: HTTP/1.1 connections of lmpipe's own kept alive,
    the idle ones pooled per endpoint.

    A request goes out in one write, and its reply is read through the
    connection's buffered reader: a body by ``Transfer-Encoding: chunked``, by
    ``Content-Length``, or until the server closes. A line of the reply is at
    most 65,536 bytes and a reply has at most 100 headers; a reply that breaks
    a limit or the protocol raises, and its connection is dropped. A
    connection serves one call at a time and is closed when the reply says so
    (HTTP/1.0, ``Connection: close``, or a body read until the server
    closes). A call on a pooled connection that fails before any reply,
    because the server closed it while it was idle, is re-sent once on a
    fresh connection; any other failure is raised. A redirect is not
    followed: a 3xx is returned like any other status, with its
    ``Location``, so the credential only reaches the URL it was given for.
    The proxy variables are read at each call, by the rule of ``_proxy``:
    http goes to the proxy as an absolute-URI request, https through a
    CONNECT tunnel, and the proxy URL's user and password become
    ``Proxy-Authorization``. A reply is returned as its status, its body
    decoded as UTF-8, and a 3xx's ``Location``; a non-2xx reply is returned,
    not raised, so its status and body reach the error message.
    """

    def __init__(self) -> None:
        self._idle: dict[tuple, list[_Connection]] = {}
        self._lock = threading.Lock()

    def post(self, url: str, body: bytes, headers: dict, timeout: float) -> tuple[int, str, Optional[str]]:
        endpoint = _endpoint(url)
        proxy = _proxy(endpoint)
        target, host, auth = endpoint.target, endpoint.authority, {}
        if proxy is not None and endpoint.scheme == "http":
            target, host, auth = url, endpoint.netloc, proxy.auth
        request = _request("POST", target, {"Host": host, "Accept-Encoding": "identity",
                                            "Content-Length": str(len(body)), **_HEADERS, **headers, **auth},
                           body)
        key = (endpoint.scheme, endpoint.netloc, proxy and proxy.url, timeout)  # a connection keeps its timeout
        with self._lock:
            idle = self._idle.get(key)
            conn = idle.pop() if idle else None
        head = None
        if conn is not None:
            try:
                head = conn.send(request)
            except ConnectionError:  # closed while idle: the request got no reply
                pass
        if head is None:
            conn = _Connection.open(endpoint, proxy, timeout)
            head = conn.send(request)
        try:
            data, keep = _read_body(conn.reader, *head)
        except BaseException:
            conn.close()
            raise
        if keep:
            with self._lock:
                self._idle.setdefault(key, []).append(conn)
        else:
            conn.close()
        _, status, reply_headers = head
        location = reply_headers.get(b"location") if 300 <= status < 400 else None
        return (status, data.decode("utf-8", "replace"),
                None if location is None else location.decode("latin-1"))

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
    time. Each request asks for one completion of ``DEFAULT_MAX_TOKENS`` at
    ``DEFAULT_TEMPERATURE``. ``post(url, body, headers, timeout)`` is
    injectable for testing: ``body`` is the request's JSON bytes, and it
    returns ``(status, text, location)``, where ``location`` is a 3xx reply's
    ``Location`` or None; a ``BackendError`` it raises is raised as it is,
    and any other exception becomes a retryable one. The default keeps its
    connections alive until ``close()``.
    """

    def __init__(self, config: EndpointConfig, post: Optional[Callable] = None):
        self.config = config
        self._connections = _Connections()
        self._post = post or self._connections.post

    def close(self) -> None:
        """Close the idle connections; a later call opens a new one."""
        self._connections.close()

    def generate(self, prompt: str) -> list[str]:
        if not prompt:
            raise BackendError("prompt must be nonempty")
        api_key = os.environ.get(API_KEY_ENV)
        if not api_key:
            raise BackendError(f"missing credential: set the {API_KEY_ENV} environment variable")
        if _UNSENDABLE_VALUE.search(api_key):  # never echoed: the error names the variable only
            raise BackendError(f"unusable credential: the {API_KEY_ENV} environment variable "
                               "holds a CR, LF, NUL or non-Latin-1 character")
        url = self.config.resolve_base() + "/chat/completions"
        try:
            _endpoint(url)
        except ValueError as exc:  # a configuration error: never retried
            raise BackendError(f"bad endpoint: {exc}") from exc
        body = json.dumps({
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "max_tokens": DEFAULT_MAX_TOKENS,
            "temperature": DEFAULT_TEMPERATURE,
            "n": 1,
        }, allow_nan=False).encode("utf-8")
        try:
            status, text, location = self._post(url, body, {"Authorization": f"Bearer {api_key}"},
                                                self.config.timeout)
        except BackendError:  # an unusable proxy variable: a configuration error, never retried
            raise
        except Exception as exc:  # transport failure: retryable, never cached
            raise BackendError(f"transport error calling {url}: {exc}", retryable=True) from exc
        if status == 401:
            raise BackendError(
                f"credential rejected (401); check the {API_KEY_ENV} environment variable: {text}"
            )
        if not 200 <= status < 300:
            # rate limits and server errors may pass; other client errors will not
            where = f" (Location: {location})" if location else ""
            raise BackendError(f"endpoint returned {status}{where}: {text}",
                               retryable=status == 429 or status >= 500)
        try:
            completions = _choice_texts(json.loads(text))
        except ValueError as exc:
            raise BackendError(f"malformed response from {url} (status {status}): {exc}") from exc
        if len(completions) != 1:
            raise BackendError(f"endpoint returned {len(completions)} choices, expected 1")
        return completions


class _Flight:
    """An inner call that other callers of its prompt wait on; ``completions``
    stays None if the call failed. The first caller that has to wait makes
    ``done``, under the cache's lock, so an uncontended call makes none."""

    def __init__(self) -> None:
        self.done: Optional[threading.Event] = None
        self.completions: Optional[list[str]] = None


class CachingBackend:
    """Response cache in front of one backend. Errors are never cached.

    A call is its prompt, so the cache keys on the prompt text alone. The key
    names no backend: a cache serves the one it wraps.

    Single-flight: while one call for a prompt is in flight, other calls with
    the same prompt wait for it instead of calling the inner backend again. If
    that call fails, each waiting call makes its own.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self._cache: dict[str, list[str]] = {}
        self._in_flight: dict[str, _Flight] = {}
        self._lock = threading.Lock()

    @property
    def call_log(self) -> CallLog:
        return self.inner.call_log

    def close(self) -> None:
        """Close the inner backend, if it has anything to close."""
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()

    def generate(self, prompt: str) -> list[str]:
        with self._lock:
            cached = self._cache.get(prompt)
            if cached is not None:
                return list(cached)
            flight = self._in_flight.get(prompt)
            leads = flight is None
            if leads:
                flight = self._in_flight[prompt] = _Flight()
            elif flight.done is None:
                flight.done = threading.Event()
        if not leads:
            flight.done.wait()
            if flight.completions is not None:
                return list(flight.completions)
            return self._fill(prompt)  # the leader's error is not shared
        try:
            flight.completions = self._fill(prompt)
            return list(flight.completions)
        finally:
            with self._lock:
                del self._in_flight[prompt]
                done = flight.done  # no caller can find the flight to make one now
            if done is not None:
                done.set()

    def _fill(self, prompt: str) -> list[str]:
        completions = self.inner.generate(prompt)
        with self._lock:
            self._cache.setdefault(prompt, list(completions))
        return list(completions)
