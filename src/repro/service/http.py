"""Minimal HTTP/1.1 over asyncio streams — just enough for the service.

Scope is deliberate: ``Connection: close`` on every response (no
keep-alive, no chunked encoding — streams are delimited by EOF, which is
exactly what the SSE-style progress endpoint needs), JSON bodies sized by
``Content-Length``, no multipart.  The point of the hand-rolled layer is
staying inside the stdlib; it is not a general web server.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro.service.errors import ApiError

__all__ = ["Request", "read_request", "write_response", "start_stream", "REASONS"]

#: Upper bound on header block and body sizes — the service takes inline
#: dataset uploads, so bodies are generous but still bounded.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 64 * 1024 * 1024

REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}


@dataclass
class Request:
    """A parsed request: method, split path, query and decoded JSON body."""

    method: str
    path: str
    parts: Tuple[str, ...]
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes = b""
    _json: Any = field(default=None, repr=False)

    def json(self) -> Dict[str, Any]:
        """The body decoded as a JSON object (``{}`` for an empty body)."""
        if self._json is None:
            if not self.body:
                self._json = {}
            else:
                try:
                    body = json.loads(self.body)
                except json.JSONDecodeError as exc:
                    raise ApiError(400, f"request body is not valid JSON: {exc}")
                if not isinstance(body, dict):
                    raise ApiError(
                        400,
                        f"request body must be a JSON object, got {type(body).__name__}",
                        "InvalidBody",
                    )
                self._json = body
        return self._json


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request from *reader*; ``None`` on a closed connection."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ApiError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise ApiError(400, "request head too large")
    if len(head) > MAX_HEADER_BYTES:
        raise ApiError(400, "request head too large")

    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError:
        raise ApiError(400, f"malformed request line: {lines[0]!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()

    split = urlsplit(target)
    path = unquote(split.path)
    parts = tuple(part for part in path.split("/") if part)
    query = {
        key: values[-1] for key, values in parse_qs(split.query).items()
    }

    body = b""
    length = int(headers.get("content-length", 0) or 0)
    if length < 0 or length > MAX_BODY_BYTES:
        raise ApiError(400, f"unacceptable content-length {length}")
    if length:
        body = await reader.readexactly(length)
    return Request(method.upper(), path, parts, query, headers, body)


def _head(status: int, content_type: str, length: Optional[int]) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        "Connection: close",
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Any = None,
    content_type: str = "application/json",
) -> None:
    """Write a complete response. *payload* is JSON-encoded unless already
    ``bytes`` (then *content_type* should say what it is)."""
    if payload is None:
        body = b""
    elif isinstance(payload, bytes):
        body = payload
    else:
        body = (json.dumps(payload) + "\n").encode("utf-8")
    writer.write(_head(status, content_type, len(body)) + body)
    await writer.drain()


async def start_stream(writer: asyncio.StreamWriter) -> None:
    """Begin an SSE-style response; the body is delimited by EOF."""
    writer.write(_head(200, "text/event-stream", None))
    await writer.drain()


async def write_stream_event(writer: asyncio.StreamWriter, payload: Any) -> None:
    """Write one ``data:`` line of an event stream."""
    writer.write(f"data: {json.dumps(payload)}\n\n".encode("utf-8"))
    await writer.drain()
