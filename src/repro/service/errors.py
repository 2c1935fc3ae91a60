"""Structured error payloads: library exceptions → HTTP status codes.

The mapping is deliberately coarse — the service's contract is the
*payload shape* (``{"error": {"type": ..., "message": ...}}``), with the
status code as a routing hint:

* unknown tenant / source / session → 404
* malformed requests and invalid configuration → 400
* registering over an existing alias without ``replace`` → 409
* a pipeline step that failed on valid-looking input → 422
* a step that exceeded the per-request timeout → 504
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict

from repro.exceptions import (
    CatalogError,
    ConfigError,
    HummerError,
    QueryError,
    SchemaError,
    SourceError,
    SourceExistsError,
)

__all__ = ["ApiError", "error_payload", "status_for_exception"]


class ApiError(Exception):
    """An error raised by a handler with an explicit HTTP status.

    Handlers raise this directly for protocol-level problems (unknown
    route, malformed JSON, missing fields); library exceptions are mapped
    via :func:`status_for_exception` instead.
    """

    def __init__(self, status: int, message: str, error_type: str = "ApiError"):
        super().__init__(message)
        self.status = status
        self.error_type = error_type


def status_for_exception(exc: BaseException) -> int:
    """HTTP status for a library exception escaping a handler."""
    if isinstance(exc, ApiError):
        return exc.status
    # asyncio.TimeoutError is only an alias of TimeoutError from 3.11 on
    if isinstance(exc, (TimeoutError, asyncio.TimeoutError)):
        return 504
    if isinstance(exc, CatalogError):
        return 409 if isinstance(exc, SourceExistsError) else 404
    if isinstance(exc, (ConfigError, QueryError, SourceError, SchemaError)):
        return 400
    if isinstance(exc, (KeyError, ValueError, TypeError)):
        return 400
    if isinstance(exc, HummerError):
        return 422
    return 500


def error_payload(exc: BaseException) -> Dict[str, Any]:
    """The service's uniform error body."""
    if isinstance(exc, ApiError):
        error_type = exc.error_type
    elif isinstance(exc, (TimeoutError, asyncio.TimeoutError)):
        error_type = "Timeout"
    else:
        error_type = type(exc).__name__
    return {"error": {"type": error_type, "message": str(exc) or error_type}}
