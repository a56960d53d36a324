"""JSON-lines request/response protocol for ``python -m repro serve``.

One request per line, one response per line, UTF-8 JSON objects over a
local stream socket (Unix-domain by default, loopback TCP with
``--port``).  Requests carry an ``id`` the caller chooses plus an
``op``; responses echo the ``id`` so clients may pipeline::

    -> {"id": 1, "op": "run", "source": "int main(){...}", "scheme": "pythia"}
    <- {"id": 1, "status": "ok", "result": {"status": "exited", ...}}

Every response is either ``{"id", "status": "ok", "result": {...}}``
or ``{"id", "status": "error", "code": <int>, "error": {"type",
"message"}}``.  Error ``code`` reuses the CLI's layered exit-code
taxonomy (:data:`repro.cli.EXIT_CODES`) as per-request status codes, so
a client can triage a failure without parsing the message:

====  ==========================================================
code  meaning
====  ==========================================================
1     internal failure (worker crash, per-request timeout)
2     security/contract layer (e.g. unknown interpreter)
3     bad request / I/O (malformed JSON, unknown op, missing field)
4     MiniC front-end rejected the source
5     IR verification / protection-pipeline failure
====  ==========================================================

A *trapped* execution is not an error: ``run`` responses report the
trap through ``result.status``/``result.ok`` exactly like the CLI's
``run`` prints it, because a defense doing its job is a valid outcome.

**Correlation.**  Besides the caller-chosen ``id``, the front-end
stamps a daemon-assigned correlation id (``rid``, unique per received
request) into every request before dispatch.  The ``rid`` names the
request in worker spans, security events, and the Chrome-trace flow
arrows, so one id follows a request across the process boundary; it is
excluded from the single-flight identity (:func:`request_key`) exactly
like ``id``.

The module is import-light on purpose (stdlib plus the stdlib-only
:mod:`repro.core.config`): the client, the load generator, and the
server all share these helpers.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Tuple

from ..core.config import SCHEMES

#: Protocol identifier, echoed by ``ping`` and carried in ``stats``.
PROTOCOL = "repro-serve-v1"

#: Ops dispatched to the worker pool (deterministic, dedupable).
WORKER_OPS = ("compile", "run", "attack", "profile")
#: Ops answered by the front-end itself.
FRONTEND_OPS = ("ping", "stats", "events", "shutdown")
OPS = WORKER_OPS + FRONTEND_OPS

#: Required request fields beyond ``id``/``op``, per op.
_REQUIRED: Dict[str, Tuple[str, ...]] = {
    "compile": ("source",),
    "run": ("source",),
    "profile": ("source",),
    "attack": ("scenario",),
    "ping": (),
    "stats": (),
    "events": (),
    "shutdown": (),
}

#: Error codes, mirroring the CLI exit-code taxonomy.
CODE_INTERNAL = 1
CODE_SECURITY = 2
CODE_BAD_REQUEST = 3
CODE_FRONTEND = 4
CODE_VERIFY = 5


def encode(message: Dict[str, Any]) -> bytes:
    """One protocol line: compact JSON plus the newline terminator."""
    return json.dumps(message, sort_keys=True).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one request line; raises ``ValueError`` on malformed input."""
    message = json.loads(line.decode("utf-8"))
    if not isinstance(message, dict):
        raise ValueError("request is not a JSON object")
    return message


def validate_request(request: Dict[str, Any]) -> Optional[str]:
    """One-line problem description, or ``None`` for a valid request."""
    op = request.get("op")
    if not isinstance(op, str):
        return "request lacks a string 'op'"
    if op not in OPS:
        return f"unknown op {op!r}; try: {', '.join(OPS)}"
    for field in _REQUIRED[op]:
        if not isinstance(request.get(field), str):
            return f"op {op!r} requires a string {field!r} field"
    scheme = request.get("scheme")
    if scheme is not None and scheme not in SCHEMES:
        return f"unknown scheme {scheme!r}; expected one of {SCHEMES}"
    inputs = request.get("inputs")
    if inputs is not None and (
        not isinstance(inputs, list)
        or any(not isinstance(item, str) for item in inputs)
    ):
        return "'inputs' must be a list of strings"
    limit = request.get("limit")
    if limit is not None and (not isinstance(limit, int) or isinstance(limit, bool)):
        return "'limit' must be an integer"
    return None


def ok_response(request_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    return {"id": request_id, "status": "ok", "result": result}


def error_response(
    request_id: Any, code: int, error_type: str, message: str
) -> Dict[str, Any]:
    return {
        "id": request_id,
        "status": "error",
        "code": code,
        "error": {"type": error_type, "message": message},
    }


def with_id(response: Dict[str, Any], request_id: Any) -> Dict[str, Any]:
    """A shallow copy of ``response`` re-addressed to ``request_id``.

    Single-flight followers share the leader's computed response; only
    the envelope ``id`` differs per caller.
    """
    if response.get("id") == request_id:
        return response
    readdressed = dict(response)
    readdressed["id"] = request_id
    return readdressed


def shard_digest(request: Dict[str, Any]) -> str:
    """Content digest that routes a request to its warm shard.

    Requests about the same program (or the same attack scenario)
    always land on the same worker, so its warm registry -- parsed IR,
    analysis results, block/trace code objects -- is reused instead of
    being rebuilt N times across the pool.
    """
    op = request.get("op", "")
    if op == "attack":
        basis = "scenario:" + str(request.get("scenario", ""))
    else:
        basis = "source:" + str(request.get("source", ""))
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()


def request_key(request: Dict[str, Any]) -> str:
    """Single-flight identity of a request: everything but the caller's
    ``id`` and the daemon-assigned correlation ``rid``.

    Two requests with the same key are guaranteed the same response
    body (every worker op is deterministic given its fields -- seeds are
    explicit), so in-flight duplicates can share one computation.  Both
    per-caller fields must be excluded or no two requests would ever
    coalesce: the front-end stamps a unique ``rid`` into every request
    before dispatch (see ``server.py``).
    """
    identity = {k: v for k, v in request.items() if k not in ("id", "rid")}
    return json.dumps(identity, sort_keys=True)


def classify_exception(exc: BaseException) -> Tuple[int, str]:
    """Map a worker-side exception to ``(code, type name)``.

    Import-free taxonomy walk over the exception's MRO so this module
    stays stdlib-only: the CLI maps the same families to process exit
    codes (front-end 4, verification 5, ReproError's own code, I/O 3).
    """
    names = {cls.__name__ for cls in type(exc).__mro__}
    if names & {"LexError", "ParseError", "SemaError", "CodegenError"}:
        return CODE_FRONTEND, type(exc).__name__
    if "VerificationError" in names or "ProtectionError" in names:
        return CODE_VERIFY, type(exc).__name__
    if "ReproError" in names:
        return int(getattr(exc, "exit_code", CODE_INTERNAL)), type(exc).__name__
    if isinstance(exc, (KeyError, ValueError)):
        return CODE_BAD_REQUEST, type(exc).__name__
    if isinstance(exc, OSError):
        return CODE_BAD_REQUEST, type(exc).__name__
    return CODE_INTERNAL, type(exc).__name__
