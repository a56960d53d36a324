"""Unit tests for the serve wire protocol helpers."""

from __future__ import annotations

import json

import pytest

from repro.core.framework import ProtectionError
from repro.frontend.sema import SemaError
from repro.hardware.errors import ReproError, SecurityTrap
from repro.ir.verifier import VerificationError
from repro.serve.protocol import (
    CODE_BAD_REQUEST,
    CODE_FRONTEND,
    CODE_INTERNAL,
    CODE_VERIFY,
    OPS,
    classify_exception,
    decode_line,
    encode,
    error_response,
    ok_response,
    request_key,
    shard_digest,
    validate_request,
    with_id,
)


def test_encode_decode_roundtrip():
    message = {"id": 7, "op": "run", "source": "int main() {}", "inputs": ["a"]}
    line = encode(message)
    assert line.endswith(b"\n")
    assert b"\n" not in line[:-1]
    assert decode_line(line) == message


def test_decode_rejects_non_objects():
    with pytest.raises(ValueError):
        decode_line(b"[1, 2, 3]\n")
    with pytest.raises(ValueError):
        decode_line(b"{truncated\n")


def test_validate_request_taxonomy():
    assert validate_request({"op": "ping"}) is None
    assert validate_request({"op": "run", "source": "x"}) is None
    assert "string 'op'" in validate_request({"id": 1})
    assert "unknown op" in validate_request({"op": "explode"})
    assert "requires" in validate_request({"op": "run"})
    assert "requires" in validate_request({"op": "attack"})
    assert "list of strings" in validate_request(
        {"op": "run", "source": "x", "inputs": [1]}
    )
    assert "unknown scheme" in validate_request(
        {"op": "run", "source": "x", "scheme": "sgx"}
    )
    assert validate_request({"op": "run", "source": "x", "scheme": "dfi"}) is None
    for op in OPS:
        # every op has a validation rule registered
        assert validate_request({"op": op}) is None or "requires" in validate_request(
            {"op": op}
        )


def test_response_envelopes():
    ok = ok_response(3, {"pong": True})
    assert ok == {"id": 3, "status": "ok", "result": {"pong": True}}
    err = error_response(4, CODE_BAD_REQUEST, "BadRequest", "nope")
    assert err["status"] == "error"
    assert err["code"] == CODE_BAD_REQUEST
    assert err["error"] == {"type": "BadRequest", "message": "nope"}


def test_with_id_readdresses_a_copy():
    original = ok_response(1, {"value": 42})
    follower = with_id(original, 2)
    assert follower["id"] == 2
    assert follower["result"] is original["result"]
    assert original["id"] == 1  # leader envelope untouched
    assert with_id(original, 1) is original


def test_request_key_ignores_id_only():
    left = {"id": 1, "op": "compile", "source": "x", "scheme": "dfi"}
    right = {"id": "c9-44", "op": "compile", "source": "x", "scheme": "dfi"}
    assert request_key(left) == request_key(right)
    other = dict(left, scheme="pythia")
    assert request_key(left) != request_key(other)
    # stable under field reordering
    assert request_key(dict(reversed(list(left.items())))) == request_key(left)
    assert json.loads(request_key(left)).get("id") is None


def test_shard_digest_routes_by_content():
    run = {"op": "run", "source": "int main() {}", "scheme": "pythia"}
    compile_ = {"op": "compile", "source": "int main() {}", "scheme": "dfi"}
    # same source -> same shard regardless of op and scheme
    assert shard_digest(run) == shard_digest(compile_)
    assert shard_digest(dict(run, source="other")) != shard_digest(run)
    attack = {"op": "attack", "scenario": "heap_overflow"}
    assert shard_digest(attack) == shard_digest(dict(attack, scheme="dfi"))
    assert shard_digest(attack) != shard_digest(
        {"op": "attack", "scenario": "pac_reuse"}
    )


def test_classify_exception_layers():
    assert classify_exception(SemaError("undeclared variable")) == (
        CODE_FRONTEND,
        "SemaError",
    )
    assert classify_exception(VerificationError("dominance")) == (
        CODE_VERIFY,
        "VerificationError",
    )
    assert classify_exception(ProtectionError("no pass")) == (
        CODE_VERIFY,
        "ProtectionError",
    )
    code, name = classify_exception(SecurityTrap("pac auth failed"))
    assert name == "SecurityTrap"
    assert code == SecurityTrap.exit_code
    assert classify_exception(KeyError("scenario")) == (
        CODE_BAD_REQUEST,
        "KeyError",
    )
    assert classify_exception(ValueError("bad scheme")) == (
        CODE_BAD_REQUEST,
        "ValueError",
    )
    assert classify_exception(RuntimeError("boom")) == (
        CODE_INTERNAL,
        "RuntimeError",
    )


def test_repro_error_carries_its_own_exit_code():
    class CustomError(ReproError):
        exit_code = 2

    assert classify_exception(CustomError("contract")) == (2, "CustomError")
