"""Front-end driver: MiniC source text to a verified IR module."""

from __future__ import annotations

from ..ir.module import Module
from ..ir.verifier import verify_module
from .codegen import generate_module
from .parser import parse_source
from .sema import Sema


def compile_source(source: str, name: str = "minic") -> Module:
    """Compile MiniC source into a verified IR module.

    Raises :class:`~repro.frontend.lexer.LexError`,
    :class:`~repro.frontend.parser.ParseError`, or
    :class:`~repro.frontend.sema.SemaError` on invalid input.
    """
    program = parse_source(source)
    info = Sema(program).analyze()
    module = generate_module(program, info, name)
    verify_module(module)
    return module


def source_digest(source: str) -> str:
    """Content address of one source text (hex SHA-256)."""
    # Imported here: a run hashes its source only to report a trap.
    import hashlib

    return hashlib.sha256(source.encode("utf-8")).hexdigest()
