"""The original character-at-a-time MiniC scanner, as a test oracle.

:func:`repro.frontend.lexer.tokenize` lexes with one compiled master
regex.  This is the scanner it replaced, kept only so the differential
tests in ``tests/frontend/test_lexer_oracle.py`` can hold the two to
identical tokens, positions and errors.
"""

from __future__ import annotations

from typing import List

from repro.frontend.lexer import _ESCAPES, KEYWORDS, OPERATORS, LexError, Token


def tokenize(source: str) -> List[Token]:
    """Turn MiniC source text into a token list ending with EOF.

    Known defect, kept so the oracle stays the original scanner: a
    source ending in ``'`` or ``'\\`` raises ``IndexError`` here, where
    :func:`repro.frontend.lexer.tokenize` raises "unterminated char
    literal".
    """
    tokens: List[Token] = []
    line = 1
    column = 1
    i = 0
    n = len(source)

    def advance(count: int) -> None:
        nonlocal i, line, column
        for _ in range(count):
            if i < n and source[i] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            i += 1

    while i < n:
        ch = source[i]
        # whitespace
        if ch in " \t\r\n":
            advance(1)
            continue
        # comments
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
            continue
        if source.startswith("/*", i):
            start_line, start_col = line, column
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance(1)
            if i >= n:
                raise LexError("unterminated block comment", start_line, start_col)
            advance(2)
            continue
        # identifiers / keywords
        if ch.isalpha() or ch == "_":
            start = i
            start_line, start_col = line, column
            while i < n and (source[i].isalnum() or source[i] == "_"):
                advance(1)
            text = source[start:i]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, start_line, start_col))
            continue
        # numbers (decimal and hex)
        if ch.isdigit():
            start = i
            start_line, start_col = line, column
            if source.startswith("0x", i) or source.startswith("0X", i):
                advance(2)
                while i < n and source[i] in "0123456789abcdefABCDEF":
                    advance(1)
            else:
                while i < n and source[i].isdigit():
                    advance(1)
            tokens.append(Token("number", source[start:i], start_line, start_col))
            continue
        # string literals
        if ch == '"':
            start_line, start_col = line, column
            advance(1)
            out: List[str] = []
            while i < n and source[i] != '"':
                if source[i] == "\\":
                    advance(1)
                    if i >= n:
                        break
                    out.append(_ESCAPES.get(source[i], source[i]))
                    advance(1)
                else:
                    out.append(source[i])
                    advance(1)
            if i >= n:
                raise LexError("unterminated string literal", start_line, start_col)
            advance(1)
            tokens.append(Token("string", "".join(out), start_line, start_col))
            continue
        # char literals
        if ch == "'":
            start_line, start_col = line, column
            advance(1)
            if i < n and source[i] == "\\":
                advance(1)
                value = _ESCAPES.get(source[i], source[i])
                advance(1)
            else:
                value = source[i]
                advance(1)
            if i >= n or source[i] != "'":
                raise LexError("unterminated char literal", start_line, start_col)
            advance(1)
            tokens.append(Token("char", value, start_line, start_col))
            continue
        # operators / punctuation
        for op in OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, line, column))
                advance(len(op))
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line, column)

    tokens.append(Token("eof", "", line, column))
    return tokens
