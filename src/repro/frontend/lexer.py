"""Lexer for MiniC, the C subset the reproduction compiles.

MiniC covers what the paper's attack listings and workloads need:
``int``/``char`` scalars, pointers, fixed arrays, structs, the usual
expression operators, control flow, string/char literals, and calls
into the modelled C library.
"""

from __future__ import annotations

import re
from typing import List

KEYWORDS = {
    "int",
    "char",
    "void",
    "struct",
    "if",
    "else",
    "while",
    "do",
    "for",
    "return",
    "break",
    "continue",
    "sizeof",
    "NULL",
}

#: Multi-character operators, longest first so maximal munch works.
OPERATORS = [
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "->",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
    "&",
    "|",
    "^",
    "~",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
    ".",
    "?",
    ":",
]


class Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        #: "ident" | "keyword" | "number" | "string" | "char" | "op" | "eof"
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


class LexError(Exception):
    """Raised on malformed source text."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at {line}:{column}")
        self.line = line
        self.column = column


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", '"': '"', "'": "'"}


#: One alternative per token class, tried in order at each offset, so
#: comments win over ``/`` and each operator over its prefixes (maximal
#: munch).  ``skip`` is blanks and line comments.  An ``open_*`` alternative matches only where the full
#: comment or literal before it cannot: the source ends inside it.
#: ``number`` declines a digit run that a non-ASCII character follows,
#: because MiniC digits are ``str.isdigit``, which accepts more than
#: 0-9; such runs, and identifiers that start with a non-ASCII letter,
#: take ``other``.
_TOKEN = re.compile(
    "|".join(
        (
            r"(?P<skip>[ \t\r]+|//[^\n]*)",
            r"(?P<newline>\n)",
            r"(?P<ident>[A-Za-z_]\w*)",
            r"(?P<block>/\*.*?\*/)",
            r"(?P<open_block>/\*)",
            "(?P<op>" + "|".join(map(re.escape, OPERATORS)) + ")",
            r"(?P<number>0[xX][0-9a-fA-F]*|[0-9]+(?![0-9]|[^\x00-\x7f]))",
            r'(?P<string>"[^"\\]*(?:\\.[^"\\]*)*")',
            r'(?P<open_string>")',
            r"(?P<char>'(?:\\.|[^\\])')",
            r"(?P<open_char>')",
            r"(?P<other>.)",
        )
    ),
    re.DOTALL,
)

_WORD = re.compile(r"\w*")
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)

_UNTERMINATED = {
    "open_block": "unterminated block comment",
    "open_string": "unterminated string literal",
    "open_char": "unterminated char literal",
}


def _unescape(match: "re.Match[str]") -> str:
    return _ESCAPES.get(match[1], match[1])


def tokenize(source: str) -> List[Token]:
    """Turn MiniC source text into a token list ending with EOF."""
    tokens: List[Token] = []
    append = tokens.append
    scan = _TOKEN.match
    line = 1
    line_start = 0  # offset of the current line's first character
    pos = 0
    n = len(source)
    while pos < n:
        match = scan(source, pos)
        kind = match.lastgroup
        end = match.end()
        if kind == "skip":
            pass
        elif kind == "newline":
            line += 1
            line_start = end
        elif kind == "ident":
            text = match.group()
            kind = "keyword" if text in KEYWORDS else "ident"
            append(Token(kind, text, line, pos - line_start + 1))
        elif kind == "op" or kind == "number":
            append(Token(kind, match.group(), line, pos - line_start + 1))
        elif kind in ("string", "char", "block"):
            text = match.group()
            if kind == "string":
                body = text[1:-1]
                if "\\" in body:
                    body = _ESCAPE.sub(_unescape, body)
                append(Token(kind, body, line, pos - line_start + 1))
            elif kind == "char":
                value = _ESCAPES.get(text[2], text[2]) if text[1] == "\\" else text[1]
                append(Token(kind, value, line, pos - line_start + 1))
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = source.rfind("\n", pos, end) + 1
        elif kind in _UNTERMINATED:
            raise LexError(_UNTERMINATED[kind], line, pos - line_start + 1)
        else:
            ch = match.group()
            if ch.isalpha():
                end = _WORD.match(source, end).end()
                append(Token("ident", source[pos:end], line, pos - line_start + 1))
            elif ch.isdigit():
                while end < n and source[end].isdigit():
                    end += 1
                append(Token("number", source[pos:end], line, pos - line_start + 1))
            else:
                raise LexError(
                    f"unexpected character {ch!r}", line, pos - line_start + 1
                )
        pos = end

    append(Token("eof", "", line, n - line_start + 1))
    return tokens
