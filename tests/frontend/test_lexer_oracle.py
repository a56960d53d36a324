"""The master-regex lexer against the original scanner it replaced.

``tests/lexer_oracle.py`` keeps the character-at-a-time scanner.  Both
must yield the same tokens, lines and columns, and the same ``LexError``
message and position, on every generated program and every error case.
The one intended difference: a source ending in ``'`` or ``'\\`` crashes
the oracle with ``IndexError`` but is an unterminated char literal here.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.lexer import LexError, tokenize
from repro.workloads import ALL_PROFILES, generate_program
from tests.lexer_oracle import tokenize as oracle_tokenize

#: The profile's own seed, then two reseeded variants of it.
SEEDS = (None, 1, 2)

#: Every error case of ``test_lexer.py``, then edge cases of each token
#: class: escapes, literals and comments spanning lines, ``\r``,
#: maximal munch, and non-ASCII letters and digits.
CASES = (
    "a /* never closed",
    "ok\n  $",
    "a $ b",
    '"never',
    "'ab",
    '"a\\',
    '"a\\"',
    "'\\'",
    "'''",
    "'\\''",
    "'\n' x",
    "'\\\n' y",
    '"a\nb" c',
    '"\\q\\n\\\\n"',
    "/* a\n b */ c\n d",
    "/*/ */x",
    "a//c\nb",
    "a\r\nb\t\tc",
    "p->x-=-1>>=2",
    "1.5 .. 0X 0xg 0x1F",
    "_a_1 NULL sizeof integer",
    "\u00e91 = \u00bd",
    "1\u00b23 + x\u00b2",
    "0x1\u00b2 0\u00b2",
    "\u0661\u0662 x\u0663",
    "#",
    "@\n",
    "",
    "\n\n  ",
)


def lexed(tokenize_fn, source):
    try:
        return [(t.kind, t.text, t.line, t.column) for t in tokenize_fn(source)]
    except LexError as exc:
        return ("LexError", str(exc), exc.line, exc.column)


def assert_matches_oracle(source):
    try:
        expected = lexed(oracle_tokenize, source)
    except IndexError:
        # The oracle's known crash: the source ends inside a char literal.
        with pytest.raises(LexError, match="unterminated char literal"):
            tokenize(source)
        return
    assert lexed(tokenize, source) == expected


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
def test_generated_programs_lex_like_the_oracle(name):
    for seed in SEEDS:
        profile = ALL_PROFILES[name]
        if seed is not None:
            profile = dataclasses.replace(profile, seed=profile.seed * 1_000 + seed)
        assert_matches_oracle(generate_program(profile).source)


@pytest.mark.parametrize("source", CASES)
def test_edge_cases_lex_like_the_oracle(source):
    assert_matches_oracle(source)


@pytest.mark.parametrize(
    ("source", "column"), [("'", 1), ("'\\", 1), ("int main() { char c = '", 23)]
)
def test_source_ending_in_a_char_literal_is_unterminated(source, column):
    with pytest.raises(IndexError):
        oracle_tokenize(source)
    with pytest.raises(LexError) as err:
        tokenize(source)
    assert str(err.value) == f"unterminated char literal at 1:{column}"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab_x0179 \t\r\n/*\"'\\-<>=!&|.;()\u00e9\u00b2\u00bd$", max_size=40))
def test_random_text_lexes_like_the_oracle(source):
    assert_matches_oracle(source)
