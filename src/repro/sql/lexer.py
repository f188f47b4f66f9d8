"""The lexer for the SQL subset used by the paper: one compiled pattern.

Produces a flat list of :class:`Token`.  Keywords are case-insensitive
and normalized to upper case; identifiers are folded to lower case
(PostgreSQL behaviour).  Double-quoted identifiers preserve case.
"""

from __future__ import annotations

import enum
import re
from typing import List, NamedTuple

from repro.errors import LexerError

KEYWORDS = frozenset(
    """
    SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT OFFSET AS AND OR NOT
    IN BETWEEN LIKE IS NULL TRUE FALSE DISTINCT ALL JOIN INNER LEFT
    RIGHT FULL OUTER CROSS NATURAL ON USING WITH UNION EXCEPT INTERSECT
    CASE WHEN THEN ELSE END ASC DESC EXISTS CAST COUNT SUM AVG MIN MAX
    """.split()
)


class TokenType(enum.Enum):
    KEYWORD = "KEYWORD"
    IDENTIFIER = "IDENTIFIER"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    PUNCTUATION = "PUNCTUATION"
    PARAMETER = "PARAMETER"
    EOF = "EOF"


class Token(NamedTuple):
    type: TokenType
    value: str
    position: int

    def matches(self, token_type: TokenType, value: str | None = None) -> bool:
        return self.type is token_type and (value is None or self.value == value)

    def __repr__(self) -> str:
        return f"Token({self.type.name}, {self.value!r})"


#: One alternative per token kind, each followed by the whitespace
#: after it.  At each position the first alternative that matches wins;
#: the order keeps every choice the kinds overlap on (``--`` and ``/*``
#: before the operators, a number before ``.``).  A string ends at a
#: quote no quote follows (``''`` is an escaped quote), so ``'ab''`` is
#: unterminated from its first quote on.  ``error`` is the start of a
#: token that never ends, ``bad`` any other character.
_MASTER = re.compile(
    r"""
    (?: (?P<word>[^\W\d]\w*)
      | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE](?:[+-]\d*|\d+))?)
      | (?P<punctuation>[(),.;])
      | (?P<skip>\s+|--[^\n]*\n?|/\*.*?\*/)
      | (?P<string>'[^']*(?:''[^']*)*'(?!'))
      | (?P<quoted>"[^"]*")
      | (?P<error>/\*|'|")
      | (?P<operator><=|>=|<>|!=|\|\||[=<>+\-*/%])
      | (?P<parameter>:[^\W\d]\w*)
      | (?P<bad>.)
    )\s*
    """,
    re.VERBOSE | re.DOTALL,
)
_WORD, _NUMBER, _PUNCTUATION, _SKIP, _STRING, _QUOTED, _ERROR, _OPERATOR, _PARAMETER = range(1, 10)
_SIMPLE = {
    _NUMBER: TokenType.NUMBER,
    _PUNCTUATION: TokenType.PUNCTUATION,
    _OPERATOR: TokenType.OPERATOR,
}
_UNTERMINATED = {
    "/": "unterminated block comment",
    "'": "unterminated string literal",
    '"': "unterminated quoted identifier",
}


def tokenize(text: str) -> List[Token]:
    """Tokenize SQL ``text``; raises :class:`LexerError` on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without the keyword-argument layer
    keyword, identifier = TokenType.KEYWORD, TokenType.IDENTIFIER
    for match in _MASTER.finditer(text):
        kind = match.lastindex
        if kind == _WORD:
            value = match[_WORD]
            upper = value.upper()
            if upper in KEYWORDS:
                append(new(Token, (keyword, upper, match.start())))
            else:
                append(new(Token, (identifier, value.lower(), match.start())))
        elif kind in _SIMPLE:
            append(new(Token, (_SIMPLE[kind], match[kind], match.start())))
        elif kind == _SKIP:
            continue
        elif kind == _PARAMETER:
            name = match[kind][1:].lower()
            append(new(Token, (TokenType.PARAMETER, name, match.start())))
        elif kind == _STRING:
            value = match[kind][1:-1].replace("''", "'")
            append(new(Token, (TokenType.STRING, value, match.start())))
        elif kind == _QUOTED:
            append(new(Token, (identifier, match[kind][1:-1], match.start())))
        elif kind == _ERROR:
            raise LexerError(_UNTERMINATED[match[kind][0]], match.start())
        else:
            raise LexerError(f"unexpected character {match[kind]!r}", match.start())
    append(Token(TokenType.EOF, "", len(text)))
    return tokens
