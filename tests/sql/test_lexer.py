"""Tests for the SQL lexer."""

import pytest

from repro.errors import LexerError
from repro.sql.lexer import Token, TokenType, tokenize


def kinds(sql: str):
    return [(t.type, t.value) for t in tokenize(sql)[:-1]]  # drop EOF


class TestBasics:
    def test_keywords_uppercased(self):
        assert kinds("select from") == [
            (TokenType.KEYWORD, "SELECT"),
            (TokenType.KEYWORD, "FROM"),
        ]

    def test_identifiers_lowercased(self):
        assert kinds("MyTable") == [(TokenType.IDENTIFIER, "mytable")]

    def test_quoted_identifier_preserves_case(self):
        assert kinds('"MyCol"') == [(TokenType.IDENTIFIER, "MyCol")]

    def test_eof_token(self):
        tokens = tokenize("x")
        assert tokens[-1].type is TokenType.EOF

    def test_empty_input(self):
        assert tokenize("") == [Token(TokenType.EOF, "", 0)]


class TestNumbers:
    def test_integer(self):
        assert kinds("42") == [(TokenType.NUMBER, "42")]

    def test_float(self):
        assert kinds("3.25") == [(TokenType.NUMBER, "3.25")]

    def test_leading_dot(self):
        assert kinds(".5") == [(TokenType.NUMBER, ".5")]

    def test_scientific(self):
        assert kinds("1e6 2.5E-3") == [
            (TokenType.NUMBER, "1e6"),
            (TokenType.NUMBER, "2.5E-3"),
        ]

    def test_number_then_dot_member(self):
        # "1.2.3" lexes as number then punctuation then number.
        tokens = kinds("1.2.3")
        assert tokens[0] == (TokenType.NUMBER, "1.2")


class TestStrings:
    def test_simple_string(self):
        assert kinds("'hello'") == [(TokenType.STRING, "hello")]

    def test_escaped_quote(self):
        assert kinds("'it''s'") == [(TokenType.STRING, "it's")]

    def test_unterminated_string(self):
        with pytest.raises(LexerError):
            tokenize("'oops")

    def test_unterminated_quoted_identifier(self):
        with pytest.raises(LexerError):
            tokenize('"oops')


class TestOperators:
    @pytest.mark.parametrize("op", ["<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "*", "/", "%", "||"])
    def test_each_operator(self, op):
        assert kinds(f"a {op} b")[1] == (TokenType.OPERATOR, op)

    def test_two_char_not_split(self):
        assert kinds("a<=b") == [
            (TokenType.IDENTIFIER, "a"),
            (TokenType.OPERATOR, "<="),
            (TokenType.IDENTIFIER, "b"),
        ]

    def test_punctuation(self):
        assert kinds("(a, b);") == [
            (TokenType.PUNCTUATION, "("),
            (TokenType.IDENTIFIER, "a"),
            (TokenType.PUNCTUATION, ","),
            (TokenType.IDENTIFIER, "b"),
            (TokenType.PUNCTUATION, ")"),
            (TokenType.PUNCTUATION, ";"),
        ]


class TestComments:
    def test_line_comment(self):
        assert kinds("a -- comment\n b") == [
            (TokenType.IDENTIFIER, "a"),
            (TokenType.IDENTIFIER, "b"),
        ]

    def test_line_comment_at_eof(self):
        assert kinds("a -- trailing") == [(TokenType.IDENTIFIER, "a")]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [
            (TokenType.IDENTIFIER, "a"),
            (TokenType.IDENTIFIER, "b"),
        ]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexerError):
            tokenize("a /* oops")


class TestParameters:
    def test_named_parameter(self):
        assert kinds(":b_x") == [(TokenType.PARAMETER, "b_x")]

    def test_parameter_lowercased(self):
        assert kinds(":B_X") == [(TokenType.PARAMETER, "b_x")]


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexerError) as excinfo:
            tokenize("a ? b")
        assert excinfo.value.position == 2

    @pytest.mark.parametrize(
        "text, message, position",
        [
            # The doubled quote is an escape, so the string never ends.
            ("'ab''", "unterminated string literal", 0),
            ("x = 'ab''", "unterminated string literal", 4),
            ("'a' '", "unterminated string literal", 4),
            ('a "b', "unterminated quoted identifier", 2),
            ("a /* b", "unterminated block comment", 2),
        ],
    )
    def test_an_unterminated_token_is_reported_where_it_starts(self, text, message, position):
        with pytest.raises(LexerError, match=message) as excinfo:
            tokenize(text)
        assert excinfo.value.position == position

    def test_a_string_ends_at_a_quote_no_quote_follows(self):
        assert kinds("'ab''' 'c'") == [(TokenType.STRING, "ab'"), (TokenType.STRING, "c")]
