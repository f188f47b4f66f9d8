"""Recursive-descent parser for the supported SQL subset.

Grammar (roughly)::

    statement   := [WITH cte ("," cte)*] select [";"]
    cte         := name ["(" col ("," col)* ")"] AS "(" select ")"
    select      := SELECT [DISTINCT] items FROM from_item ("," from_item)*
                   [WHERE expr] [GROUP BY expr_list] [HAVING expr]
                   [ORDER BY order_list] [LIMIT n]
    from_item   := table_primary (join_clause)*
    join_clause := [INNER] JOIN table_primary ON expr
                 | NATURAL JOIN table_primary [ON col_list]
    expr        := or_expr (standard precedence: OR < AND < NOT <
                   comparison/IN/BETWEEN/IS < additive < multiplicative
                   < unary < primary)

The nonstandard ``NATURAL JOIN t ON (a, b)`` form from the paper's
Listing 8 (natural join on an explicit column list) is accepted and
treated as USING.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.errors import ParseError
from repro.sql import ast
from repro.sql.lexer import Token, TokenType, tokenize


def parse(sql: str) -> ast.Query:
    """Parse one SQL statement into a :class:`repro.sql.ast.Query`."""
    return _Parser(tokenize(sql)).parse_statement()


def parse_expression(sql: str) -> ast.Expr:
    """Parse a standalone scalar/boolean expression (for tests, tools)."""
    parser = _Parser(tokenize(sql))
    expr = parser._expr()
    parser._expect_eof()
    return expr


def number_value(text: str) -> Union[int, float]:
    """The value of a NUMBER token: a float when written with a point or
    an exponent, else an int."""
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token utilities ------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _check(self, token_type: TokenType, value: Optional[str] = None) -> bool:
        return self._peek().matches(token_type, value)

    def _accept(self, token_type: TokenType, value: Optional[str] = None) -> Optional[Token]:
        if self._check(token_type, value):
            return self._advance()
        return None

    def _expect(self, token_type: TokenType, value: Optional[str] = None) -> Token:
        token = self._peek()
        if not token.matches(token_type, value):
            wanted = value or token_type.name
            raise ParseError(
                f"expected {wanted}, found {token.value or 'end of input'!r} "
                f"at offset {token.position}"
            )
        return self._advance()

    def _expect_eof(self) -> None:
        self._accept(TokenType.PUNCTUATION, ";")
        token = self._peek()
        if token.type is not TokenType.EOF:
            raise ParseError(
                f"unexpected trailing input {token.value!r} at offset {token.position}"
            )

    def _keyword(self, word: str) -> bool:
        return self._accept(TokenType.KEYWORD, word) is not None

    # -- statements -----------------------------------------------------
    def parse_statement(self) -> ast.Query:
        ctes: List[ast.CommonTableExpr] = []
        if self._keyword("WITH"):
            ctes.append(self._cte())
            while self._accept(TokenType.PUNCTUATION, ","):
                ctes.append(self._cte())
        body = self._select()
        self._expect_eof()
        return ast.Query(body=body, ctes=tuple(ctes))

    def _cte(self) -> ast.CommonTableExpr:
        name = self._expect(TokenType.IDENTIFIER).value
        columns: List[str] = []
        if self._accept(TokenType.PUNCTUATION, "("):
            columns.append(self._expect(TokenType.IDENTIFIER).value)
            while self._accept(TokenType.PUNCTUATION, ","):
                columns.append(self._expect(TokenType.IDENTIFIER).value)
            self._expect(TokenType.PUNCTUATION, ")")
        self._expect(TokenType.KEYWORD, "AS")
        self._expect(TokenType.PUNCTUATION, "(")
        query = self._select()
        self._expect(TokenType.PUNCTUATION, ")")
        return ast.CommonTableExpr(name=name, query=query, columns=tuple(columns))

    def _select(self) -> ast.Select:
        self._expect(TokenType.KEYWORD, "SELECT")
        distinct = False
        if self._keyword("DISTINCT"):
            distinct = True
        elif self._keyword("ALL"):
            pass
        items = [self._select_item()]
        while self._accept(TokenType.PUNCTUATION, ","):
            items.append(self._select_item())

        from_items: List[ast.TableExpr] = []
        if self._keyword("FROM"):
            from_items.append(self._from_item())
            while self._accept(TokenType.PUNCTUATION, ","):
                from_items.append(self._from_item())

        where = self._expr() if self._keyword("WHERE") else None

        group_by: List[ast.Expr] = []
        if self._keyword("GROUP"):
            self._expect(TokenType.KEYWORD, "BY")
            group_by.append(self._expr())
            while self._accept(TokenType.PUNCTUATION, ","):
                group_by.append(self._expr())

        having = self._expr() if self._keyword("HAVING") else None

        order_by: List[ast.OrderItem] = []
        if self._keyword("ORDER"):
            self._expect(TokenType.KEYWORD, "BY")
            order_by.append(self._order_item())
            while self._accept(TokenType.PUNCTUATION, ","):
                order_by.append(self._order_item())

        limit: Optional[int] = None
        if self._keyword("LIMIT"):
            token = self._expect(TokenType.NUMBER)
            limit = int(token.value)

        return ast.Select(
            items=tuple(items),
            from_items=tuple(from_items),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
        )

    def _select_item(self) -> ast.SelectItem:
        if self._check(TokenType.OPERATOR, "*"):
            self._advance()
            return ast.SelectItem(ast.Star())
        expr = self._expr()
        alias = None
        if self._keyword("AS"):
            alias = self._expect(TokenType.IDENTIFIER).value
        elif self._check(TokenType.IDENTIFIER):
            alias = self._advance().value
        return ast.SelectItem(expr=expr, alias=alias)

    def _order_item(self) -> ast.OrderItem:
        expr = self._expr()
        ascending = True
        if self._keyword("DESC"):
            ascending = False
        else:
            self._keyword("ASC")
        return ast.OrderItem(expr=expr, ascending=ascending)

    # -- FROM items -----------------------------------------------------
    def _from_item(self) -> ast.TableExpr:
        left = self._table_primary()
        while True:
            natural = False
            if self._check(TokenType.KEYWORD, "NATURAL"):
                self._advance()
                natural = True
                self._expect(TokenType.KEYWORD, "JOIN")
            elif self._check(TokenType.KEYWORD, "INNER"):
                self._advance()
                self._expect(TokenType.KEYWORD, "JOIN")
            elif self._check(TokenType.KEYWORD, "CROSS"):
                self._advance()
                self._expect(TokenType.KEYWORD, "JOIN")
                right = self._table_primary()
                left = ast.JoinedTable(left=left, right=right)
                continue
            elif self._check(TokenType.KEYWORD, "JOIN"):
                self._advance()
            else:
                break
            right = self._table_primary()
            condition: Optional[ast.Expr] = None
            if natural:
                # Accept the paper's "NATURAL JOIN t ON col_list" form.
                if self._keyword("ON"):
                    condition = self._expr()
            else:
                self._expect(TokenType.KEYWORD, "ON")
                condition = self._expr()
            left = ast.JoinedTable(
                left=left, right=right, natural=natural, condition=condition
            )
        return left

    def _table_primary(self) -> ast.TableExpr:
        if self._accept(TokenType.PUNCTUATION, "("):
            query = self._select()
            self._expect(TokenType.PUNCTUATION, ")")
            alias = self._table_alias(required=True)
            assert alias is not None
            return ast.DerivedTable(query=query, alias=alias)
        name = self._expect(TokenType.IDENTIFIER).value
        alias = self._table_alias(required=False)
        return ast.NamedTable(name=name, alias=alias)

    def _table_alias(self, required: bool) -> Optional[str]:
        if self._keyword("AS"):
            return self._expect(TokenType.IDENTIFIER).value
        if self._check(TokenType.IDENTIFIER):
            return self._advance().value
        if required:
            raise ParseError(
                f"derived table requires an alias at offset {self._peek().position}"
            )
        return None

    # -- expressions ------------------------------------------------
    def _expr(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        left = self._and_expr()
        while self._keyword("OR"):
            left = ast.BinaryOp("OR", left, self._and_expr())
        return left

    def _and_expr(self) -> ast.Expr:
        left = self._not_expr()
        while self._keyword("AND"):
            left = ast.BinaryOp("AND", left, self._not_expr())
        return left

    def _not_expr(self) -> ast.Expr:
        if self._keyword("NOT"):
            return ast.UnaryOp("NOT", self._not_expr())
        return self._comparison()

    def _comparison(self) -> ast.Expr:
        if self._check(TokenType.KEYWORD, "EXISTS"):
            self._advance()
            self._expect(TokenType.PUNCTUATION, "(")
            subquery = self._select()
            self._expect(TokenType.PUNCTUATION, ")")
            return ast.ExistsSubquery(subquery=subquery)
        left = self._additive()
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in (
            "=", "<>", "!=", "<", "<=", ">", ">=",
        ):
            self._advance()
            op = "<>" if token.value == "!=" else token.value
            return ast.BinaryOp(op, left, self._additive())
        negated = False
        if self._check(TokenType.KEYWORD, "NOT"):
            lookahead = self._peek(1)
            if lookahead.type is TokenType.KEYWORD and lookahead.value in (
                "IN", "BETWEEN", "LIKE",
            ):
                self._advance()
                negated = True
        if self._keyword("IN"):
            return self._in_rest(left, negated)
        if self._keyword("BETWEEN"):
            low = self._additive()
            self._expect(TokenType.KEYWORD, "AND")
            high = self._additive()
            return ast.Between(needle=left, low=low, high=high, negated=negated)
        if self._keyword("IS"):
            is_not = self._keyword("NOT")
            self._expect(TokenType.KEYWORD, "NULL")
            return ast.IsNull(operand=left, negated=is_not)
        return left

    def _in_rest(self, needle: ast.Expr, negated: bool) -> ast.Expr:
        self._expect(TokenType.PUNCTUATION, "(")
        if self._check(TokenType.KEYWORD, "SELECT"):
            subquery = self._select()
            self._expect(TokenType.PUNCTUATION, ")")
            return ast.InSubquery(needle=needle, subquery=subquery, negated=negated)
        items = [self._expr()]
        while self._accept(TokenType.PUNCTUATION, ","):
            items.append(self._expr())
        self._expect(TokenType.PUNCTUATION, ")")
        return ast.InList(needle=needle, items=tuple(items), negated=negated)

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.value in ("+", "-", "||"):
                self._advance()
                left = ast.BinaryOp(token.value, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.value in ("*", "/", "%"):
                self._advance()
                left = ast.BinaryOp(token.value, left, self._unary())
            else:
                return left

    def _unary(self) -> ast.Expr:
        if self._check(TokenType.OPERATOR, "-"):
            self._advance()
            operand = self._unary()
            if isinstance(operand, ast.Literal) and isinstance(
                operand.value, (int, float)
            ):
                return ast.Literal(-operand.value)
            return ast.UnaryOp("-", operand)
        if self._check(TokenType.OPERATOR, "+"):
            self._advance()
            return self._unary()
        return self._primary()

    def _primary(self) -> ast.Expr:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            return ast.Literal(number_value(token.value))
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.value)
        if token.type is TokenType.PARAMETER:
            self._advance()
            return ast.Parameter(token.value)
        if token.matches(TokenType.KEYWORD, "NULL"):
            self._advance()
            return ast.Literal(None)
        if token.matches(TokenType.KEYWORD, "TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.matches(TokenType.KEYWORD, "FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.matches(TokenType.KEYWORD, "CASE"):
            return self._case()
        if token.type is TokenType.KEYWORD and token.value in ast.AGGREGATE_FUNCTIONS:
            self._advance()
            if self._check(TokenType.PUNCTUATION, "("):
                return self._call(token.value)
            # Aggregate keywords double as column names when not called
            # (e.g. "ORDER BY count" referring to an output column).
            return ast.ColumnRef(table=None, column=token.value.lower())
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            if self._check(TokenType.PUNCTUATION, "("):
                return self._call(token.value.upper())
            if self._accept(TokenType.PUNCTUATION, "."):
                if self._check(TokenType.OPERATOR, "*"):
                    self._advance()
                    return ast.Star(table=token.value)
                column = self._expect(TokenType.IDENTIFIER).value
                return ast.ColumnRef(table=token.value, column=column)
            return ast.ColumnRef(table=None, column=token.value)
        if token.matches(TokenType.PUNCTUATION, "("):
            self._advance()
            first = self._expr()
            if self._accept(TokenType.PUNCTUATION, ","):
                items = [first, self._expr()]
                while self._accept(TokenType.PUNCTUATION, ","):
                    items.append(self._expr())
                self._expect(TokenType.PUNCTUATION, ")")
                return ast.TupleExpr(items=tuple(items))
            self._expect(TokenType.PUNCTUATION, ")")
            return first
        raise ParseError(
            f"unexpected token {token.value or 'end of input'!r} "
            f"at offset {token.position}"
        )

    def _call(self, name: str) -> ast.Expr:
        self._expect(TokenType.PUNCTUATION, "(")
        distinct = False
        args: List[ast.Expr] = []
        if self._check(TokenType.OPERATOR, "*"):
            self._advance()
            args.append(ast.Star())
        elif not self._check(TokenType.PUNCTUATION, ")"):
            if self._keyword("DISTINCT"):
                distinct = True
            args.append(self._expr())
            while self._accept(TokenType.PUNCTUATION, ","):
                args.append(self._expr())
        self._expect(TokenType.PUNCTUATION, ")")
        return ast.FuncCall(name=name.upper(), args=tuple(args), distinct=distinct)

    def _case(self) -> ast.Expr:
        self._expect(TokenType.KEYWORD, "CASE")
        whens: List[Tuple[ast.Expr, ast.Expr]] = []
        while self._keyword("WHEN"):
            condition = self._expr()
            self._expect(TokenType.KEYWORD, "THEN")
            whens.append((condition, self._expr()))
        if not whens:
            raise ParseError("CASE requires at least one WHEN branch")
        default = self._expr() if self._keyword("ELSE") else None
        self._expect(TokenType.KEYWORD, "END")
        return ast.CaseExpr(whens=tuple(whens), default=default)
