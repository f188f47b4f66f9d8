"""Statement templates: the served plan cache's key.

Ad hoc iceberg statements repeat as *templates*, not as text: the
paper's Figures 5-8 and a threshold sweep ask one statement at many
values of its ``HAVING COUNT(*) <op> t``.  :func:`lift` turns a
statement into its template: every numeric literal that is a whole
operand of a comparison with an aggregate call inside a ``HAVING``
clause becomes a reserved parameter, and the literal its bound value.
Binding a parameter to the literal's value gives every row the value
the literal did, so a plan of the template runs the statement exactly.

Nothing else is lifted.  ``WHERE`` literals stay in the text: QE/FME
reads them as coefficients of Θ and the selectivity estimates read
them.  So do ``LIMIT`` and the literals of the ``SELECT`` list.  The
one planning decision a lifted value can sway, whether an a-priori
reducer is trivial, is taken at the bound values and kept as a guard on
the plan (:class:`repro.core.optimizer.PlanGuard`).

:class:`TemplateMemo` remembers the template of every text it has
lifted, so a statement served before is never lexed again.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import LexerError
from repro.sql.lexer import Token, TokenType, tokenize
from repro.sql.parser import number_value

#: Lifted parameters are named ``_having_1``, ``_having_2``, ... in text
#: order, skipping any name the statement uses itself.
LIFTED_PREFIX = "_having_"

_AGGREGATES = frozenset(("COUNT", "SUM", "AVG", "MIN", "MAX"))
_COMPARISONS = frozenset(("=", "<>", "!=", "<", "<=", ">", ">="))
#: Tokens that may stand right before a whole comparison inside HAVING.
_BEFORE = frozenset(("HAVING", "AND", "OR", "NOT", "("))
#: Tokens that may stand right after one.
_AFTER = frozenset(
    ("AND", "OR", ")", ";", "", "ORDER", "LIMIT", "OFFSET", "UNION", "EXCEPT", "INTERSECT")
)
#: Keywords that end a HAVING clause at its own depth.
_CLAUSE_ENDS = frozenset(("ORDER", "LIMIT", "OFFSET", "UNION", "EXCEPT", "INTERSECT"))


@dataclass(frozen=True)
class Template:
    """A statement's template text and the values of its lifted
    parameters, in the order they appear."""

    sql: str
    lifted: Tuple[Tuple[str, Any], ...] = ()

    def bind(self, params: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
        """The caller's ``params`` with every lifted value added."""
        if not self.lifted:
            return params
        bound = dict(params or {})
        bound.update(self.lifted)
        return bound


def lift(sql: str) -> Template:
    """``sql``'s template (see the module docstring).  A statement that
    does not lex is its own template: it fails where it always did."""
    try:
        tokens = tokenize(sql)
    except LexerError:
        return Template(sql)
    positions = _liftable(tokens)
    if not positions:
        return Template(sql)
    taken = {t.value for t in tokens if t.type is TokenType.PARAMETER}
    pieces: List[str] = []
    lifted: List[Tuple[str, Any]] = []
    end = 0
    number = 0
    for index in positions:
        token = tokens[index]
        number += 1
        while f"{LIFTED_PREFIX}{number}" in taken:
            number += 1
        name = f"{LIFTED_PREFIX}{number}"
        pieces += [sql[end : token.position], ":", name]
        end = token.position + len(token.value)
        lifted.append((name, number_value(token.value)))
    pieces.append(sql[end:])
    return Template("".join(pieces), tuple(lifted))


def _liftable(tokens: List[Token]) -> List[int]:
    """Indexes of the NUMBER tokens :func:`lift` turns into parameters."""
    # Keywords, operators and punctuation by value; names and strings
    # can never be one of them.
    words = [
        "\0" if token.type in (TokenType.IDENTIFIER, TokenType.STRING) else token.value
        for token in tokens
    ]
    partner: Dict[int, int] = {}  # matching parentheses, both ways
    opened: List[int] = []
    having: List[int] = []  # the depth of every open HAVING clause
    numbers: List[int] = []  # NUMBER tokens inside one
    for index, word in enumerate(words):
        if word == "(":
            opened.append(index)
        elif word == ")":
            if opened:
                start = opened.pop()
                partner[start] = index
                partner[index] = start
            while having and having[-1] > len(opened):
                having.pop()
        elif word == "HAVING":
            having.append(len(opened))
        elif word == ";" or (word in _CLAUSE_ENDS and having and having[-1] == len(opened)):
            while having and having[-1] >= len(opened):
                having.pop()
        elif having and tokens[index].type is TokenType.NUMBER:
            numbers.append(index)

    words += ["", ""]  # lookahead past the end reads no word
    found: List[int] = []
    for index in numbers:
        before, after = words[index - 1], words[index + 1]
        if before in _COMPARISONS and after in _AFTER:
            # aggregate ( ... ) <op> NUMBER
            start = partner.get(index - 2)
            if (
                words[index - 2] == ")"
                and start is not None
                and words[start - 1] in _AGGREGATES
                and words[start - 2] in _BEFORE
            ):
                found.append(index)
        elif after in _COMPARISONS and before in _BEFORE:
            # NUMBER <op> aggregate ( ... )
            end = partner.get(index + 3)
            if (
                words[index + 2] in _AGGREGATES
                and words[index + 3] == "("
                and end is not None
                and words[end + 1] in _AFTER
            ):
                found.append(index)
    return found


#: Texts a :class:`TemplateMemo` remembers: a few kilobytes each, and
#: far more than the statements a server keeps plans for.
MEMO_TEXTS = 1024


class TemplateMemo:
    """Text → :class:`Template`, least recently used out first: a text
    is lexed the first time it is served, and never again while it is
    remembered.  It also tells the plan cache which texts are new, which
    it counts as misses (:meth:`repro.serve.plan_cache.PlanCache.stats`)."""

    def __init__(self) -> None:
        self._templates: "OrderedDict[str, Template]" = OrderedDict()  # guarded-by: self._lock
        self._lock = threading.Lock()

    def template(self, sql: str) -> Tuple[Template, bool]:
        """``sql``'s template, and whether it was lifted just now (a
        text not seen before, or forgotten since)."""
        with self._lock:
            template = self._templates.get(sql)
            if template is not None:
                self._templates.move_to_end(sql)
                return template, False
        template = lift(sql)
        with self._lock:
            self._templates[sql] = template
            while len(self._templates) > MEMO_TEXTS:
                self._templates.popitem(last=False)
        return template, True
