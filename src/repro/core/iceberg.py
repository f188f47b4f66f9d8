"""The iceberg query model: Listing 5 normal form and its analysis.

An :class:`IcebergBlock` wraps one SELECT block (with GROUP BY and
HAVING) over N relation instances and exposes the quantities the
paper's formal machinery is stated in terms of: for any partition of
the instances into an outer side L and inner side R it produces a
:class:`PartitionView` carrying 𝔾_L, 𝔾_R, 𝕁_L, 𝕁_R, 𝕁^=_L, 𝕁^=_R,
Θ, Φ, Λ, plus per-side FD sets (inferred over the side's internal
join per Appendix D).

Attribute naming convention: analysis attributes are qualified
``alias.column`` strings, which keeps self-joins unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import OptimizationError
from repro.sql import ast
from repro.constraints.fd import FDSet
from repro.constraints.inference import join_fds
from repro.core.monotonicity import Monotonicity, classify
from repro.storage.catalog import Database


@dataclass
class RelationInfo:
    """One FROM instance of the analyzed block."""

    alias: str
    columns: Tuple[str, ...]
    fds: FDSet  # over bare column names
    table_name: Optional[str] = None  # base table, if any
    cte_name: Optional[str] = None  # CTE, if any
    nonnegative_columns: FrozenSet[str] = frozenset()

    def qualified(self, column: str) -> str:
        return f"{self.alias}.{column}"

    @property
    def attributes(self) -> FrozenSet[str]:
        return frozenset(self.qualified(c) for c in self.columns)


def _qualify(ref: ast.ColumnRef, relations: Sequence[RelationInfo]) -> str:
    """Resolve a ColumnRef to its qualified attribute name."""
    if ref.table is not None:
        alias = ref.table.lower()
        for relation in relations:
            if relation.alias == alias:
                if ref.column.lower() not in relation.columns:
                    raise OptimizationError(
                        f"no column {ref.column!r} in {alias!r}"
                    )
                return f"{alias}.{ref.column.lower()}"
        raise OptimizationError(f"unknown alias {ref.table!r}")
    owners = [
        relation
        for relation in relations
        if ref.column.lower() in relation.columns
    ]
    if len(owners) != 1:
        raise OptimizationError(
            f"unresolvable column reference {ref.column!r}"
        )
    return owners[0].qualified(ref.column.lower())


def _qualify_expr(
    expr: ast.Expr, relations: Sequence[RelationInfo]
) -> ast.Expr:
    """Rewrite an expression so every ColumnRef is alias-qualified."""

    def visit(node):
        if isinstance(node, ast.ColumnRef):
            qualified = _qualify(node, relations)
            alias, _, column = qualified.partition(".")
            return ast.ColumnRef(alias, column)
        return node

    return ast.transform(expr, visit)


class IcebergBlock:
    """Analysis of a single iceberg SELECT block.

    Parameters
    ----------
    select:
        The block; FROM items must be named tables or CTE references
        (derived tables should be lifted into CTEs first).
    db:
        Catalog supplying base-table FDs and column domains.
    cte_infos:
        Column lists and inferred FDs for CTEs visible to this block,
        mapping name -> (columns, fds, nonnegative_columns).
    """

    def __init__(
        self,
        select: ast.Select,
        db: Database,
        cte_infos: Optional[
            Dict[str, Tuple[Tuple[str, ...], FDSet, FrozenSet[str]]]
        ] = None,
    ) -> None:
        self.select = select
        self.db = db
        self._cte_infos = cte_infos or {}
        # attributes_of memo; a block lives inside one optimize call.
        self._attributes: Dict[int, Tuple[ast.Expr, FrozenSet[str]]] = {}
        self.relations = self._collect_relations()
        self._by_alias = {relation.alias: relation for relation in self.relations}
        conjuncts, extra = self._collect_conjuncts()
        self.conjuncts: Tuple[ast.Expr, ...] = tuple(
            _qualify_expr(c, self.relations) for c in conjuncts + extra
        )
        self.group_by: Tuple[ast.Expr, ...] = tuple(
            _qualify_expr(g, self.relations) for g in select.group_by
        )
        self.having: Optional[ast.Expr] = (
            _qualify_expr(select.having, self.relations)
            if select.having is not None
            else None
        )
        self.items: Tuple[ast.SelectItem, ...] = tuple(
            ast.SelectItem(
                item.expr
                if isinstance(item.expr, ast.Star)
                else _qualify_expr(item.expr, self.relations),
                item.alias,
            )
            for item in select.items
        )
        self.equivalences = self._build_equivalences()

    def _build_equivalences(self) -> "EquivalenceClasses":
        """Equated attributes, closed under FDs (Appendix D's inference).

        Direct equality conjuncts seed the classes; then a congruence
        step propagates through functional dependencies: if two
        instances of the same relation agree (are equated) on an FD's
        left side, they agree on its right side.  This derives facts
        like ``S2.category = T2.category`` from ``id → category`` plus
        ``S1.id = S2.id``, ``T1.id = T2.id``, and
        ``S1.category = T1.category`` — which Example 13 needs for the
        effective S2 reducer.
        """
        from repro.constraints.equivalence import EquivalenceClasses

        classes = EquivalenceClasses()
        for conjunct in self.conjuncts:
            if (
                isinstance(conjunct, ast.BinaryOp)
                and conjunct.op == "="
                and isinstance(conjunct.left, ast.ColumnRef)
                and isinstance(conjunct.right, ast.ColumnRef)
                and conjunct.left.table is not None
                and conjunct.right.table is not None
            ):
                classes.merge(
                    f"{conjunct.left.table}.{conjunct.left.column}",
                    f"{conjunct.right.table}.{conjunct.right.column}",
                )
        # Congruence fixpoint over same-source relation instance pairs.
        changed = True
        while changed:
            changed = False
            for a in self.relations:
                for b in self.relations:
                    if a.alias >= b.alias:
                        continue
                    source_a = a.table_name or a.cte_name
                    source_b = b.table_name or b.cte_name
                    if source_a != source_b:
                        continue
                    for dep in a.fds:
                        if all(
                            classes.same(f"{a.alias}.{col}", f"{b.alias}.{col}")
                            for col in dep.lhs
                        ) and dep.lhs:
                            for col in dep.rhs:
                                if not classes.same(
                                    f"{a.alias}.{col}", f"{b.alias}.{col}"
                                ):
                                    classes.merge(
                                        f"{a.alias}.{col}", f"{b.alias}.{col}"
                                    )
                                    changed = True
        return classes

    def equivalent_in(
        self, attribute: str, aliases: FrozenSet[str]
    ) -> Optional[str]:
        """An attribute equated to ``attribute`` whose alias is in ``aliases``."""
        alias = attribute.partition(".")[0]
        if alias in aliases:
            return attribute
        for member in sorted(self.equivalences.members(attribute)):
            if member.partition(".")[0] in aliases:
                return member
        return None

    # ------------------------------------------------------------------
    def _collect_relations(self) -> List[RelationInfo]:
        relations: List[RelationInfo] = []

        def add(item: ast.TableExpr) -> None:
            if isinstance(item, ast.NamedTable):
                name = item.name.lower()
                alias = (item.alias or item.name).lower()
                if name in self._cte_infos:
                    columns, fds, nonneg = self._cte_infos[name]
                    relations.append(
                        RelationInfo(
                            alias=alias,
                            columns=tuple(columns),
                            fds=fds,
                            cte_name=name,
                            nonnegative_columns=frozenset(nonneg),
                        )
                    )
                else:
                    table = self.db.table(name)
                    nonneg = frozenset(
                        column
                        for column in table.schema.column_names
                        if self.db.is_nonnegative(name, column)
                    )
                    relations.append(
                        RelationInfo(
                            alias=alias,
                            columns=table.schema.column_names,
                            fds=self.db.fds(name),
                            table_name=name,
                            nonnegative_columns=nonneg,
                        )
                    )
            elif isinstance(item, ast.JoinedTable):
                add(item.left)
                add(item.right)
            else:
                raise OptimizationError(
                    "iceberg analysis expects named tables or CTEs in FROM; "
                    "lift derived tables into WITH first"
                )

        for item in self.select.from_items:
            add(item)
        if len(relations) < 2:
            raise OptimizationError("iceberg optimization requires a join")
        return relations

    def _collect_conjuncts(self) -> Tuple[List[ast.Expr], List[ast.Expr]]:
        conjuncts = list(ast.conjuncts(self.select.where))
        extra: List[ast.Expr] = []

        def walk_joins(item: ast.TableExpr) -> None:
            if isinstance(item, ast.JoinedTable):
                walk_joins(item.left)
                walk_joins(item.right)
                if item.natural:
                    raise OptimizationError(
                        "NATURAL JOIN is not supported by the analyzer; "
                        "spell the equality conditions explicitly"
                    )
                if item.condition is not None:
                    extra.extend(ast.conjuncts(item.condition))

        for item in self.select.from_items:
            walk_joins(item)
        return conjuncts, extra

    # ------------------------------------------------------------------
    @property
    def aliases(self) -> Tuple[str, ...]:
        return tuple(relation.alias for relation in self.relations)

    def relation(self, alias: str) -> RelationInfo:
        return self._by_alias[alias.lower()]

    def attributes_of(self, expr: ast.Expr) -> FrozenSet[str]:
        """Qualified attributes referenced by an (already qualified) expr.

        Memoized per expression object: the reducer search and the
        technique choice partition the same block's conjuncts many
        times over.
        """
        cached = self._attributes.get(id(expr))
        if cached is None or cached[0] is not expr:
            cached = (expr, frozenset(
                f"{ref.table}.{ref.column}"
                for ref in ast.column_refs(expr)
                if ref.table is not None
            ))
            self._attributes[id(expr)] = cached
        return cached[1]

    def aliases_of(self, expr: ast.Expr) -> FrozenSet[str]:
        return frozenset(
            attribute.partition(".")[0] for attribute in self.attributes_of(expr)
        )

    def group_by_attributes(self) -> FrozenSet[str]:
        """Qualified attributes appearing in GROUP BY (must be columns)."""
        result: Set[str] = set()
        for expr in self.group_by:
            if not isinstance(expr, ast.ColumnRef) or expr.table is None:
                raise OptimizationError(
                    "iceberg analysis requires plain column GROUP BY entries"
                )
            result.add(f"{expr.table}.{expr.column}")
        return frozenset(result)

    def phi_monotonicity(self) -> Monotonicity:
        """Monotonicity of Φ with the catalog's domain knowledge."""
        if self.having is None:
            return Monotonicity.BOTH

        def nonnegative(expr: ast.Expr) -> bool:
            if not isinstance(expr, ast.ColumnRef) or expr.table is None:
                return False
            relation = self._by_alias.get(expr.table)
            if relation is None:
                return False
            return expr.column in relation.nonnegative_columns

        return classify(self.having, nonnegative)

    # ------------------------------------------------------------------
    def partition(self, left_aliases: Sequence[str]) -> "PartitionView":
        """View this block as a two-relation iceberg query (Listing 5).

        ``left_aliases`` become L = Q⋈[T_L]; the remaining instances
        become R.  Both sides may be single instances (the common case)
        or joins (Appendix D's multiway treatment).
        """
        left = frozenset(alias.lower() for alias in left_aliases)
        all_aliases = frozenset(self.aliases)
        if not left or not left < all_aliases:
            raise OptimizationError(
                f"left side must be a nonempty proper subset of {sorted(all_aliases)}"
            )
        return PartitionView(self, left, all_aliases - left)


class PartitionView:
    """The Listing 5 view of a block for one L/R partition."""

    def __init__(
        self, block: IcebergBlock, left: FrozenSet[str], right: FrozenSet[str]
    ) -> None:
        self.block = block
        self.left_aliases = left
        self.right_aliases = right

        self.theta: Tuple[ast.Expr, ...] = tuple(
            c
            for c in block.conjuncts
            if block.aliases_of(c) & left and block.aliases_of(c) & right
        )
        self.left_internal: Tuple[ast.Expr, ...] = tuple(
            c for c in block.conjuncts if block.aliases_of(c) <= left
        ) + self._derived_equalities(left)
        self.right_internal: Tuple[ast.Expr, ...] = tuple(
            c for c in block.conjuncts if block.aliases_of(c) <= right
        ) + self._derived_equalities(right)

        # GROUP BY attributes per side, substituting equated attributes
        # into the left side when the original lives on the right (the
        # Appendix D inference: S1.id can serve as S2.id).
        group_attrs = block.group_by_attributes()
        g_left = set()
        g_right = set()
        self.group_substitutions: Dict[str, str] = {}
        for attribute in group_attrs:
            if attribute.partition(".")[0] in left:
                g_left.add(attribute)
                continue
            substitute = block.equivalent_in(attribute, left)
            if substitute is not None:
                g_left.add(substitute)
                self.group_substitutions[attribute] = substitute
            else:
                g_right.add(attribute)
        self.g_left = frozenset(g_left)
        self.g_right = frozenset(g_right)

        self.j_left: FrozenSet[str] = frozenset(
            a
            for c in self.theta
            for a in block.attributes_of(c)
            if a.partition(".")[0] in left
        )
        self.j_right: FrozenSet[str] = frozenset(
            a
            for c in self.theta
            for a in block.attributes_of(c)
            if a.partition(".")[0] in right
        )
        equality = [
            c
            for c in self.theta
            if isinstance(c, ast.BinaryOp) and c.op == "="
        ]
        self.j_left_eq: FrozenSet[str] = frozenset(
            a
            for c in equality
            for a in block.attributes_of(c)
            if a.partition(".")[0] in left
        )
        self.j_right_eq: FrozenSet[str] = frozenset(
            a
            for c in equality
            for a in block.attributes_of(c)
            if a.partition(".")[0] in right
        )

    # ------------------------------------------------------------------
    def _derived_equalities(self, aliases: FrozenSet[str]) -> Tuple[ast.Expr, ...]:
        """Equality conjuncts implied by FDs between attributes of one side.

        E.g. ``S2.category = T2.category`` holds on every joined tuple
        (via the block's congruence closure) even though the query never
        states it; adding it to the side's internal condition makes
        reducers and inner queries as selective as the paper's
        hand-derived ones.  Only pairs not already implied by the
        side's written conjuncts are added.
        """
        written = set()
        for conjunct in self.block.conjuncts:
            if (
                isinstance(conjunct, ast.BinaryOp)
                and conjunct.op == "="
                and isinstance(conjunct.left, ast.ColumnRef)
                and isinstance(conjunct.right, ast.ColumnRef)
            ):
                pair = tuple(
                    sorted(
                        (
                            f"{conjunct.left.table}.{conjunct.left.column}",
                            f"{conjunct.right.table}.{conjunct.right.column}",
                        )
                    )
                )
                written.add(pair)
        derived = []
        for group in self.block.equivalences.classes():
            members = sorted(
                m for m in group if m.partition(".")[0] in aliases
            )
            for i in range(len(members) - 1):
                pair = (members[i], members[i + 1])
                if pair in written:
                    continue
                derived.append(
                    ast.BinaryOp(
                        "=",
                        ast.ColumnRef(*pair[0].split(".", 1)),
                        ast.ColumnRef(*pair[1].split(".", 1)),
                    )
                )
        return tuple(derived)

    def _side(self, left: bool) -> FrozenSet[str]:
        return self.left_aliases if left else self.right_aliases

    def attributes(self, left: bool) -> FrozenSet[str]:
        aliases = self._side(left)
        result: Set[str] = set()
        for alias in aliases:
            result |= self.block.relation(alias).attributes
        return frozenset(result)

    def fds(self, left: bool) -> FDSet:
        """FDs holding on the side's internal join (Appendix D)."""
        aliases = self._side(left)
        per_alias = {
            alias: self.block.relation(alias).fds for alias in aliases
        }
        internal = self.left_internal if left else self.right_internal
        return join_fds(per_alias, internal)

    def phi_applicable_to(self, left: bool) -> bool:
        """Is Φ applicable to this side (all its attributes from it)?

        ``*`` (as in COUNT(*)) is always allowed, per Section 4.1.
        """
        having = self.block.having
        if having is None:
            return False
        attributes = self.block.attributes_of(having)
        side = self.attributes(left)
        return attributes <= side

    def lambda_aggregates_applicable_to(self, left: bool) -> bool:
        """Do all aggregate arguments in Λ come from this side (or *)?"""
        side = self.attributes(left)
        for item in self.block.items:
            if isinstance(item.expr, ast.Star):
                return False
            for call in ast.aggregate_calls(item.expr):
                for arg in call.args:
                    if isinstance(arg, ast.Star):
                        continue
                    if not self.block.attributes_of(arg) <= side:
                        return False
        return True

    def localize(self, expr: ast.Expr, left: bool = True) -> ast.Expr:
        """Rewrite refs to use attributes available on the given side.

        References to attributes of the *other* side are replaced with
        an equated attribute on this side when the block's equivalence
        classes provide one; references inside aggregate calls are left
        untouched (they are evaluated by the inner query).  Raises
        :class:`OptimizationError` when no equivalent exists — callers
        treat that as "this partition cannot drive an NLJP".
        """
        aliases = self._side(left)
        other_group = self.g_right if left else self.g_left

        def visit(node):
            if isinstance(node, ast.FuncCall) and node.is_aggregate:
                return node
            if isinstance(node, ast.ColumnRef) and node.table is not None:
                attribute = f"{node.table}.{node.column}"
                if node.table in aliases or attribute in other_group:
                    return node
                substitute = self.block.equivalent_in(attribute, aliases)
                if substitute is None:
                    raise OptimizationError(
                        f"{attribute} has no equivalent on side {sorted(aliases)}"
                    )
                return ast.ColumnRef(*substitute.split(".", 1))
            return node

        # Aggregate arguments must not be rewritten (bottom-up transform
        # would reach them first): shelter aggregates behind placeholder
        # parameters, rewrite, then restore.
        placeholders: Dict[str, ast.Expr] = {}

        def shelter(node):
            if isinstance(node, ast.FuncCall) and node.is_aggregate:
                key = f"__agg_placeholder_{len(placeholders)}"
                placeholders[key] = node
                return ast.Parameter(key)
            return node

        def restore(node):
            if isinstance(node, ast.Parameter) and node.name in placeholders:
                return placeholders[node.name]
            return node

        sheltered = ast.transform(expr, shelter)
        rewritten = ast.transform(sheltered, visit)
        return ast.transform(rewritten, restore)

    def describe(self) -> str:
        """Human-readable summary (used by EXPLAIN-style output)."""
        lines = [
            f"L = {sorted(self.left_aliases)}  R = {sorted(self.right_aliases)}",
            f"G_L = {sorted(self.g_left)}  G_R = {sorted(self.g_right)}",
            f"J_L = {sorted(self.j_left)}  J_R = {sorted(self.j_right)}",
            f"Theta = {len(self.theta)} conjunct(s)",
        ]
        return "\n".join(lines)
