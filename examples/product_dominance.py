"""Unexciting products: the 4-way self-join of Listing 3 / Example 13.

Finds products strictly dominated by at least ``threshold`` others in
the same category on two attribute dimensions.  The optimizer discovers
the Appendix D composition: a-priori reducers on S1 and S2 *plus* an
NLJP over the {S1, S2} driver with pruning — the combination the
paper's own implementation could not yet apply automatically
(Section 7 notes the limitation is not inherent; here it is removed).
The example forces Listing 9's rule to show that composition; by
default the optimizer weighs the NLJP against the reduced join and
runs whichever it estimates faster (its ``technique:`` line says which).

Run:  python examples/product_dominance.py
"""

from repro import EngineConfig, SmartIceberg, execute
from repro.workloads import ProductConfig, complex_query, make_product_db


def main() -> None:
    db = make_product_db(ProductConfig(n_products=250, seed=4))
    sql = complex_query(threshold=10, table="product")
    print("Query:")
    print(sql)
    print()

    print("Default technique choice:")
    print(SmartIceberg(db).optimize(sql).report.technique.render())
    print()

    system = SmartIceberg(db, technique_choice="first-applicable")
    optimized = system.optimize(sql)
    print("Optimizer decisions:")
    print(optimized.report.summary())
    print()
    print("Rewritten SQL (reducers as IN-subqueries, cf. Listing 11):")
    print(optimized.rewritten_sql())
    print()

    nljp = optimized.nljp
    if nljp is not None:
        print("Generated NLJP queries (cf. Listing 10):")
        for name, text in nljp.sql_listing().items():
            print(f"  {name}: {text}")
        print()

    result = optimized.execute()
    baseline = execute(db, sql, EngineConfig.postgres())
    assert sorted(result.rows) == sorted(baseline.rows)

    print(f"{len(result.rows)} (product, attr-pair) results, e.g.:")
    for row in result.sorted_rows()[:5]:
        print("  ", row)
    print()
    print(
        f"work: baseline={baseline.stats.cost():,}  smart={result.stats.cost():,}"
    )


if __name__ == "__main__":
    main()
