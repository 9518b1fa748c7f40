"""The per-time-point expansion of the DuckDB oracle's queries."""
from oracle import assert_equivalent, expand_df
from util import paper_b


def test_expand_df_against_duckdb_oracle(spark):
    """The Spark expansion equals a DuckDB range/unnest expansion."""
    pdf = paper_b()
    df = expand_df(spark.createDataFrame(pdf))
    assert_equivalent(
        df,
        """
        SELECT hotel, loc, lid, p, unnest(range(ts, te)) AS t
        FROM b
        """,
        b=pdf,
    )
