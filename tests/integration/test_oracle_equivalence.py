"""Cross-engine oracle tests.

PostgresRaw, the Baseline (external files), and every conventional
profile share one SQL semantics; on identical data they must return
identical results for any query.  This is the strongest correctness
check in the suite — the engines share the planner/executor but differ
completely in how the leaves obtain data (in-situ adaptive scan vs
binary storage vs full re-scan).
"""

import pytest

from repro import DataType, PostgresRaw, PostgresRawConfig, generate_csv
from repro.baselines import (
    ConventionalDBMS,
    DBMS_X,
    ExternalFilesDBMS,
    MYSQL,
    POSTGRESQL,
)
from repro.rawio.generator import ColumnSpec, DatasetSpec

QUERIES = [
    "SELECT id, price FROM t WHERE qty < 50 ORDER BY id LIMIT 20",
    "SELECT COUNT(*) AS n FROM t",
    "SELECT COUNT(qty) AS n FROM t",
    "SELECT SUM(qty) AS s, AVG(price) AS m FROM t WHERE flag = TRUE",
    "SELECT label, COUNT(*) AS c, MIN(price) AS lo FROM t "
    "GROUP BY label ORDER BY c DESC, label LIMIT 10",
    "SELECT id FROM t WHERE label LIKE 'a%' ORDER BY id LIMIT 15",
    "SELECT id FROM t WHERE qty IS NULL ORDER BY id LIMIT 10",
    "SELECT id, price * 2 AS dbl FROM t "
    "WHERE price BETWEEN 100 AND 200 ORDER BY dbl DESC LIMIT 10",
    "SELECT DISTINCT flag FROM t ORDER BY flag",
    "SELECT id FROM t WHERE day >= '2011-01-01' AND qty IN (1, 2, 3) "
    "ORDER BY id LIMIT 10",
    "SELECT flag, label, COUNT(*) AS n FROM t GROUP BY flag, label "
    "HAVING COUNT(*) > 5 ORDER BY n DESC, label LIMIT 8",
]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("oracle") / "t.csv"
    spec = DatasetSpec(
        columns=(
            ColumnSpec("id", DataType.INTEGER, distribution="sequential"),
            ColumnSpec("price", DataType.FLOAT, low=0, high=500),
            ColumnSpec("label", DataType.TEXT, width=5, cardinality=30),
            ColumnSpec("day", DataType.DATE, low=14_600, high=15_700),
            ColumnSpec("flag", DataType.BOOLEAN),
            ColumnSpec(
                "qty", DataType.INTEGER, low=0, high=100, null_fraction=0.08
            ),
        ),
        n_rows=4_000,
        seed=77,
    )
    schema = generate_csv(path, spec)
    return path, schema


@pytest.fixture(scope="module")
def reference_results(dataset):
    path, schema = dataset
    eng = PostgresRaw(PostgresRawConfig.baseline())
    eng.register_csv("t", path, schema)
    return [list(eng.query(q)) for q in QUERIES]


class TestPostgresRawAgainstBaseline:
    def test_cold_engine_matches(self, dataset, reference_results):
        path, schema = dataset
        eng = PostgresRaw()
        eng.register_csv("t", path, schema)
        for query, expected in zip(QUERIES, reference_results):
            assert list(eng.query(query)) == expected, query

    def test_warm_engine_matches(self, dataset, reference_results):
        path, schema = dataset
        eng = PostgresRaw()
        eng.register_csv("t", path, schema)
        # Warm every structure with one pass, then verify all again.
        for query in QUERIES:
            eng.query(query)
        for query, expected in zip(QUERIES, reference_results):
            assert list(eng.query(query)) == expected, query

    def test_tight_budget_engine_matches(self, dataset, reference_results):
        path, schema = dataset
        config = PostgresRawConfig(
            memory_budget=128 * 1024,  # forces chunk + cache eviction
            batch_size=512,
        )
        eng = PostgresRaw(config)
        eng.register_csv("t", path, schema)
        for repeat in range(2):
            for query, expected in zip(QUERIES, reference_results):
                assert list(eng.query(query)) == expected, query
        assert eng.service.governor.evictions > 0


@pytest.mark.parametrize(
    "profile", [POSTGRESQL, MYSQL, DBMS_X], ids=lambda p: p.name
)
class TestConventionalAgainstBaseline:
    def test_profile_matches(
        self, dataset, reference_results, profile, tmp_path
    ):
        path, schema = dataset
        db = ConventionalDBMS(profile, storage_dir=tmp_path)
        db.load_csv("t", path, schema)
        for query, expected in zip(QUERIES, reference_results):
            assert list(db.query(query)) == expected, query

    def test_profile_with_index_matches(
        self, dataset, reference_results, profile, tmp_path
    ):
        path, schema = dataset
        db = ConventionalDBMS(profile, storage_dir=tmp_path / "idx")
        db.load_csv("t", path, schema)
        db.create_index("t", "qty")
        db.create_index("t", "price")
        for query, expected in zip(QUERIES, reference_results):
            assert list(db.query(query)) == expected, query


class TestExternalFiles:
    def test_every_query_identical_cost_profile(self, dataset):
        """The external baseline must not get faster over repeats (it
        remembers nothing) and must stay correct."""
        path, schema = dataset
        ext = ExternalFilesDBMS()
        ext.register_csv("t", path, schema)
        first = ext.query(QUERIES[0])
        second = ext.query(QUERIES[0])
        assert list(first) == list(second)
        # No adaptive structure exists, so tokenizing never disappears.
        assert second.metrics.fields_tokenized > 0
        assert second.metrics.bytes_read > 0
