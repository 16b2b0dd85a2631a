"""Shape assertions for the paper's headline claims.

These tests assert *relative* behaviour (who wins, what dominates, what
vanishes), never absolute times, so they are robust to machine speed.
Each maps to an experiment in DESIGN.md §3.
"""

import pytest

from repro import (
    CsvDialect,
    PostgresRaw,
    PostgresRawConfig,
    generate_csv,
    uniform_table_spec,
)
from repro.rawio.dialect import DEFAULT_DIALECT
from repro.baselines import ConventionalDBMS, POSTGRESQL
from repro.workload import (
    ConventionalContestant,
    FriendlyRace,
    PostgresRawContestant,
    RandomSelectProjectWorkload,
)


#: The generator's dialect with a quote character: the file holds no
#: quotes, so it reads the same fields through the scalar state machine.
QUOTED = CsvDialect(quote_char='"')


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("claims") / "t.csv"
    schema = generate_csv(path, uniform_table_spec(10, 20_000, seed=13))
    return path, schema


class TestFigure3Shape:
    """E2: the execution-breakdown relationships."""

    def test_cold_in_situ_query_dominated_by_tokenizing(self, dataset):
        # Figure 3's shape is a claim about the *interpreted* raw-file
        # cost model.  The quoted dialect over the same quote-free file
        # runs the scalar state machine — that cost model, on a path
        # users run; the vectorized kernels exist precisely to collapse
        # this tokenizing wall (test_scan_kernel_collapses_tokenizing).
        path, schema = dataset
        eng = PostgresRaw()
        eng.register_csv("t", path, schema, QUOTED)
        metrics = eng.query("SELECT a0, a7 FROM t WHERE a3 < 200000").metrics
        buckets = metrics.component_seconds()
        assert buckets["tokenizing"] == max(buckets.values())

    def test_scan_kernel_collapses_tokenizing(self, dataset):
        # The counterpart claim: the unquoted dialect runs the
        # vectorized kernel, and cold-scan tokenizing drops well below
        # the state machine's over the same bytes.
        path, schema = dataset
        q = "SELECT a0, a7 FROM t WHERE a3 < 200000"
        times = {}
        for dialect in (DEFAULT_DIALECT, QUOTED):
            eng = PostgresRaw()
            eng.register_csv("t", path, schema, dialect)
            times[dialect] = eng.query(q).metrics.tokenizing_seconds
        assert times[DEFAULT_DIALECT] < times[QUOTED] / 2

    def test_warm_postgresraw_beats_baseline(self, dataset):
        # Another interpreted-cost-model claim: the adaptive structures
        # beat re-tokenizing because tokenizing is expensive.  The scan
        # kernel shrinks the baseline's re-tokenizing cost too, so the
        # paper's 2x margin is asserted with both engines on the
        # quoted dialect's state machine.
        path, schema = dataset
        raw = PostgresRaw()
        raw.register_csv("t", path, schema, QUOTED)
        baseline = PostgresRaw(PostgresRawConfig.baseline())
        baseline.register_csv("t", path, schema, QUOTED)
        q = "SELECT a0, a7 FROM t WHERE a3 < 200000"
        raw.query(q)  # warm up
        # Best of five per engine: one stalled run must not decide it.
        warm = min(raw.query(q).metrics.total_seconds for __ in range(5))
        base = min(
            baseline.query(q).metrics.total_seconds for __ in range(5)
        )
        assert warm < base / 2  # paper shows ~order-of-magnitude

    def test_nodb_overhead_is_minor(self, dataset):
        path, schema = dataset
        eng = PostgresRaw()
        eng.register_csv("t", path, schema)
        metrics = eng.query("SELECT a1, a8 FROM t WHERE a4 < 500000").metrics
        assert metrics.nodb_seconds < 0.5 * metrics.total_seconds

    def test_loaded_dbms_query_has_no_raw_overheads(self, dataset, tmp_path):
        path, schema = dataset
        db = ConventionalDBMS(POSTGRESQL, storage_dir=tmp_path)
        db.load_csv("t", path, schema)
        metrics = db.query("SELECT a0, a7 FROM t WHERE a3 < 200000").metrics
        assert metrics.tokenizing_seconds == 0
        assert metrics.parsing_seconds == 0


class TestAdaptationCurve:
    """E9: response times improve as a side effect of queries."""

    def test_latency_improves_to_steady_state(self, dataset):
        path, schema = dataset
        eng = PostgresRaw()
        eng.register_csv("t", path, schema)
        workload = RandomSelectProjectWorkload(
            "t", schema, projection_width=2, seed=29
        )
        times = [
            eng.query(spec.to_sql()).metrics.total_seconds
            for spec in workload.queries(12)
        ]
        assert min(times[4:]) < times[0]
        assert sum(times[6:]) / 6 < times[0]


class TestFriendlyRaceShape:
    """E5: data-to-query time and the initialization gap."""

    def test_postgresraw_first_answer_beats_conventional(self, dataset):
        path, schema = dataset
        queries = RandomSelectProjectWorkload("t", schema, seed=9).queries(5)
        race = FriendlyRace("t", path, schema)
        report = race.run(
            [
                PostgresRawContestant(),
                ConventionalContestant(POSTGRESQL),
            ],
            queries,
        )
        lanes = {lane.name: lane for lane in report.lanes}
        raw_lane = lanes["PostgresRaw"]
        pg_lane = lanes["PostgreSQL"]
        # Zero initialization vs load-everything-first.
        assert raw_lane.init_seconds < 0.05
        assert pg_lane.init_seconds > raw_lane.init_seconds * 10
        assert raw_lane.data_to_query_seconds < pg_lane.data_to_query_seconds

    def test_postgresraw_answers_queries_before_load_finishes(self, dataset):
        path, schema = dataset
        queries = RandomSelectProjectWorkload("t", schema, seed=9).queries(5)
        race = FriendlyRace("t", path, schema)
        report = race.run(
            [PostgresRawContestant(), ConventionalContestant(POSTGRESQL)],
            queries,
        )
        lanes = {lane.name: lane for lane in report.lanes}
        load_done = lanes["PostgreSQL"].init_seconds
        # "PostgresRaw has already answered a number of queries while the
        # traditional DBMS have not yet started processing the first."
        assert lanes["PostgresRaw"].answered_by(load_done) >= 1

    def test_individual_warm_queries_may_favor_conventional(self, dataset):
        """The honest flip side the paper concedes: after loading, a
        conventional system's per-query time can beat in-situ."""
        path, schema = dataset
        queries = RandomSelectProjectWorkload("t", schema, seed=9).queries(6)
        race = FriendlyRace("t", path, schema)
        report = race.run(
            [PostgresRawContestant(), ConventionalContestant(POSTGRESQL)],
            queries,
        )
        lanes = {lane.name: lane for lane in report.lanes}
        # Not asserting who wins each query — only that the conventional
        # lane executes queries (post-init) competitively: its average
        # per-query time must be within 10x of warm PostgresRaw.
        raw_avg = sum(lanes["PostgresRaw"].query_seconds[2:]) / 4
        pg_avg = sum(lanes["PostgreSQL"].query_seconds[2:]) / 4
        assert pg_avg < raw_avg * 10


class TestAblationShape:
    """E6: each adaptive component contributes."""

    def test_pm_only_removes_tokenizing_keeps_convert(self, dataset):
        path, schema = dataset
        eng = PostgresRaw(PostgresRawConfig.pm_only())
        eng.register_csv("t", path, schema)
        q = "SELECT a5 FROM t"
        eng.query(q)
        warm = eng.query(q).metrics
        assert warm.fields_tokenized == 0
        assert warm.convert_seconds > 0  # no cache: must reconvert

    def test_cache_only_removes_everything_for_hot_attrs(self, dataset):
        path, schema = dataset
        eng = PostgresRaw(PostgresRawConfig.cache_only())
        eng.register_csv("t", path, schema)
        q = "SELECT a5 FROM t"
        eng.query(q)
        warm = eng.query(q).metrics
        assert warm.convert_seconds == 0
        assert warm.cache_hits > 0

    def test_full_system_fastest_warm(self, dataset):
        path, schema = dataset
        q = "SELECT a2, a6 FROM t WHERE a4 < 300000"

        def warm_time(config):
            eng = PostgresRaw(config)
            eng.register_csv("t", path, schema)
            eng.query(q)
            eng.query(q)
            return eng.query(q).metrics.total_seconds

        full = warm_time(PostgresRawConfig())
        baseline = warm_time(PostgresRawConfig.baseline())
        assert full < baseline
