# Developer entry points.  `make verify` is the tier-1 gate: the full
# test suite plus a smoke run of the quickstart example.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test smoke serve serve-smoke serve-sharded sharded-smoke bench \
	bench-concurrent bench-streaming bench-wire \
	bench-tokenizer bench-mv bench-format bench-sharded bench-statistics \
	bench-budget bench-report stress lint oracle verify

test:
	$(PYTHON) -m pytest -x -q

# Static gate: ruff lint (pyflakes + pycodestyle error core) and
# formatting drift, over everything CI lints.  `pip install -r
# requirements-dev.txt` provides ruff.
lint:
	ruff check src tests benchmarks
	ruff format --check src tests benchmarks

smoke:
	$(PYTHON) examples/quickstart.py

# Foreground wire-protocol server over a generated demo table
# (Ctrl-C to stop); point repro.connect("raw://127.0.0.1:5433/") at it.
serve:
	$(PYTHON) -m repro.server --demo --port 5433

# CI gate for the wire path: boots a server, drives a socket client
# (materialized + streamed + abandoned queries) and asserts clean
# shutdown with no leaked cursors, scheduler slots or connections.
serve-smoke:
	$(PYTHON) examples/wire_quickstart.py

# Foreground 2-shard cluster over a generated demo table (Ctrl-C to
# stop); it prints the cluster DSN to hand to repro.connect(...).
serve-sharded:
	$(PYTHON) -m repro.sharding --demo --shards 2

# CI gate for the sharded tier: partitions a table, boots a real
# multi-process cluster, and drives routed + scattered queries through
# the DSN surface, asserting answers match a single-node engine.
sharded-smoke:
	$(PYTHON) examples/sharded_quickstart.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only --import-mode=importlib \
		-o python_files="bench_*.py" -q -s

bench-concurrent:
	$(PYTHON) -m pytest benchmarks/bench_concurrent_throughput.py \
		--benchmark-only --import-mode=importlib -q -s

# Time-to-first-batch + peak-RSS contrast of the streaming query path
# against full materialization on a cold serial scan (asserts both).
bench-streaming:
	$(PYTHON) -m pytest benchmarks/bench_streaming.py \
		--benchmark-only --import-mode=importlib -q -s

# Socket clients vs in-process sessions on one service: qps for both
# paths and per-connection TTFB of streamed results (asserts TTFB <
# materialized latency with 2 concurrent socket clients).
bench-wire:
	$(PYTHON) -m pytest benchmarks/bench_wire_throughput.py \
		--benchmark-only --import-mode=importlib -q -s

# Adaptive aggregate cache: cold / warm-maps / mv-hit / mv-partial qps
# on one table (asserts MV hits >= 5x warm positional maps at full
# scale, MV answers row-identical to raw, accounting balanced).
bench-mv:
	$(PYTHON) -m pytest benchmarks/bench_mv_cache.py \
		--benchmark-only --import-mode=importlib -q -s

# Multi-format scans + vertical persistence: CSV vs JSONL cold/warm qps
# and a selective projection over loaded columnstore columns vs the
# same projection jumping the positional map with VP off (asserts JSONL
# answers row-identical to CSV and the loaded columns win).
bench-format:
	$(PYTHON) -m pytest benchmarks/bench_format_scan.py \
		--benchmark-only --import-mode=importlib -q -s

# The vectorized scan kernel vs the scalar tokenize+parse path on
# wide/narrow/string-heavy shapes; sweeps the dialect over one file
# (unquoted: the kernel; quoted: the RFC-4180 state machine) and
# asserts the kernel wins (>= 3x on wide numeric at full scale).
bench-tokenizer:
	$(PYTHON) -m pytest benchmarks/bench_tokenizer.py \
		--benchmark-only --import-mode=importlib -q -s

# E10, on-the-fly statistics: the join order a skewed star schema
# gets with and without statistics (asserts the informed plan builds on
# the small dimension) and the statistics' share of a cold scan
# (asserts nodb upkeep < 50 % of the query).
bench-statistics:
	$(PYTHON) -m pytest benchmarks/bench_statistics.py \
		--benchmark-only --import-mode=importlib -q -s

# Sharded serving tier: scatter-gather aggregate qps at 1/2/4 shards
# vs one server, routed point-lookup qps, and routed-vs-scattered TTFB
# (asserts 4-shard aggregates >= 1.5x single-node on >= 4 cores).
bench-sharded:
	$(PYTHON) -m pytest benchmarks/bench_sharded.py \
		--benchmark-only --import-mode=importlib -q -s

# The latency budget (BENCHMARK.json's benchmark, all of it): four
# workloads, each untraced (end-to-end metrics) then traced (per-layer
# metrics), a fresh process per pass, every answer checked against a
# numpy oracle; writes the result JSON.  ~3 minutes.
bench-budget:
	$(PYTHON) benchmarks/budget/run.py \
		--out benchmarks/budget/out/BENCH_budget.json

# Where the time goes: only the traced pass of each workload, printing
# its layer x op-class self-time table and per-layer metrics.
bench-report:
	@for w in cold_first_touch warm_mix append_jsonl wire_mix; do \
		$(PYTHON) benchmarks/budget/run.py --workload $$w --trace 1 \
			|| exit 1; \
	done

# Heavier threaded stress run of the concurrent serving layer (with the
# mixed-lane hammer: query() sessions pulling their plans on their own
# threads next to slowly read producer-thread cursors while a writer
# appends) and of the governed tiers under concurrent eviction, grow and
# extend, including columnstore-served streams under cross-table
# eviction and columnstore loads racing evictions and tail extends
# while a writer appends (the tier-1 suite runs the same tests at
# REPRO_STRESS_ROUNDS=2).  `timeout` guards
# against a deadlocked lock/scheduler hanging CI forever.
stress:
	REPRO_STRESS_ROUNDS=10 timeout 600 $(PYTHON) -m pytest \
		tests/integration/test_concurrent_service.py \
		"tests/integration/test_mv_adaptive.py::test_concurrent_aggregate_hammer" \
		"tests/integration/test_append_watermarks.py::test_sessions_hammering_while_the_file_grows_never_miscount" \
		"tests/integration/test_vertical_persistence.py::test_columnstore_streams_under_cross_table_eviction" \
		"tests/integration/test_vertical_persistence.py::test_loads_race_evictions_and_tail_extends" \
		-x -q

# Deep differential run against stdlib sqlite3: every column of the
# oracle (the 2-shard, JSONL, streamed-cursor and loaded ones included) at 250
# examples instead of the tier-1 suite's 25, under a fixed seed so a
# disagreement reproduces; plus, as deep, the CSV scan kernel against the RFC-4180
# state machine (serial and NULL-heavy files, one batch or batches of
# 3 and 7 rows, ragged rows at batch edges), the kernel's INTEGER /
# FLOAT word parsers against int() / float() (0..20 digits, signs,
# dots, stray bytes, fields at a window's edges), the kernel's TEXT
# dictionary encode against the scalar one (multi-byte, NUL-ended,
# outlier-wide and invalid UTF-8), the JSONL kernel against
# parse_record (clean, escaped and malformed windows), on-the-fly
# statistics under any split, order and batch size (3, 7, 4096), and
# the keyed and ordered operators against per-row Python references
# under any batch cuts on both sides: HashJoin, Distinct, GROUP BY keys
# (each group's first row, by repr) and COUNT / SUM / AVG DISTINCT
# against dict / set code, and the Sort property (1-3 ASC / DESC keys
# with NULL, NaN, +-0.0 and ties, under a LIMIT) against Python's
# stable sorted(); and the MV tier against raw answers: exact and
# partial hits, appends folded into entries, eviction and drop, and
# captures and their hits bit for bit (by repr, NULL / NaN / +-0.0 /
# TEXT / empty input, batches of 3, 7 and 4096 rows) with every stored
# column checked against its own raw aggregate.
oracle:
	REPRO_ORACLE_EXAMPLES=250 $(PYTHON) -m pytest \
		tests/property/test_sqlite_oracle.py \
		"tests/property/test_kernel_props.py::test_kernel_scan_equals_scalar_serial" \
		"tests/property/test_kernel_props.py::test_kernel_scan_equals_scalar_null_heavy" \
		"tests/property/test_kernel_props.py::test_convert_span_equals_convert_column" \
		"tests/property/test_kernel_props.py::test_kernel_text_equals_scalar" \
		"tests/property/test_kernel_props.py::test_jsonl_kernel_equals_parse_record" \
		tests/property/test_stats_props.py \
		tests/property/test_keyed_props.py \
		tests/property/test_mv_props.py \
		--hypothesis-seed=29 -x -q

verify: test smoke serve-smoke
