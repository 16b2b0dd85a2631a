"""Config-knob governance: every knob documented, README in sync.

``tools/gen_knob_table.py`` renders the README's knob table from the
``#:`` attribute docstrings on :class:`PostgresRawConfig`; this suite
is the drift gate — adding a knob without regenerating the table (or
without a docstring) fails here, not in review.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

from repro import PostgresRawConfig, generate_csv, uniform_table_spec
from repro.config import knob_docs, knob_table_markdown
from repro.errors import SchemaError, ShardingError
from repro.sharding import ShardCluster

REPO = Path(__file__).resolve().parent.parent.parent

sys.path.insert(0, str(REPO / "tools"))

from gen_knob_table import render  # noqa: E402


def test_every_knob_has_a_docstring():
    docs = knob_docs()
    fields = {f.name for f in dataclasses.fields(PostgresRawConfig)}
    assert {doc["name"] for doc in docs} == fields
    undocumented = [doc["name"] for doc in docs if not doc["doc"]]
    assert not undocumented


def test_readme_knob_table_is_fresh():
    """README.md must equal a fresh render (the --check CI gate)."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert render(readme) == readme, (
        "README.md knob table is stale; run "
        "`PYTHONPATH=src python tools/gen_knob_table.py`"
    )


# ----------------------------------------------------------------------
# Serving settings belong to their components, not to the config.
# ----------------------------------------------------------------------


def test_cluster_needs_at_least_one_shard():
    with pytest.raises(ShardingError, match="at least one shard"):
        ShardCluster(0)


def test_add_table_rejects_unknown_scheme(tmp_path):
    path = tmp_path / "t.csv"
    schema = generate_csv(
        path, uniform_table_spec(n_attrs=2, n_rows=50, seed=1)
    )
    cluster = ShardCluster(2, data_dir=tmp_path / "shards")
    with pytest.raises(SchemaError, match="modulo"):
        cluster.add_table("t", path, key="a0", schema=schema, scheme="modulo")
    cluster.add_table("t", path, key="a0", schema=schema, scheme="range")
