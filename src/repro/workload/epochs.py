"""Epoch-based exploratory workloads (paper §4.2, Query Adaptation).

"we use simple Select-Project queries that are organized into epochs.
The queries within each epoch refer to a specific part of the input data
file, representing their exploratory behavior.  As the workload evolves,
new access patterns are observed, new combinations of attributes are
indexed or cached and old information may no longer be relevant and will
be evicted."

An :class:`EpochWorkload` slides an attribute window across the schema:
epoch ``k`` draws all its projections and filters from window ``k``.
Replaying it against PostgresRaw shows latency dropping within an epoch
(structures warm up), spiking at each boundary (new attributes, cold),
and the memory governor evicting the previous epoch's chunks/columns
when the budget is tight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..catalog.schema import TableSchema
from ..errors import SchemaError
from .queries import QuerySpec


@dataclass(frozen=True)
class Epoch:
    """One phase of the exploratory workload."""

    index: int
    attributes: tuple[str, ...]
    queries: tuple[QuerySpec, ...]


@dataclass
class EpochWorkload:
    """Sliding-window Select-Project epochs over one table."""

    table: str
    schema: TableSchema
    n_epochs: int = 4
    queries_per_epoch: int = 6
    window_width: int = 3
    projection_width: int = 2
    selectivity: float = 0.2
    value_low: int = 0
    value_high: int = 1_000_000
    seed: int = 99

    def __post_init__(self) -> None:
        if self.window_width > len(self.schema):
            raise SchemaError(
                f"window_width {self.window_width} exceeds schema width "
                f"{len(self.schema)}"
            )
        if self.projection_width > self.window_width:
            raise SchemaError("projection_width must fit in the window")

    def epochs(self) -> list[Epoch]:
        rng = np.random.default_rng(self.seed)
        names = self.schema.names()
        n_attrs = len(names)
        epochs = []
        for e in range(self.n_epochs):
            # Slide the window; wrap around for long workloads.
            start = (e * self.window_width) % max(
                n_attrs - self.window_width + 1, 1
            )
            window = names[start : start + self.window_width]
            queries = []
            for __ in range(self.queries_per_epoch):
                projection = rng.choice(
                    len(window), size=self.projection_width, replace=False
                )
                filter_name = window[int(rng.integers(0, len(window)))]
                span = int(
                    (self.value_high - self.value_low) * self.selectivity
                )
                low = int(
                    rng.integers(
                        self.value_low, max(self.value_high - span, 1)
                    )
                )
                queries.append(
                    QuerySpec(
                        table=self.table,
                        projection=tuple(
                            window[i] for i in sorted(projection)
                        ),
                        filter_column=filter_name,
                        low=low,
                        high=low + span,
                    )
                )
            epochs.append(Epoch(e, tuple(window), tuple(queries)))
        return epochs

    def flat_queries(self) -> list[tuple[int, QuerySpec]]:
        """(epoch index, query) pairs in replay order."""
        return [
            (epoch.index, query)
            for epoch in self.epochs()
            for query in epoch.queries
        ]
