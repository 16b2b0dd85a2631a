"""Adaptive materialized aggregate cache (workload-mined MVs).

NoDB's adaptive auxiliary structures — positional maps, caches,
statistics — all answer "what did past queries touch, and what is worth
keeping to make the next one cheaper?".  This package asks the same
question one level up: which *aggregate results* recur often enough
that storing the finished group-by output beats re-scanning raw files,
with residency governed by the same
:class:`~repro.service.MemoryGovernor` budget as everything else.
"""

from .analyzer import SignatureStats, WorkloadAnalyzer
from .catalog import MaterializedAggregate, MVCatalog, MVMatch, MVRecipe
from .runtime import MVRuntime
from .signature import QuerySignature, extract_signature, normalize_sql

__all__ = [
    "MVCatalog",
    "MVMatch",
    "MVRecipe",
    "MVRuntime",
    "MaterializedAggregate",
    "QuerySignature",
    "SignatureStats",
    "WorkloadAnalyzer",
    "extract_signature",
    "normalize_sql",
]
