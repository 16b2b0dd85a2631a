"""Specialized vectorized scan kernels (the tokenize+parse hot path).

"Code Generation Techniques for Raw Data Processing" shows that
specializing the scan per (format, schema, accessed-columns) signature
yields multi-fold raw-scan speedups.  This package is that idea applied
to the interpreted inner loops of :mod:`repro.rawio.tokenizer` and
:mod:`repro.datatypes`:

* :class:`ContentBuffer` — one window of raw-file bytes (``frombuffer``
  view, file offset of its first byte, cached delimiter positions);
* :class:`ScanKernel` — per-signature vectorized tokenization (the
  window's delimiter positions, read as a grid of one row per record
  and proved regular, are the offsets matrix) and the positional-map
  jump's field-end computation;
* :mod:`.convert` — batch int64/float64 parsing of whole column slices
  eight digits per word (SWAR) with a null-mask pass, scalar fallback
  for rows failing validation, and TEXT dictionary encoding straight
  from the field bytes;
* :class:`KernelCache` — signature-keyed LRU of built kernels with
  telemetry hit/miss/build-time counters.

:func:`kernel_supported` alone picks the CSV tokenizer: every unquoted
dialect with an ASCII delimiter runs the kernel, and quoted or
non-ASCII-delimited dialects run the RFC-4180 state machine, the one
scalar tokenizer.  It also reads every batch of rows the kernel's grid
does not prove regular (a ragged row, say), so it alone raises the
malformed-row errors.  Results are property-tested identical to it over
quote-free bytes (offsets, texts, error messages and converted values
alike).

* :mod:`.jsonl` — the JSONL kernel, a structural index of a window of
  records (after simdjson).  It accepts windows of at least
  ``MIN_RECORDS`` flat records holding exactly the schema's keys in one
  order, with no backslash and valid UTF-8, and map jumps of at least
  ``MIN_VALUES`` values that need no escape decoding; every other
  window or jump returns ``None`` to the scalar parser of
  :mod:`repro.formats.jsonl`, which the kernel is property-tested
  against (offsets, converted values and errors).
"""

from .cache import KernelCache, process_cache
from .content import ContentBuffer
from .convert import convert_span
from .kernel import (
    KernelRows,
    KernelSignature,
    ScanKernel,
    kernel_supported,
    make_signature,
)

__all__ = [
    "ContentBuffer",
    "KernelCache",
    "KernelRows",
    "KernelSignature",
    "ScanKernel",
    "convert_span",
    "kernel_supported",
    "make_signature",
    "process_cache",
]
