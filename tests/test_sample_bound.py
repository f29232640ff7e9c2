"""The facts behind ``run_copy``'s sample bound: pages' footer rows times
``SAMPLES_PER_PAGE`` bound the samples the rollup receives, because the
extractor emits exactly that many rows per page in every validate mode and
the matcher and relabel kernels never add rows."""

from __future__ import annotations

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prom_tsdb_copyer_ray.functions.matchers import EQ, NEQ, NRE, RE, Matcher, make_filter_fn
from prom_tsdb_copyer_ray.functions.relabel import make_relabel_fn
from prom_tsdb_copyer_ray.sources.pages import generate_pages
from prom_tsdb_copyer_ray.stages.extract import (
    PAGE_METRICS,
    SAMPLE_LABELS,
    SAMPLES_PER_PAGE,
    PageToSamples,
)

PAGES = generate_pages(300, seed=21)


@pytest.mark.parametrize("validate", ["strict", "count", "off"])
@pytest.mark.parametrize("n", [0, 1, 300])
def test_extractor_emits_samples_per_page_rows(validate, n):
    pages = PAGES.slice(0, n)
    if validate != "strict" and n:
        # a page whose text column disagrees: counted or ignored, never dropped
        text = pages["text"].to_pylist()
        text[0] = "not the page text"
        pages = pages.set_column(pages.column_names.index("text"), "text",
                                 pa.array(text, pages["text"].type))
    out = PageToSamples(validate)(pages)
    assert out.num_rows == n * SAMPLES_PER_PAGE
    names = out["__name__"].to_pylist()
    for m in PAGE_METRICS:
        assert names.count(m) == n


_SAMPLES = PageToSamples("off")(PAGES)
_VALUES = ["", "crawl_rate", "page_size_bytes", "en", ".*", "crawl.*", "d[0-9]+.*", "zz"]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.builds(Matcher, st.sampled_from([EQ, NEQ, RE, NRE]),
                       st.sampled_from([*SAMPLE_LABELS, "missing"]),
                       st.sampled_from(_VALUES)), max_size=3),
    st.dictionaries(st.sampled_from([*SAMPLE_LABELS, "env", "job"]),
                    st.sampled_from(["", "prod", "x"]), max_size=3),
)
def test_matchers_and_relabels_never_add_rows(matchers, relabels):
    filtered = make_filter_fn(matchers)(_SAMPLES)
    assert filtered.num_rows <= _SAMPLES.num_rows
    relabeled = make_relabel_fn(relabels, SAMPLE_LABELS)(filtered)
    assert relabeled.num_rows == filtered.num_rows
