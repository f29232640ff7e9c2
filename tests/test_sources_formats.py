"""Source-format tests: JSONL pages round-trip into the same pipeline."""

from __future__ import annotations

import os

import pandas as pd

from prom_tsdb_copyer_ray.sources.formats import read_pages_jsonl, write_pages_jsonl
from prom_tsdb_copyer_ray.sources.pages import generate_pages

from oracle import oracle_samples, oracle_tier_raw


def test_jsonl_pages_roundtrip_pipeline(ray_session, tmp_path):
    from prom_tsdb_copyer_ray.pipelines.copy import build_tiers

    pages = generate_pages(500, seed=42)
    path = str(tmp_path / "pages.jsonl")
    write_pages_jsonl(pages, path)

    ds = read_pages_jsonl(path)
    got = build_tiers(ds, tiers=("5m",))["5m"].to_pandas()

    want = oracle_tier_raw(oracle_samples(pages), "5m")
    got = got.sort_values(["series_key", "window_start"]).reset_index(drop=True)
    want = want.sort_values(["series_key", "window_start"]).reset_index(drop=True)
    assert len(got) == len(want)
    pd.testing.assert_series_equal(
        got["agg_sum"], want["agg_sum"].astype(float), check_names=False
    )
    assert (got["series_key"].values == want["series_key"].values).all()


def test_csv_pages_roundtrip_pipeline(ray_session, tmp_path):
    import base64
    import csv as csvmod

    from prom_tsdb_copyer_ray.sources.formats import read_pages_csv
    from prom_tsdb_copyer_ray.windows import ts_to_ms

    pages = generate_pages(200, seed=42)
    path = str(tmp_path / "pages.csv")
    ts = ts_to_ms(pages["warc_ts"]).to_pylist()
    with open(path, "w", newline="") as f:
        w = csvmod.writer(f)
        w.writerow(["url", "warc_ts", "html", "text", "lang"])
        for i in range(pages.num_rows):
            w.writerow(
                [
                    pages["url"][i].as_py(),
                    ts[i],
                    base64.b64encode(pages["html"][i].as_py()).decode(),
                    pages["text"][i].as_py(),
                    pages["lang"][i].as_py(),
                ]
            )
    ds = read_pages_csv(path)
    df = ds.to_pandas()
    assert len(df) == pages.num_rows
    assert bytes(df["html"].iloc[0]) == pages["html"][0].as_py()
    assert df["warc_ts"].astype("datetime64[ms]").astype("int64").tolist() == ts


def test_csv_newlines_in_text_beyond_one_read_block(ray_session, tmp_path):
    """A CSV file larger than one pyarrow read block (~1 MB) whose quoted
    text cells hold newlines reads back row for row."""
    import base64
    import csv as csvmod

    from prom_tsdb_copyer_ray.sources.formats import read_pages_csv
    from prom_tsdb_copyer_ray.windows import ts_to_ms

    pages = generate_pages(6000, seed=42)
    texts = pages["text"].to_pylist()
    assert sum("\n" in t for t in texts) > 100
    path = str(tmp_path / "pages.csv")
    ts = ts_to_ms(pages["warc_ts"]).to_pylist()
    with open(path, "w", newline="") as f:
        w = csvmod.writer(f)
        w.writerow(["url", "warc_ts", "html", "text", "lang"])
        for i in range(pages.num_rows):
            w.writerow([pages["url"][i].as_py(), ts[i],
                        base64.b64encode(pages["html"][i].as_py()).decode(),
                        texts[i], pages["lang"][i].as_py()])
    assert os.path.getsize(path) > 1 << 20

    df = read_pages_csv(path).to_pandas()
    assert df["text"].tolist() == texts
    assert df["url"].tolist() == pages["url"].to_pylist()
    assert df["warc_ts"].astype("datetime64[ms]").astype("int64").tolist() == ts


def test_orc_pages_roundtrip_pipeline(ray_session, tmp_path):
    from prom_tsdb_copyer_ray.pipelines.copy import build_tiers
    from prom_tsdb_copyer_ray.sources.formats import read_pages_orc, write_pages_orc

    pages = generate_pages(500, seed=42)
    # two files -> two parallel decode tasks
    path1 = str(tmp_path / "pages1.orc")
    path2 = str(tmp_path / "pages2.orc")
    write_pages_orc(pages.slice(0, 250), path1)
    write_pages_orc(pages.slice(250), path2)

    ds = read_pages_orc([path1, path2])
    got = build_tiers(ds, tiers=("5m",))["5m"].to_pandas()

    want = oracle_tier_raw(oracle_samples(pages), "5m")
    got = got.sort_values(["series_key", "window_start"]).reset_index(drop=True)
    want = want.sort_values(["series_key", "window_start"]).reset_index(drop=True)
    assert len(got) == len(want)
    pd.testing.assert_series_equal(
        got["agg_sum"], want["agg_sum"].astype(float), check_names=False
    )
    assert (got["series_key"].values == want["series_key"].values).all()
