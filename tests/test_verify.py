"""Verify-pipeline tests (decode-audit of written tiers)."""

from __future__ import annotations

import pyarrow as pa


def test_verify_tiers_clean(ray_session):
    import ray.data

    from prom_tsdb_copyer_ray.pipelines.copy import build_tiers
    from prom_tsdb_copyer_ray.pipelines.verify import decoded_points, verify_tier_chunks
    from prom_tsdb_copyer_ray.sources.pages import generate_pages

    pages = generate_pages(1200, seed=42)
    tiers = build_tiers(ray.data.from_arrow(pages))
    for t, ds in tiers.items():
        rep = verify_tier_chunks(ds)
        assert rep["bad_rows"] == 0, (t, rep)
        assert rep["rows"] > 0
    pts = decoded_points(tiers["5m"]).to_pandas()
    assert len(pts) > 0
    assert {"series_key", "ts", "value"} <= set(pts.columns)


def test_verify_flags_corruption(ray_session):
    import ray.data

    from prom_tsdb_copyer_ray.pipelines.verify import verify_tier_chunks
    from prom_tsdb_copyer_ray.pipelines.copy import build_tiers
    from prom_tsdb_copyer_ray.sources.pages import generate_pages

    pages = generate_pages(300, seed=42)
    t5 = build_tiers(ray.data.from_arrow(pages), tiers=("5m",))["5m"]
    table = pa.Table.from_pandas(t5.to_pandas())
    # corrupt: claim one more sample than encoded
    import pyarrow.compute as pc

    n = table["n_samples"]
    bumped = pc.add(n, pa.scalar(1, pa.int64()))
    table = table.set_column(table.column_names.index("n_samples"), "n_samples", bumped)
    rep = verify_tier_chunks(ray.data.from_arrow(table))
    assert rep["bad_rows"] == rep["rows"]


def test_verify_flags_truncated_values(ray_session):
    """A 5m chunk whose val_bytes lost its tail must be flagged: the decoder
    may not read past the end of the buffer."""
    import ray.data

    from prom_tsdb_copyer_ray.pipelines.copy import build_tiers
    from prom_tsdb_copyer_ray.pipelines.verify import verify_tier_chunks
    from prom_tsdb_copyer_ray.sources.pages import generate_pages

    pages = generate_pages(300, seed=42)
    t5 = build_tiers(ray.data.from_arrow(pages), tiers=("5m",))["5m"]
    table = pa.Table.from_pandas(t5.to_pandas())
    vals = table["val_bytes"].to_pylist()
    i = next(k for k, n in enumerate(table["n_samples"].to_pylist()) if n >= 2)
    vals[i] = vals[i][: len(vals[i]) // 2]
    table = table.set_column(table.column_names.index("val_bytes"), "val_bytes",
                             pa.array(vals, pa.binary()))
    rep = verify_tier_chunks(ray.data.from_arrow(table))
    assert rep["bad_rows"] == 1, rep
