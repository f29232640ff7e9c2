"""Histogram-valued series tests (reference's 3-way type switch parity)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from prom_tsdb_copyer_ray.stages.histograms import (
    UnsupportedValueTypeError,
    histogram_quantile,
    rollup_histograms,
    route_samples,
)

BASE = 1_704_067_200_000
LES = [0.1, 0.5, 1.0, float("inf")]


def _hist_samples():
    # series A: three samples in window 0, one in window 1; series B: one
    rows = []
    for i, ts in enumerate([BASE + 1_000, BASE + 90_000, BASE + 200_000, BASE + 310_000]):
        c = 10 * (i + 1)
        rows.append(("A", ts, c, 1.5 * c, [c * 0.2, c * 0.6, c * 0.9, float(c)]))
    rows.append(("B", BASE + 5_000, 7, 3.5, [1.0, 4.0, 6.0, 7.0]))
    # duplicate (series, ts) — dedup keep-first
    rows.append(("B", BASE + 5_000, 999, 999.0, [999.0, 999.0, 999.0, 999.0]))
    return pa.table(
        {
            "series_key": pa.array([r[0] for r in rows], pa.string()),
            "ts": pa.array([r[1] for r in rows], pa.int64()),
            "h_count": pa.array([r[2] for r in rows], pa.int64()),
            "h_sum": pa.array([r[3] for r in rows], pa.float64()),
            "h_buckets": pa.array([r[4] for r in rows], pa.list_(pa.float64())),
        }
    )


def test_rollup_histograms_last_per_window(ray_session):
    import ray.data

    out = (
        rollup_histograms(ray.data.from_arrow(_hist_samples()), "5m")
        .to_pandas()
        .sort_values(["series_key", "window_start"])
        .reset_index(drop=True)
    )
    a = out[out["series_key"] == "A"]
    assert len(a) == 2  # two 5m windows
    w0 = a.iloc[0]
    assert w0["n_samples"] == 3 and w0["h_count"] == 30  # last of the 3
    assert w0["min_ts"] == BASE + 1_000 and w0["max_ts"] == BASE + 200_000
    w1 = a.iloc[1]
    assert w1["n_samples"] == 1 and w1["h_count"] == 40
    b = out[out["series_key"] == "B"].iloc[0]
    assert b["n_samples"] == 1 and b["h_count"] == 7  # dup deduped keep-first


def test_rollup_histograms_merges_upward(ray_session):
    import ray.data

    t5 = rollup_histograms(ray.data.from_arrow(_hist_samples()), "5m")
    # re-apply at 1h over the 5m rows (ts := window max_ts carries last-ness)
    t5_as_samples = t5.map_batches(
        lambda b: pa.table(
            {
                "series_key": b["series_key"],
                "ts": b["max_ts"],
                "h_count": b["h_count"],
                "h_sum": b["h_sum"],
                "h_buckets": b["h_buckets"],
            }
        ),
        batch_format="pyarrow",
    )
    t1h = rollup_histograms(t5_as_samples, "1h").to_pandas()
    a = t1h[t1h["series_key"] == "A"].iloc[0]
    assert a["h_count"] == 40  # last-of-lasts


def test_route_samples_and_unsupported_type(ray_session):
    import ray.data

    t = pa.table(
        {
            "value_type": pa.array(
                ["float", "histogram", "float", "float_histogram"], pa.string()
            ),
            "x": pa.array([1, 2, 3, 4], pa.int64()),
        }
    )
    routed = route_samples(ray.data.from_arrow(t))
    assert routed["float"].count() == 2
    assert routed["histogram"].count() == 1
    assert routed["float_histogram"].count() == 1

    bad = pa.table({"value_type": pa.array(["summary"], pa.string()), "x": pa.array([1], pa.int64())})
    with pytest.raises(Exception) as ei:
        route_samples(ray.data.from_arrow(bad))["float"].count()
    assert "不支持的数据格式" in str(ei.value) or "UnsupportedValueType" in str(ei.value)


def test_hist_dedup_tiebreak_order_independent(ray_session):
    """Duplicate (series, ts) with different payloads: the kept sample is the
    min-(h_count, h_sum, bucket-hash) one, independent of input/block order."""
    import ray.data

    rows = [
        ("S", BASE + 1_000, 50, 25.0, [10.0, 30.0, 45.0, 50.0]),
        ("S", BASE + 1_000, 7, 3.5, [1.0, 4.0, 6.0, 7.0]),
        ("S", BASE + 1_000, 7, 2.0, [1.0, 4.0, 6.0, 7.0]),
    ]

    def tbl(order):
        rs = [rows[i] for i in order]
        return pa.table(
            {
                "series_key": pa.array([r[0] for r in rs], pa.string()),
                "ts": pa.array([r[1] for r in rs], pa.int64()),
                "h_count": pa.array([r[2] for r in rs], pa.int64()),
                "h_sum": pa.array([r[3] for r in rs], pa.float64()),
                "h_buckets": pa.array([r[4] for r in rs], pa.list_(pa.float64())),
            }
        )

    outs = []
    for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
        out = rollup_histograms(ray.data.from_arrow(tbl(order)), "5m").to_pandas()
        assert len(out) == 1
        outs.append((out["h_count"][0], out["h_sum"][0]))
    assert outs[0] == outs[1] == outs[2] == (7, 2.0)


def test_hist_bucket_chunk_roundtrip_both_types():
    """Golden round-trip: int-dod (histogram) and Gorilla (float_histogram)
    bucket chunks decode back bit-exact (the float tiers' parity)."""
    from prom_tsdb_copyer_ray.stages.histograms import (
        decode_hist_buckets,
        encode_hist_buckets_many,
    )

    rows = [
        [0.0, 5.0, 17.0, 17.0, 42.0],
        [1.0],
        [],
        [3.0, 3.0, 3.0, 1000000.0],
    ]
    flat = np.concatenate([np.asarray(r, np.float64) for r in rows])
    offs = np.cumsum([0] + [len(r) for r in rows])
    for vt in ("histogram", "float_histogram"):
        bufs = encode_hist_buckets_many(flat, offs, vt)
        for r, buf in zip(rows, bufs):
            out = decode_hist_buckets(buf, len(r), vt)
            np.testing.assert_array_equal(out, np.asarray(r, np.float64))
    # float counts round-trip only through the float codec
    fr = [[0.5, 2.25, 7.125]]
    fflat = np.asarray(fr[0], np.float64)
    foffs = np.array([0, 3])
    buf = encode_hist_buckets_many(fflat, foffs, "float_histogram")[0]
    np.testing.assert_array_equal(decode_hist_buckets(buf, 3, "float_histogram"), fflat)


def test_hist_int_codec_rejects_float_counts():
    from prom_tsdb_copyer_ray.stages.histograms import encode_hist_buckets_many

    with pytest.raises(UnsupportedValueTypeError):
        encode_hist_buckets_many(np.array([0.5, 1.5]), np.array([0, 2]), "histogram")
    with pytest.raises(UnsupportedValueTypeError):
        encode_hist_buckets_many(np.array([1.0]), np.array([0, 1]), "summary")


def test_rollup_histograms_emits_encoded_buckets(ray_session):
    """Tier rows carry h_buckets_bytes/n_buckets that decode to the list
    column, for both value types."""
    import ray.data

    from prom_tsdb_copyer_ray.stages.histograms import decode_hist_buckets

    for vt in ("histogram", "float_histogram"):
        out = rollup_histograms(
            ray.data.from_arrow(_hist_samples()), "5m", value_type=vt
        ).to_pandas()
        assert (out["value_type"] == vt).all()
        for _, row in out.iterrows():
            dec = decode_hist_buckets(row["h_buckets_bytes"], row["n_buckets"], vt)
            np.testing.assert_array_equal(dec, np.asarray(row["h_buckets"], np.float64))


def test_rollup_histograms_int_type_rejects_float_buckets(ray_session):
    import ray.data

    t = pa.table(
        {
            "series_key": pa.array(["A"], pa.string()),
            "ts": pa.array([BASE], pa.int64()),
            "h_count": pa.array([1], pa.int64()),
            "h_sum": pa.array([0.5], pa.float64()),
            "h_buckets": pa.array([[0.5, 1.0]], pa.list_(pa.float64())),
        }
    )
    with pytest.raises(Exception) as ei:
        rollup_histograms(ray.data.from_arrow(t), "5m", value_type="histogram").to_pandas()
    assert "不支持的数据格式" in str(ei.value) or "integral" in str(ei.value)


def test_run_copy_samples_mixed_types(ray_session, tmp_path):
    """Orchestrator-level 3-type routing: one mixed samples Dataset ->
    float 5m/1h/1d chunk tiers + per-type histogram tiers, all manifested;
    unknown types abort (reference copyer.go:108-127 switch semantics)."""
    import ray.data

    from prom_tsdb_copyer_ray.pipelines.copy import run_copy_samples
    from prom_tsdb_copyer_ray.state.manifest import read_tier

    n = 200
    rows = {
        "series_key": [], "ts": [], "value_type": [], "value": [],
        "h_count": [], "h_sum": [], "h_buckets": [],
    }
    for i in range(n):
        ts = BASE + i * 60_000
        if i % 3 == 0:
            rows["series_key"].append("f1"); rows["value_type"].append("float")
            rows["value"].append(float(i)); rows["h_count"].append(None)
            rows["h_sum"].append(None); rows["h_buckets"].append(None)
        elif i % 3 == 1:
            rows["series_key"].append("h1"); rows["value_type"].append("histogram")
            rows["value"].append(None); rows["h_count"].append(i)
            rows["h_sum"].append(1.5 * i); rows["h_buckets"].append([float(i // 2), float(i)])
        else:
            rows["series_key"].append("fh1"); rows["value_type"].append("float_histogram")
            rows["value"].append(None); rows["h_count"].append(i)
            rows["h_sum"].append(0.5 * i); rows["h_buckets"].append([i * 0.25, i * 0.5])
        rows["ts"].append(ts)
    t = pa.table(
        {
            "series_key": pa.array(rows["series_key"], pa.string()),
            "ts": pa.array(rows["ts"], pa.int64()),
            "value_type": pa.array(rows["value_type"], pa.string()),
            "value": pa.array(rows["value"], pa.float64()),
            "h_count": pa.array(rows["h_count"], pa.int64()),
            "h_sum": pa.array(rows["h_sum"], pa.float64()),
            "h_buckets": pa.array(rows["h_buckets"], pa.list_(pa.float64())),
        }
    )
    out = str(tmp_path / "mixed")
    manifests = run_copy_samples(ray.data.from_arrow(t), out)
    for key in ("5m", "1h", "1d", "histogram_5m", "histogram_1h", "histogram_1d",
                "float_histogram_5m", "float_histogram_1h", "float_histogram_1d"):
        assert manifests[key]["status"] == "complete", key
        assert read_tier(out, key).count() > 0, key
    # float tier: only the float series made it
    f5 = read_tier(out, "5m").to_pandas()
    assert set(f5["series_key"]) == {"f1"}
    # histogram tiers: int path kept integral buckets, 1d is last-of-lasts
    h1d = read_tier(out, "histogram_1d").to_pandas()
    assert len(h1d) == 1 and h1d["h_count"][0] == 199
    fh1d = read_tier(out, "float_histogram_1d").to_pandas()
    assert len(fh1d) == 1 and abs(fh1d["h_sum"][0] - 0.5 * 197) < 1e-12

    bad = t.set_column(
        t.column_names.index("value_type"),
        "value_type",
        pa.array(["summary"] * n, pa.string()),
    )
    with pytest.raises(Exception) as ei:
        run_copy_samples(ray.data.from_arrow(bad), str(tmp_path / "bad"))
    assert "不支持的数据格式" in str(ei.value)


def test_run_copy_samples_executes_its_input_once(ray_session, tmp_path):
    """The three value types are split from ONE execution of the input: a
    counting upstream ``map_batches`` over a one-block input runs once."""
    import ray.data

    from prom_tsdb_copyer_ray.pipelines.copy import run_copy_samples

    t = pa.table({
        "series_key": pa.array(["f", "h", "fh"], pa.string()),
        "ts": pa.array([BASE, BASE + 1, BASE + 2], pa.int64()),
        "value_type": pa.array(["float", "histogram", "float_histogram"], pa.string()),
        "value": pa.array([1.0, None, None], pa.float64()),
        "h_count": pa.array([None, 3, 4], pa.int64()),
        "h_sum": pa.array([None, 1.5, 2.0], pa.float64()),
        "h_buckets": pa.array([None, [1.0, 3.0], [2.0, 4.0]], pa.list_(pa.float64())),
    })
    log = str(tmp_path / "calls")

    def counting(batch):
        with open(log, "a") as f:
            f.write("call\n")
        return batch

    upstream = ray.data.from_arrow(t).map_batches(counting, batch_format="pyarrow")
    manifests = run_copy_samples(upstream, str(tmp_path / "out"))
    assert {"5m", "histogram_5m", "float_histogram_5m"} <= set(manifests)
    with open(log) as f:
        assert f.read().count("call") == 1


def test_histogram_quantile():
    t = pa.table(
        {
            "h_buckets": pa.array([[20.0, 60.0, 90.0, 100.0]], pa.list_(pa.float64())),
        }
    )
    out = histogram_quantile(t, 0.5, LES)
    # rank 50 lands in bucket (0.1, 0.5]: 20 + 30/40 through -> 0.1 + 0.4*0.75
    assert abs(out["q0.5"][0].as_py() - (0.1 + 0.4 * ((50 - 20) / 40))) < 1e-12


def test_histogram_quantile_cols_matches_rowwise():
    """Vectorized column kernel agrees with the per-row list-column walker
    on random cumulative histograms (incl. empty and inf-bucket ranks)."""
    import numpy as np

    from prom_tsdb_copyer_ray.stages.histograms import (
        histogram_quantile,
        histogram_quantile_cols,
    )

    rng = np.random.default_rng(3)
    les = [50.0, 100.0, 200.0]
    n = 200
    raw = rng.integers(0, 30, size=(n, 4))
    raw[0] = 0  # empty histogram
    raw[1] = [0, 0, 0, 5]  # all mass in +Inf
    cum = np.cumsum(raw, axis=1)
    t_cols = pa.table({
        "le_50": pa.array(cum[:, 0], pa.int64()),
        "le_100": pa.array(cum[:, 1], pa.int64()),
        "le_200": pa.array(cum[:, 2], pa.int64()),
        "le_inf": pa.array(cum[:, 3], pa.int64()),
    })
    t_list = pa.table({
        "h_buckets": pa.array([list(map(float, row)) for row in cum],
                              pa.list_(pa.float64())),
    })
    for q in (0.1, 0.5, 0.9, 0.99):
        got = histogram_quantile_cols(
            t_cols, q, les, ["le_50", "le_100", "le_200"], "le_inf", out_col="qv"
        )["qv"].to_numpy(zero_copy_only=False)
        want = histogram_quantile(t_list, q, les + [float("inf")])[
            f"q{q}"
        ].to_numpy(zero_copy_only=False)
        np.testing.assert_allclose(got, want, rtol=1e-12, equal_nan=True)
