"""prom_tsdb_copyer_ray — a Ray-Data-native time-series rollup + downsample +
retention engine.

Re-expresses the capabilities of the reference engine (BoringCat/prom-tsdb-copyer,
a Go TSDB-block copier; see SURVEY.md for the file:line operator inventory) as a
block-format-free Ray Data pipeline over Parquet tables of Common-Crawl-style web
pages:

    read_parquet(pages)
      -> map_batches(extraction task pool)        # html -> text, derive samples
      -> matcher filter / relabel Arrow kernels   # copyer.go:91-105 semantics
      -> one hash-shard exchange on (group window, series shard), or one
         task for a small input; per group the tier cascade builds 5m
         chunks (dod/Gorilla encode) and merges them into 1h and 1d
         (partial+final merge, gap-filled)
      -> one Datasink write of every tier + lineage manifests (resumable)

Nothing is copied from the reference; all chunk codecs (delta-of-delta
timestamps, Gorilla XOR floats) are built from scratch on the published
Gorilla paper scheme (Pelkonen et al., VLDB 2015).
"""

__version__ = "0.1.0"
