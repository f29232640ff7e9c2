"""Additional pages source formats: JSONL and CSV (Parquet is primary).

The reference reads exactly one format (TSDB block dirs); the Ray engine's
source surface is format-pluggable: any reader that yields the pages schema
``url, warc_ts, html, text, lang`` feeds the same pipeline.  JSONL carries
html base64-encoded (JSON has no binary type); CSV likewise.
"""

from __future__ import annotations

import base64

import pyarrow as pa
import pyarrow.compute as pc

PAGES_COLUMNS = ["url", "warc_ts", "html", "text", "lang"]


def _normalize_pages_batch(batch: pa.Table) -> pa.Table:
    """Decode base64 html, cast warc_ts (epoch ms int or ISO string) to
    timestamp[ms]; passthrough for already-typed columns."""
    cols = {}
    for name in PAGES_COLUMNS:
        col = batch[name]
        if name == "html":
            if pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type):
                cols[name] = pc.cast(col, pa.binary())
            else:
                cols[name] = pa.array(
                    [base64.b64decode(s) if s else b"" for s in col.to_pylist()],
                    pa.binary(),
                )
        elif name == "warc_ts":
            if pa.types.is_timestamp(col.type):
                cols[name] = pc.cast(col, pa.timestamp("ms"))
            elif pa.types.is_integer(col.type):
                cols[name] = pc.cast(col, pa.timestamp("ms"))
            else:
                cols[name] = pc.cast(
                    pc.strptime(pc.cast(col, pa.string()), format="%Y-%m-%dT%H:%M:%S",
                                unit="ms"),
                    pa.timestamp("ms"),
                )
        else:
            cols[name] = pc.fill_null(pc.cast(col, pa.string()), "")
    return pa.table(cols)


def read_pages_jsonl(paths):
    """Pages Dataset from JSONL files (html base64, warc_ts epoch-ms/ISO)."""
    import ray.data

    return ray.data.read_json(paths).map_batches(
        _normalize_pages_batch, batch_format="pyarrow"
    )


def read_pages_csv(paths):
    """Pages Dataset from CSV files (html base64, warc_ts epoch-ms/ISO), rows
    in file order.  Quoted text cells may hold newlines."""
    import pyarrow.csv as pacsv
    import ray.data

    # without newlines_in_values, a file larger than one read block whose
    # quoted cells hold newlines fails: the chunker splits inside a cell
    ds = ray.data.read_csv(paths, parse_options=pacsv.ParseOptions(newlines_in_values=True))
    # Ray splits even one small file's read into several blocks and would
    # hand back their decode tasks' output in completion order
    ds.context.execution_options.preserve_order = True
    return ds.map_batches(_normalize_pages_batch, batch_format="pyarrow")


def write_pages_jsonl(table: pa.Table, path: str) -> None:
    """Helper (tests/tools): write a pages table as JSONL with base64 html."""
    import json

    from ..windows import ts_to_ms

    ts = ts_to_ms(table["warc_ts"]).to_pylist()
    with open(path, "w") as f:
        for i in range(table.num_rows):
            f.write(
                json.dumps(
                    {
                        "url": table["url"][i].as_py(),
                        "warc_ts": ts[i],
                        "html": base64.b64encode(table["html"][i].as_py()).decode(),
                        "text": table["text"][i].as_py(),
                        "lang": table["lang"][i].as_py(),
                    }
                )
                + "\n"
            )


def read_pages_orc(paths):
    """Pages Dataset from ORC files (native binary html / timestamp types
    pass through the same normalizer).  Uses Ray's file-based datasource
    with ``pyarrow.orc`` so stripes parallelize like parquet row groups."""
    import ray.data

    return ray.data.read_binary_files(paths).map_batches(
        _orc_bytes_to_pages, batch_format="pyarrow"
    )


def _orc_bytes_to_pages(batch: pa.Table) -> pa.Table:
    """Decode whole ORC files carried as binary blobs (one row per file).

    Scale note: one task decodes one file — size ORC files like parquet
    parts (100-500 MB).  Ray has no native ORC reader; binary-file read +
    in-task pyarrow.orc decode keeps the source streaming and parallel per
    file without a driver-side pass.
    """
    import io

    import pyarrow.orc as orc

    tables = []
    for blob in batch["bytes"].to_pylist():
        t = orc.ORCFile(io.BytesIO(blob)).read(columns=PAGES_COLUMNS)
        tables.append(_normalize_pages_batch(t))
    if not tables:
        return _normalize_pages_batch(
            pa.table({c: pa.array([], pa.string()) for c in PAGES_COLUMNS})
        )
    return pa.concat_tables(tables)


def write_pages_orc(table: pa.Table, path: str) -> None:
    """Helper (tests/tools): write a pages table as one ORC file."""
    import pyarrow.orc as orc

    orc.write_table(table, path)
