"""Text-analysis stages over a documents table (training-data pipeline).

Language-ID, quality scoring, token counting, fingerprinting — each a
vectorized or actor-pool ``map_batches`` stage over ``(doc_id, text, ...)``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import poly_hash_column
from ..functions.text import WORD_RE, LangIdModel, quality_counts
from .common import shard_apply

# Gate instrumentation for the vocabulary broadcast-vs-sharded paths
# (tfidf_topk / unigram_logprob / bigram_logprob).  Tests read this to
# prove the driver never held more vocabulary rows than the cap:
# {"op": str, "path": "broadcast"|"sharded", "driver_vocab_rows": int}.
LAST_RUN_INFO: dict = {}

# Default cap on vocabulary rows the driver may collect + ray.put as a
# broadcast model.  Below it the one-hop broadcast wins (a few MB —
# every realistic curated-corpus vocabulary); above it (web-scale raw
# text: 1e8-1e9 distinct typo/URL "terms") the scoring switches to a
# co-partitioned shuffle join and the driver holds ZERO vocab rows.
MAX_BROADCAST_TERMS = 2_000_000


def _co_lookup(rows_ds, lookup_ds, payload_fields, value_fields,
               post=None):
    """Co-partitioned lookup join keyed on a ``_jk`` string column.

    ``rows_ds``: Dataset with columns ``_jk`` + payload_fields;
    ``lookup_ds``: Dataset with ``_jk`` + value_fields (unique ``_jk``).
    Both sides are tagged, padded to a common schema, hash-exchanged on
    ``_jk`` so that equal keys land in one shard, and joined inside the
    shard task with one ``pc.index_in`` — the scalable escalation of the
    driver-broadcast model (nothing is ever materialized driver-side).
    Rows without a lookup match are dropped (inner semantics).
    ``post(table)`` optionally folds each joined shard table (e.g. local
    top-k, per-doc partial sums) before it leaves the task.
    """
    fields = ([("_jk", pa.string()), ("_side", pa.int64())]
              + list(payload_fields) + list(value_fields))

    def pad(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            cols = {}
            for name, typ in fields:
                if name == "_side":
                    cols[name] = pa.array(np.full(n, side, np.int64))
                elif name in batch.column_names:
                    col = batch[name]
                    cols[name] = (pc.cast(col, typ)
                                  if col.type != typ else col)
                else:
                    cols[name] = pa.nulls(n, typ)
            return pa.table(cols)
        return fn

    out_names = ([n for n, _ in payload_fields]
                 + [n for n, _ in value_fields])

    def per_shard(t: pa.Table) -> pa.Table:
        side = t["_side"].to_numpy(zero_copy_only=False)
        lk = t.filter(pa.array(side == 0))
        rw = t.filter(pa.array(side == 1))
        empty = pa.table({n: pa.array([], typ) for n, typ in fields
                          if n not in ("_jk", "_side")})
        if rw.num_rows == 0 or lk.num_rows == 0:
            return post(empty) if post is not None else empty
        keys = lk["_jk"].combine_chunks() \
            if isinstance(lk["_jk"], pa.ChunkedArray) else lk["_jk"]
        idx = pc.index_in(rw["_jk"], value_set=keys)
        hit = pc.is_valid(idx)
        rw = rw.filter(hit)
        idx = idx.filter(hit)
        cols = {}
        for name, _typ in payload_fields:
            cols[name] = rw[name]
        for name, _typ in value_fields:
            cols[name] = lk[name].take(idx)
        joined = pa.table(cols)
        return post(joined) if post is not None else joined

    return shard_apply([rows_ds.map_batches(pad(1), batch_format="pyarrow"),
                        lookup_ds.map_batches(pad(0), batch_format="pyarrow")],
                       ["_jk"], per_shard)


def add_quality_counts(ds, text_col: str = "text"):
    """Vectorized quality raw counts (chars/alpha/digit/space/tokens)."""
    return ds.map_batches(
        lambda b: quality_counts(b, text_col), batch_format="pyarrow"
    )


class LangIdStage:
    """Actor-pool stage: add ``pred_lang`` (heuristic model built per actor)."""

    def __init__(self, text_col: str = "text") -> None:
        self.model = LangIdModel()
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        preds = self.model.predict_batch(batch[self.text_col])
        return batch.append_column("pred_lang", preds)


_LANGID_SINGLETON: dict[str, LangIdStage] = {}


def add_lang_id(ds, text_col: str = "text", concurrency=(1, 8),
                use_actors: bool = False):
    """Language-ID stage.  Default: task pool with a per-worker-process
    singleton model (same setup-once semantics as an actor ``__init__``,
    none of the actor-pool admission latency — the pattern
    pipelines/copy.py uses for extraction; the model here is one compiled
    regex + five frozensets, so process start dominated the stage wall
    time).  ``use_actors=True`` keeps the explicit actor-pool form for
    parity with heavyweight models."""
    if use_actors:
        return ds.map_batches(
            LangIdStage, fn_constructor_kwargs={"text_col": text_col},
            batch_format="pyarrow", concurrency=concurrency,
        )

    def fn(batch: pa.Table) -> pa.Table:
        stage = _LANGID_SINGLETON.get(text_col)
        if stage is None:
            stage = _LANGID_SINGLETON[text_col] = LangIdStage(text_col)
        return stage(batch)

    return ds.map_batches(fn, batch_format="pyarrow")


def term_document_frequency(ds, text_col: str = "text", top_n: int = 100):
    """Top-N vocabulary terms by document frequency (df).

    Terms are ASCII ``[A-Za-z]+`` runs, lowercased; df counts each doc once
    per term.  Scale shape: the per-batch stage is a true combiner — it
    emits (term, partial_df) rows, so the shuffle moves per-batch vocab
    (Zipf-bounded), never per-occurrence rows; the groupby is over a hash
    shard of the term with a segment sum, and only the collapsed vocab
    reaches the final (tiny) sort.  The per-doc ``re.findall`` is a
    C-level compiled-regex pass, same justification as the extraction
    stage (stages/extract.py)."""
    def partial_df(batch: pa.Table) -> pa.Table:
        from collections import Counter

        counts: Counter = Counter()
        for t in batch[text_col].to_pylist():
            counts.update({m.lower() for m in WORD_RE.findall(t or "")})
        terms = list(counts.keys())
        return pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "df": pa.array([counts[t] for t in terms], pa.int64()),
            }
        )

    vocab = shard_apply(ds, ["term"], _shard_term_sum, prepare=partial_df,
                        coalesce=False)
    if top_n is None:  # full collapsed vocabulary (for idf consumers)
        return vocab
    return vocab.sort(["df", "term"], descending=[True, False]).limit(top_n)


def _doc_term_tf_rows(batch: pa.Table, id_col: str, text_col: str):
    """Per-doc-distinct (term, tf) rows for the ``[a-z]+`` vocabulary —
    the doc-side input of the sharded tf-idf join.  Returns a table with
    columns ``_jk`` (term), id_col, ``tf``."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    s = pc.fill_null(pc.cast(batch[text_col], pa.string()), "")
    if isinstance(s, pa.ChunkedArray):
        s = s.combine_chunks()
    lists = pc.split_pattern_regex(pc.utf8_lower(s), "[^a-z]+")
    lengths = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(lists)
    row_idx = np.repeat(np.arange(len(ids), dtype=np.int64), lengths)
    keep = pc.not_equal(flat, "")
    keep_np = keep.to_numpy(zero_copy_only=False)
    flat = flat.filter(keep)
    row_idx = row_idx[keep_np]
    if len(flat) == 0:
        return pa.table({"_jk": pa.array([], pa.string()),
                         id_col: pa.array([], pa.int64()),
                         "tf": pa.array([], pa.int64())})
    enc = pc.dictionary_encode(flat)
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    kvoc = len(enc.dictionary)
    pair, tf = np.unique(row_idx * kvoc + codes, return_counts=True)
    p_row, p_code = pair // kvoc, pair % kvoc
    return pa.table({
        "_jk": pc.cast(enc.dictionary.take(pa.array(p_code)), pa.string()),
        id_col: pa.array(ids[p_row], pa.int64()),
        "tf": pa.array(tf.astype(np.int64), pa.int64()),
    })


def tfidf_topk(ds, text_col: str = "text", id_col: str = "doc_id",
               k: int = 3, idf_scale: int = 1000,
               max_broadcast_terms: int | None = None):
    """Top-k terms per document by an integer tf-idf score (SQL-exact).

    Terms are the ``[a-z]+`` runs of the lowercased text (same vocabulary as
    :func:`term_document_frequency`).  ``score = tf * ((N * idf_scale) //
    df)`` — the floor-divided integer idf surrogate keeps the score exact
    integer math, so ranking (score desc, term asc) is bit-identical across
    engines with no float-log ulp hazard.

    Scale shape — size-aware two-path (the CC fast-path principle):
    pass 1 computes the collapsed (term, df) vocabulary with the
    per-batch-distinct combiner + shard segment sum (Zipf-bounded rows
    move, never per-occurrence rows).  When the vocabulary fits the
    ``max_broadcast_terms`` cap (default :data:`MAX_BROADCAST_TERMS`)
    it is broadcast once via ``ray.put`` (sorted term array + idf array
    — a few MB for real vocabularies) and pass 2 is a shuffle-free
    per-batch kernel: dictionary-encode the token stream, tf per
    (row, term) via one ``np.unique``, idf lookup via
    ``np.searchsorted``, per-row top-k via one lexsort.  Beyond the cap
    (web-scale raw vocab: 1e8+ typo/URL terms would OOM the driver) the
    idf attaches SHUFFLE-SIDE instead: per-doc-distinct (doc, term, tf)
    rows co-partition with the vocab shards (:func:`_co_lookup`), each
    shard scores and keeps a local per-doc top-k, and one winners-only
    ``topk_per_group`` exchange yields the global per-doc top-k — the
    driver holds zero vocabulary rows.  Both paths are value-identical
    (integer score math; pytest-checked).
    """
    import ray
    import pyarrow.compute as pc

    from .keyed import _topk_kernel, topk_per_group

    cap = MAX_BROADCAST_TERMS if max_broadcast_terms is None \
        else max_broadcast_terms
    n_docs = ds.count()
    vocab_ds = term_document_frequency(
        ds, text_col=text_col, top_n=None).materialize()
    n_vocab = vocab_ds.count()
    if n_vocab > cap:
        LAST_RUN_INFO.clear()
        LAST_RUN_INFO.update(op="tfidf_topk", path="sharded",
                             driver_vocab_rows=0)

        def doc_rows(batch: pa.Table) -> pa.Table:
            return _doc_term_tf_rows(batch, id_col, text_col)

        def vocab_rows(batch: pa.Table) -> pa.Table:
            return pa.table({"_jk": pc.cast(batch["term"], pa.string()),
                             "df": pc.cast(batch["df"], pa.int64())})

        def local_topk(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table({
                    id_col: pa.array([], pa.int64()),
                    "term": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                    "score": pa.array([], pa.int64()),
                })
            tf_np = t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
            df_np = t["df"].to_numpy(zero_copy_only=False).astype(np.int64)
            sc = tf_np * ((np.int64(n_docs) * np.int64(idf_scale)) // df_np)
            t2 = pa.table({id_col: t[id_col], "term": t["term"],
                           "tf": t["tf"], "score": pa.array(sc, pa.int64())})
            return _topk_kernel(t2, [id_col], "score", k, "term", True)

        scored = _co_lookup(
            ds.map_batches(doc_rows, batch_format="pyarrow").map_batches(
                lambda b: b.append_column("term", b["_jk"]),
                batch_format="pyarrow"),
            vocab_ds.map_batches(vocab_rows, batch_format="pyarrow"),
            payload_fields=[(id_col, pa.int64()), ("term", pa.string()),
                            ("tf", pa.int64())],
            value_fields=[("df", pa.int64())],
            post=local_topk,
        )
        return topk_per_group(scored, [id_col], "score", k,
                              tiebreak_col="term")

    LAST_RUN_INFO.clear()
    LAST_RUN_INFO.update(op="tfidf_topk", path="broadcast",
                         driver_vocab_rows=int(n_vocab))
    vocab = vocab_ds.to_pandas()
    terms_sorted = np.sort(vocab["term"].to_numpy(dtype=object).astype(str))
    df_by_term = dict(zip(vocab["term"], vocab["df"]))
    idf_sorted = np.array(
        [(n_docs * idf_scale) // int(df_by_term[t]) for t in terms_sorted],
        dtype=np.int64,
    )
    vocab_ref = ray.put((terms_sorted, idf_sorted))

    def score(batch: pa.Table) -> pa.Table:
        terms_s, idf_s = ray.get(vocab_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        s = pc.fill_null(pc.cast(batch[text_col], pa.string()), "")
        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        lists = pc.split_pattern_regex(pc.utf8_lower(s), "[^a-z]+")
        lengths = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(lists)
        row_idx = np.repeat(np.arange(len(ids), dtype=np.int64), lengths)
        keep = pc.not_equal(flat, "")
        keep_np = keep.to_numpy(zero_copy_only=False)
        flat = flat.filter(keep)
        row_idx = row_idx[keep_np]
        empty = pa.table({
            id_col: pa.array([], pa.int64()),
            "term": pa.array([], pa.string()),
            "tf": pa.array([], pa.int64()),
            "score": pa.array([], pa.int64()),
        })
        if len(flat) == 0:
            return empty
        enc = pc.dictionary_encode(flat)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        kvoc = len(enc.dictionary)
        pair, tf = np.unique(row_idx * kvoc + codes, return_counts=True)
        p_row, p_code = pair // kvoc, pair % kvoc
        uniq_terms = np.asarray(enc.dictionary.to_pylist(), dtype=object).astype(str)
        pos = np.searchsorted(terms_s, uniq_terms[p_code])
        pos = np.clip(pos, 0, max(len(terms_s) - 1, 0))
        hit = terms_s[pos] == uniq_terms[p_code] if len(terms_s) else np.zeros(len(pos), bool)
        idf = np.where(hit, idf_s[pos] if len(terms_s) else 0, 0)
        sc = tf.astype(np.int64) * idf
        order = np.lexsort((uniq_terms[p_code], -sc, p_row))
        p_row, p_code, tf, sc = p_row[order], p_code[order], tf[order], sc[order]
        starts = np.flatnonzero(np.r_[True, p_row[1:] != p_row[:-1]])
        sizes = np.diff(np.r_[starts, len(p_row)])
        rank = np.arange(len(p_row)) - np.repeat(starts, sizes)
        m = rank < k
        return pa.table({
            id_col: pa.array(ids[p_row[m]], pa.int64()),
            "term": pa.array(uniq_terms[p_code[m]], pa.string()),
            "tf": pa.array(tf[m].astype(np.int64), pa.int64()),
            "score": pa.array(sc[m], pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def add_fingerprint(ds, text_col: str = "text", out_col: str = "fingerprint"):
    """Rolling-hash document fingerprint column (int64, deterministic).

    Fully vectorized: one O(total_bytes) pass over the column's UTF-8 buffer
    (``poly_hash_column``), value-identical to the scalar
    ``text_fingerprint`` (pytest-checked)."""

    def fn(batch: pa.Table) -> pa.Table:
        fps = poly_hash_column(batch[text_col]).astype(np.int64)
        return batch.append_column(out_col, pa.array(fps))

    return ds.map_batches(fn, batch_format="pyarrow")


def add_compression_ratio(ds, id_col: str = "doc_id", text_col: str = "text",
                          level: int = 6):
    """zlib compression ratio per document — the classic Gopher/CCNet-style
    repetition/quality signal (highly repetitive or templated text
    compresses far below ~0.4).

    Shuffle-free ``map_batches``; the per-row ``zlib.compress`` is a
    C-level pass over the text bytes (same justification as the blake2b
    media features).  Output: (id, n_bytes, c_bytes, ratio) — ratio =
    compressed/raw, 0 for empty text, rounded to 6 decimals."""
    import zlib

    def fn(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch[id_col], pa.int64())
        texts = batch[text_col].to_pylist()
        nb = np.empty(len(texts), np.int64)
        cb = np.empty(len(texts), np.int64)
        for i, t in enumerate(texts):
            raw = (t or "").encode("utf-8")
            nb[i] = len(raw)
            cb[i] = len(zlib.compress(raw, level)) if raw else 0
        ratio = np.where(nb > 0, np.round(cb / np.maximum(nb, 1), 6), 0.0)
        return pa.table({
            id_col: ids,
            "n_bytes": pa.array(nb, pa.int64()),
            "c_bytes": pa.array(cb, pa.int64()),
            "ratio": pa.array(ratio, pa.float64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def _mean_per_id(parts, id_col: str, out_col: str):
    """``out_col = round(s / n, 6)`` per ``id_col`` from partial (id, s, n)
    rows: one sharded sum, then a per-batch divide."""
    from .keyed import sharded_grouped_agg

    agg = sharded_grouped_agg(parts, [id_col], [("s", "sum"), ("n", "sum")])

    def finish(batch: pa.Table) -> pa.Table:
        s = batch["s"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            id_col: batch[id_col],
            out_col: pa.array(np.round(s / n, 6), pa.float64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def unigram_logprob(ds, id_col: str = "doc_id", text_col: str = "text",
                    out_col: str = "nll",
                    max_broadcast_terms: int | None = None):
    """Per-document mean negative log-probability under the CORPUS unigram
    LM — the cheap perplexity-style quality score (high = rare-token
    gibberish, low = stopword soup).  Tokens are the whitespace splits of
    the trimmed text (token_count's SQL-mirrorable definition); docs with
    no tokens emit no row (SQL: they vanish at unnest).

    Two passes: (1) collapsed (token, count) vocabulary via the per-batch
    Counter combiner + term-shard segment sum (term_document_frequency's
    shape).  When the vocabulary fits ``max_broadcast_terms`` (default
    :data:`MAX_BROADCAST_TERMS`) it is collected and broadcast ONCE via
    ``ray.put`` and (2) is a shuffle-free scoring pass: flatten token
    lists, ONE ``pc.index_in`` against the broadcast vocab, gather
    counts, ``-ln(count/total)``, segment means via ``reduceat`` over
    the list offsets.  Beyond the cap the count attaches SHUFFLE-SIDE:
    per-doc-distinct (doc, token, tf) rows co-partition with the vocab
    shards (:func:`_co_lookup`; the per-token nll is additive, so each
    shard folds per-doc PARTIAL (sum, n) cells), one doc-keyed
    ``sharded_grouped_agg`` adds the partials, and the driver holds
    zero vocabulary rows — only the scalar token total."""
    import ray

    from collections import Counter

    from ..functions.text import _WS_SPLIT

    def _token_lists(texts):
        trimmed = pc.utf8_trim(pc.cast(texts, pa.string()), " \t\r\n")
        return pc.split_pattern_regex(trimmed, _WS_SPLIT), trimmed

    def partial_counts(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        lists, trimmed = _token_lists(batch[text_col])
        for toks, t in zip(lists.to_pylist(), trimmed.to_pylist()):
            if t:
                counts.update(toks)
        toks = list(counts.keys())
        return pa.table({
            "term": pa.array(toks, pa.string()),
            "df": pa.array([counts[t] for t in toks], pa.int64()),
        })

    cap = MAX_BROADCAST_TERMS if max_broadcast_terms is None \
        else max_broadcast_terms
    vocab_ds = shard_apply(ds, ["term"], _shard_term_sum, prepare=partial_counts,
                           coalesce=False).materialize()
    n_vocab = vocab_ds.count()

    if n_vocab > cap:
        LAST_RUN_INFO.clear()
        LAST_RUN_INFO.update(op="unigram_logprob", path="sharded",
                             driver_vocab_rows=0)
        total = int(vocab_ds.sum(on="df"))

        def doc_rows(batch: pa.Table) -> pa.Table:
            ids = pc.cast(batch[id_col], pa.int64()).to_numpy(
                zero_copy_only=False)
            lists, trimmed = _token_lists(batch[text_col])
            lists = (lists.combine_chunks()
                     if isinstance(lists, pa.ChunkedArray) else lists)
            n_tok = pc.list_value_length(lists).to_numpy(
                zero_copy_only=False).astype(np.int64)
            ok = np.asarray(
                pc.not_equal(trimmed, "").to_numpy(zero_copy_only=False)
            ) & (n_tok > 0)
            empty = pa.table({"_jk": pa.array([], pa.string()),
                              id_col: pa.array([], pa.int64()),
                              "tf": pa.array([], pa.int64())})
            if not ok.any():
                return empty
            lists = lists.filter(pa.array(ok))
            ids = ids[ok]
            lens = pc.list_value_length(lists).to_numpy(
                zero_copy_only=False).astype(np.int64)
            flat = lists.flatten()
            row_idx = np.repeat(np.arange(len(ids), dtype=np.int64), lens)
            enc = pc.dictionary_encode(flat)
            codes = enc.indices.to_numpy(zero_copy_only=False).astype(
                np.int64)
            kvoc = len(enc.dictionary)
            pair, tf = np.unique(row_idx * kvoc + codes, return_counts=True)
            p_row, p_code = pair // kvoc, pair % kvoc
            return pa.table({
                "_jk": pc.cast(enc.dictionary.take(pa.array(p_code)),
                               pa.string()),
                id_col: pa.array(ids[p_row], pa.int64()),
                "tf": pa.array(tf.astype(np.int64), pa.int64()),
            })

        def vocab_rows(batch: pa.Table) -> pa.Table:
            return pa.table({"_jk": pc.cast(batch["term"], pa.string()),
                             "df": pc.cast(batch["df"], pa.int64())})

        def fold(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table({id_col: pa.array([], pa.int64()),
                                 "s": pa.array([], pa.float64()),
                                 "n": pa.array([], pa.int64())})
            did = t[id_col].to_numpy(zero_copy_only=False)
            tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
            df = t["df"].to_numpy(zero_copy_only=False).astype(np.float64)
            contrib = tf * -np.log(df / total)
            order = np.argsort(did, kind="stable")
            did_s, c_s, tf_s = did[order], contrib[order], tf[order]
            starts = np.flatnonzero(np.r_[True, did_s[1:] != did_s[:-1]])
            return pa.table({
                id_col: pa.array(did_s[starts], pa.int64()),
                "s": pa.array(np.add.reduceat(c_s, starts), pa.float64()),
                "n": pa.array(np.add.reduceat(tf_s, starts), pa.int64()),
            })

        parts = _co_lookup(
            ds.map_batches(doc_rows, batch_format="pyarrow"),
            vocab_ds.map_batches(vocab_rows, batch_format="pyarrow"),
            payload_fields=[(id_col, pa.int64()), ("tf", pa.int64())],
            value_fields=[("df", pa.int64())],
            post=fold,
        )
        return _mean_per_id(parts, id_col, out_col)

    LAST_RUN_INFO.clear()
    LAST_RUN_INFO.update(op="unigram_logprob", path="broadcast",
                         driver_vocab_rows=int(n_vocab))
    vocab_parts = list(vocab_ds.iter_batches(batch_format="pyarrow"))
    vocab = pa.concat_tables(vocab_parts).sort_by([("term", "ascending")])
    counts_np = vocab["df"].to_numpy(zero_copy_only=False).astype(np.int64)
    total = int(counts_np.sum())
    vocab_ref = ray.put((vocab["term"].combine_chunks(), counts_np, total))

    def score(batch: pa.Table) -> pa.Table:
        terms, cnts, tot = ray.get(vocab_ref)
        ids = pc.cast(batch[id_col], pa.int64()).to_numpy(zero_copy_only=False)
        lists, trimmed = _token_lists(batch[text_col])
        lists = lists.combine_chunks() if isinstance(lists, pa.ChunkedArray) else lists
        n_tok = pc.list_value_length(lists).to_numpy(zero_copy_only=False).astype(np.int64)
        nonempty = np.asarray(
            pc.not_equal(trimmed, "").to_numpy(zero_copy_only=False)
        ) & (n_tok > 0)
        flat = lists.flatten()
        idx = pc.index_in(flat, value_set=terms).to_numpy(
            zero_copy_only=False
        ).astype(np.float64)  # nulls -> NaN even when none are present
        # empty-trimmed docs still flatten one "" token that is NOT in the
        # vocabulary (index_in -> null); zero its contribution instead of
        # letting NaN poison the cumulative sums
        valid = ~np.isnan(idx)
        nll_flat = np.zeros(len(idx), np.float64)
        nll_flat[valid] = -np.log(cnts[idx[valid].astype(np.int64)] / tot)
        # TRUE flat offsets (all docs, incl. empties) -> exact segment sums
        offsets = np.zeros(len(ids) + 1, np.int64)
        np.cumsum(n_tok, out=offsets[1:])
        csum = np.r_[0.0, np.cumsum(nll_flat)]
        sums = csum[offsets[1:][nonempty]] - csum[offsets[:-1][nonempty]]
        means = sums / n_tok[nonempty]
        return pa.table({
            id_col: pa.array(ids[nonempty], pa.int64()),
            out_col: pa.array(np.round(means, 6), pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def _shard_term_sum(group: pa.Table) -> pa.Table:
    """Segment-sum of (term, df) rows within one term-hash shard."""
    t = group.sort_by([("term", "ascending")])
    term = t["term"].combine_chunks() if isinstance(t["term"], pa.ChunkedArray) else t["term"]
    n = t.num_rows
    new = np.ones(n, dtype=bool)
    new[1:] = pc.not_equal(term.slice(1), term.slice(0, n - 1)).to_numpy(
        zero_copy_only=False
    )
    starts = np.flatnonzero(new)
    sums = np.add.reduceat(t["df"].to_numpy(zero_copy_only=False), starts)
    return pa.table({
        "term": term.take(pa.array(starts)),
        "df": pa.array(sums.astype(np.int64), pa.int64()),
    })


def bigram_logprob(ds, id_col: str = "doc_id", text_col: str = "text",
                   out_col: str = "nll2",
                   max_broadcast_pairs: int | None = None):
    """Per-document mean negative log-prob of each token GIVEN its
    predecessor under the corpus bigram LM — the next-step quality score
    after unigram_logprob (catches shuffled-word salad that unigram
    stats cannot).  Docs with < 2 tokens emit no row (no bigram).

    Two passes mirroring unigram_logprob: (1) a (w1, w2, n) census via
    the per-batch Counter combiner + pair-shard segment sum, collected
    and broadcast ONCE (the pair vocabulary is Zipf-bounded at test
    scale; beyond broadcast size scoring switches to the co-partitioned
    pair-shard join, the tf-idf escalation); left-marginal counts
    c1(w1) = sum_w2 n derive from the census driver-side, so
    p(w2|w1) = n / c1 needs no smoothing — every scored bigram is in
    the census by construction.  (2) a shuffle-free scoring pass:
    tokens indexed once against the census term list, pair key
    i1 * V + i2 (collision-free int64), one searchsorted against the
    broadcast sorted pair keys, per-doc segment means of -ln(n / c1)
    via exact offset cumsums, round-6 (absorbs the 1-ulp libm spread,
    the unigram_logprob protocol)."""
    import ray

    from collections import Counter

    from ..functions.text import _WS_SPLIT

    def _token_lists(texts):
        trimmed = pc.utf8_trim(pc.cast(texts, pa.string()), " \t\r\n")
        return pc.split_pattern_regex(trimmed, _WS_SPLIT), trimmed

    def partial_pairs(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        lists, trimmed = _token_lists(batch[text_col])
        for toks, t in zip(lists.to_pylist(), trimmed.to_pylist()):
            if t and len(toks) >= 2:
                counts.update(zip(toks[:-1], toks[1:]))
        keys = list(counts.keys())
        return pa.table({
            "w1": pa.array([k[0] for k in keys], pa.string()),
            "w2": pa.array([k[1] for k in keys], pa.string()),
            "n": pa.array([counts[k] for k in keys], pa.int64()),
        })

    cap = MAX_BROADCAST_TERMS if max_broadcast_pairs is None \
        else max_broadcast_pairs
    census_ds = shard_apply(ds, ["w1", "w2"], _shard_pair_sum, prepare=partial_pairs,
                            coalesce=False).materialize()
    n_pairs = census_ds.count()

    if n_pairs > cap:
        return _bigram_logprob_sharded(ds, census_ds, id_col, text_col,
                                       out_col, _token_lists)

    LAST_RUN_INFO.clear()
    LAST_RUN_INFO.update(op="bigram_logprob", path="broadcast",
                         driver_vocab_rows=int(n_pairs))
    parts = list(census_ds.iter_batches(batch_format="pyarrow"))
    census = pa.concat_tables(parts)
    w1 = np.asarray(census["w1"].to_pylist(), dtype=object)
    w2 = np.asarray(census["w2"].to_pylist(), dtype=object)
    n = census["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    terms, inv = np.unique(np.r_[w1, w2], return_inverse=True)
    V = np.int64(len(terms))
    i1, i2 = inv[: len(w1)].astype(np.int64), inv[len(w1):].astype(np.int64)
    c1 = np.zeros(len(terms), np.int64)
    np.add.at(c1, i1, n)
    keys = i1 * V + i2
    order = np.argsort(keys, kind="stable")
    nll_pair = -np.log(n[order].astype(np.float64)
                       / c1[i1[order]].astype(np.float64))
    model_ref = ray.put((
        pa.array(terms.tolist(), pa.string()), keys[order], nll_pair,
    ))

    def score(batch: pa.Table) -> pa.Table:
        terms_a, keys_s, nll_s = ray.get(model_ref)
        ids = pc.cast(batch[id_col], pa.int64()).to_numpy(zero_copy_only=False)
        lists, trimmed = _token_lists(batch[text_col])
        lists = (lists.combine_chunks()
                 if isinstance(lists, pa.ChunkedArray) else lists)
        n_tok = pc.list_value_length(lists).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        ok = np.asarray(
            pc.not_equal(trimmed, "").to_numpy(zero_copy_only=False)
        ) & (n_tok >= 2)
        if not ok.any():
            return pa.table({id_col: pa.array([], pa.int64()),
                             out_col: pa.array([], pa.float64())})
        lists_ok = lists.filter(pa.array(ok))
        ids_ok = ids[ok]
        n_ok = n_tok[ok]
        flat = lists_ok.flatten()
        idx = pc.index_in(flat, value_set=terms_a).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)  # every token of a >=2-token doc is in the census
        offsets = np.zeros(len(ids_ok) + 1, np.int64)
        np.cumsum(n_ok, out=offsets[1:])
        left = np.ones(len(idx), bool)
        left[offsets[1:] - 1] = False  # last token of each doc starts no pair
        li = np.flatnonzero(left)
        k = idx[li] * np.int64(len(terms_a)) + idx[li + 1]
        pos = np.searchsorted(keys_s, k)
        nll_flat = nll_s[pos]
        p_off = np.zeros(len(ids_ok) + 1, np.int64)
        np.cumsum(n_ok - 1, out=p_off[1:])
        csum = np.r_[0.0, np.cumsum(nll_flat)]
        means = (csum[p_off[1:]] - csum[p_off[:-1]]) / (n_ok - 1)
        return pa.table({
            id_col: pa.array(ids_ok, pa.int64()),
            out_col: pa.array(np.round(means, 6), pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def _bigram_logprob_sharded(ds, census_ds, id_col: str, text_col: str,
                            out_col: str, _token_lists):
    """Web-scale path of :func:`bigram_logprob`: the (w1, w2, n) census
    never reaches the driver.  Three co-partitioned exchanges:
    (A) left-marginals c1(w1) via a w1-keyed ``sharded_grouped_agg``;
    (B) model rows (w1, w2, nll = -ln(n/c1)) via a w1-hash
    :func:`_co_lookup` of census against marginals; (C) per-doc-distinct
    (doc, w1w2-pair, count) rows co-partition with the model shards,
    each shard folds per-doc PARTIAL (sum, n) cells (nll is additive),
    and one doc-keyed ``sharded_grouped_agg`` finishes the means.  The
    driver holds zero census rows."""
    from .keyed import sharded_grouped_agg

    LAST_RUN_INFO.clear()
    LAST_RUN_INFO.update(op="bigram_logprob", path="sharded",
                         driver_vocab_rows=0)

    # A: left-marginal counts, keyed on w1
    def marg_partial(batch: pa.Table) -> pa.Table:
        return pa.table({"w1": batch["w1"], "c1": batch["n"]})

    marginal = sharded_grouped_agg(
        census_ds.map_batches(marg_partial, batch_format="pyarrow"),
        ["w1"], [("c1", "sum")])

    # B: attach c1 to every census row inside its w1 shard -> model rows
    def census_rows(batch: pa.Table) -> pa.Table:
        return pa.table({"_jk": pc.cast(batch["w1"], pa.string()),
                         "w1": batch["w1"], "w2": batch["w2"],
                         "n": batch["n"]})

    def marg_rows(batch: pa.Table) -> pa.Table:
        return pa.table({"_jk": pc.cast(batch["w1"], pa.string()),
                         "c1": pc.cast(batch["c1"], pa.int64())})

    def mk_model(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"w1": pa.array([], pa.string()),
                             "w2": pa.array([], pa.string()),
                             "nll": pa.array([], pa.float64())})
        n_np = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        c1 = t["c1"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"w1": t["w1"], "w2": t["w2"],
                         "nll": pa.array(-np.log(n_np / c1), pa.float64())})

    model = _co_lookup(
        census_ds.map_batches(census_rows, batch_format="pyarrow"),
        marginal.map_batches(marg_rows, batch_format="pyarrow"),
        payload_fields=[("w1", pa.string()), ("w2", pa.string()),
                        ("n", pa.int64())],
        value_fields=[("c1", pa.int64())],
        post=mk_model,
    )

    def model_rows(batch: pa.Table) -> pa.Table:
        jk = pc.binary_join_element_wise(
            pc.cast(batch["w1"], pa.string()),
            pc.cast(batch["w2"], pa.string()), "\x1f")
        return pa.table({"_jk": jk, "nll": batch["nll"]})

    # C: per-doc-distinct pair rows, joined to the model pair shards
    def doc_pair_rows(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch[id_col], pa.int64()).to_numpy(
            zero_copy_only=False)
        lists, trimmed = _token_lists(batch[text_col])
        lists = (lists.combine_chunks()
                 if isinstance(lists, pa.ChunkedArray) else lists)
        n_tok = pc.list_value_length(lists).to_numpy(
            zero_copy_only=False).astype(np.int64)
        ok = np.asarray(
            pc.not_equal(trimmed, "").to_numpy(zero_copy_only=False)
        ) & (n_tok >= 2)
        empty = pa.table({"_jk": pa.array([], pa.string()),
                          id_col: pa.array([], pa.int64()),
                          "tf": pa.array([], pa.int64())})
        if not ok.any():
            return empty
        lists = lists.filter(pa.array(ok))
        ids = ids[ok]
        lens = pc.list_value_length(lists).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = lists.flatten()
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        m = len(flat)
        row_idx = np.repeat(np.arange(len(ids), dtype=np.int64), lens)
        jk_all = pc.binary_join_element_wise(
            flat.slice(0, m - 1), flat.slice(1), "\x1f")
        same = row_idx[1:] == row_idx[:-1]
        jk = jk_all.filter(pa.array(same))
        prow = row_idx[:-1][same]
        enc = pc.dictionary_encode(jk)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        kvoc = len(enc.dictionary)
        pair, cnt = np.unique(prow * kvoc + codes, return_counts=True)
        p_row, p_code = pair // kvoc, pair % kvoc
        return pa.table({
            "_jk": pc.cast(enc.dictionary.take(pa.array(p_code)),
                           pa.string()),
            id_col: pa.array(ids[p_row], pa.int64()),
            "tf": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "s": pa.array([], pa.float64()),
                             "n": pa.array([], pa.int64())})
        did = t[id_col].to_numpy(zero_copy_only=False)
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        nll = t["nll"].to_numpy(zero_copy_only=False)
        contrib = tf * nll
        order = np.argsort(did, kind="stable")
        did_s, c_s, tf_s = did[order], contrib[order], tf[order]
        starts = np.flatnonzero(np.r_[True, did_s[1:] != did_s[:-1]])
        return pa.table({
            id_col: pa.array(did_s[starts], pa.int64()),
            "s": pa.array(np.add.reduceat(c_s, starts), pa.float64()),
            "n": pa.array(np.add.reduceat(tf_s, starts), pa.int64()),
        })

    parts = _co_lookup(
        ds.map_batches(doc_pair_rows, batch_format="pyarrow"),
        model.map_batches(model_rows, batch_format="pyarrow"),
        payload_fields=[(id_col, pa.int64()), ("tf", pa.int64())],
        value_fields=[("nll", pa.float64())],
        post=fold,
    )
    return _mean_per_id(parts, id_col, out_col)


def _shard_pair_sum(group: pa.Table) -> pa.Table:
    """Segment-sum of (w1, w2, n) rows within one pair-hash shard."""
    t = group.sort_by([("w1", "ascending"), ("w2", "ascending")])
    j = pc.binary_join_element_wise(t["w1"], t["w2"], "\x1f")
    j = j.combine_chunks() if isinstance(j, pa.ChunkedArray) else j
    m = t.num_rows
    new = np.ones(m, dtype=bool)
    new[1:] = pc.not_equal(j.slice(1), j.slice(0, m - 1)).to_numpy(
        zero_copy_only=False
    )
    starts = np.flatnonzero(new)
    sums = np.add.reduceat(t["n"].to_numpy(zero_copy_only=False), starts)
    take = pa.array(starts)
    return pa.table({
        "w1": t["w1"].take(take),
        "w2": t["w2"].take(take),
        "n": pa.array(sums.astype(np.int64), pa.int64()),
    })


def char_entropy(ds, id_col: str = "doc_id", text_col: str = "text",
                 out_col: str = "h"):
    """Per-doc Shannon entropy (log2) of the CHARACTER distribution — the
    CCNet-class gibberish/boilerplate signal (very low = repeated chars,
    very high = random bytes).  Empty docs emit no row (SQL: they vanish
    at unnest).

    Fully vectorized, shuffle-free: one UTF-32 decode of the whole batch,
    (doc, codepoint) keys collapsed with np.unique, per-doc -sum(p log2 p)
    via reduceat over the doc-major segments — no per-doc Python."""

    def fn(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch[id_col], pa.int64()).to_numpy(zero_copy_only=False)
        texts = [t or "" for t in batch[text_col].to_pylist()]
        lens = np.array([len(t) for t in texts], np.int64)
        nonempty = lens > 0
        if not nonempty.any():
            return pa.table({id_col: pa.array([], pa.int64()),
                             out_col: pa.array([], pa.float64())})
        cps = np.frombuffer("".join(texts).encode("utf-32-le"), np.uint32)
        doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
        key = (doc_idx << np.int64(21)) | cps.astype(np.int64)  # cp < 2^21
        uk, cnt = np.unique(key, return_counts=True)
        udoc = uk >> np.int64(21)
        starts = np.flatnonzero(np.r_[True, udoc[1:] != udoc[:-1]])
        n_doc = lens[nonempty].astype(np.float64)
        p = cnt / np.repeat(n_doc, np.diff(np.r_[starts, len(uk)]))
        h = -np.add.reduceat(p * np.log2(p), starts)
        return pa.table({
            id_col: pa.array(ids[nonempty], pa.int64()),
            out_col: pa.array(np.round(h, 6), pa.float64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def bm25_scores(ds, terms: list[str], text_col: str = "text",
                id_col: str = "doc_id", k1: float = 1.2, b: float = 0.75,
                round_to: int = 6):
    """BM25 relevance of every document against a fixed query-term set
    (Robertson/Sparck-Jones BM25, the classic retrieval scorer):

        score(d) = sum_t idf(t) * tf * (k1+1) / (tf + k1*(1 - b + b*dl/avgdl))
        idf(t)   = ln((N - df + 0.5) / (df + 0.5) + 1)

    Tokens are the corpus tokenizer's ``[A-Za-z]+`` lowercased runs
    (:func:`term_document_frequency` parity).  Two passes: a stats pass
    whose per-batch combiner emits ONE row (n_docs, total tokens, df per
    term) so only O(batches) rows reach the driver; constants (idf,
    avgdl) broadcast once; the scoring pass is shuffle-free.

    Cross-engine float protocol: idf is quantized to micro units
    (``floor(ln(.)*1e6)/1e6`` — the only libm call, so the only source of
    ulp variance between numpy and an SQL engine); everything after is
    exactly-rounded IEEE arithmetic evaluated in the SAME left-to-right
    term order both engines use; the final score is rounded to
    ``round_to`` decimals.  Docs with zero query-term hits are dropped.
    """
    import ray

    terms = list(terms)

    def _tf_dl(batch: pa.Table):
        """(tf matrix [n_docs x n_terms] int64, dl int64) for one batch."""
        texts = batch[text_col].to_pylist()
        n = len(texts)
        tf = np.zeros((n, len(terms)), dtype=np.int64)
        dl = np.zeros(n, dtype=np.int64)
        tpos = {t: j for j, t in enumerate(terms)}
        for i, txt in enumerate(texts):
            toks = WORD_RE.findall(txt or "")
            dl[i] = len(toks)
            for tok in toks:
                j = tpos.get(tok.lower())
                if j is not None:
                    tf[i, j] += 1
        return tf, dl

    def stats_partial(batch: pa.Table) -> pa.Table:
        tf, dl = _tf_dl(batch)
        out = {
            "n_docs": pa.array([len(dl)], pa.int64()),
            "sum_dl": pa.array([int(dl.sum())], pa.int64()),
        }
        for j in range(len(terms)):
            out[f"df{j}"] = pa.array([int((tf[:, j] > 0).sum())], pa.int64())
        return pa.table(out)

    stats = ds.map_batches(stats_partial, batch_format="pyarrow").to_pandas()
    n = float(stats["n_docs"].sum())
    avgdl = float(stats["sum_dl"].sum()) / n
    idf = np.array([
        np.floor(np.log((n - float(stats[f"df{j}"].sum()) + 0.5)
                        / (float(stats[f"df{j}"].sum()) + 0.5) + 1.0) * 1e6) / 1e6
        for j in range(len(terms))
    ])
    consts_ref = ray.put((idf, avgdl))

    def score(batch: pa.Table, _c=consts_ref) -> pa.Table:
        idf_b, avgdl_b = ray.get(_c)
        tf, dl = _tf_dl(batch)
        denom_base = k1 * (1.0 - b + b * (dl.astype(np.float64) / avgdl_b))
        s = np.zeros(len(dl), dtype=np.float64)
        for j in range(len(terms)):  # fixed left-to-right term order
            tfj = tf[:, j].astype(np.float64)
            s = s + idf_b[j] * (tfj * (k1 + 1.0)) / (tfj + denom_base)
        keep = tf.sum(axis=1) > 0
        return pa.table({
            id_col: pc.cast(batch[id_col], pa.int64()).filter(pa.array(keep)),
            "score": pa.array(np.round(s[keep], round_to)),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def bpe_train(ds, text_col: str = "text", k: int = 8,
              small_vocab_rows: int = 2_000_000):
    """Learn the first ``k`` BPE merges from a corpus (Sennrich et al.,
    "Neural Machine Translation of Rare Words with Subword Units", ACL
    2016 — the classic tokenizer-fitting step of a training-data
    pipeline).

    Word-based formulation: words are the corpus tokenizer's ``[A-Za-z]+``
    lowercased runs; each word starts as its character sequence; one round
    = count adjacent symbol pairs over the corpus (weighted by word
    frequency), merge the globally most frequent pair (ties to the
    lexicographically smallest), re-apply.

    Scale shape: the corpus is tokenized ONCE into a materialized
    (word, freq) vocabulary table (per-batch distinct-word Counter ->
    sharded segment sum — Zipf-bounded, orders of magnitude smaller than
    the corpus); every training round then runs over the vocab table
    only: merges applied per DISTINCT word, (pair, count) partials,
    sharded sum, driver argmax with lexicographic ties, merge list
    re-broadcast.  Only the pair vocabulary ever reaches the driver.
    (Production BPE additionally keeps an incremental pair index instead
    of re-applying merges — noted, not needed at k this small.)
    Deterministic: pure function of the input multiset — an independent
    single-process reference serves as the oracle.

    Returns ``[(left, right, count), ...]`` in merge order.
    """
    import ray

    from .keyed import sharded_grouped_agg

    def wc_partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        wc: Counter = Counter()
        for t in batch[text_col].to_pylist():
            wc.update(w.lower() for w in WORD_RE.findall(t or ""))
        words = list(wc.keys())
        return pa.table({
            "w": pa.array(words, pa.string()),
            "n": pa.array([wc[w] for w in words], pa.int64()),
        })

    vocab = sharded_grouped_agg(
        ds.map_batches(wc_partial, batch_format="pyarrow"),
        ["w"], [("n", "sum")],
    ).materialize()

    def apply_merges(symbols: tuple, merges: list) -> tuple:
        for a, b in merges:
            out = []
            i = 0
            while i < len(symbols):
                if i + 1 < len(symbols) and symbols[i] == a and symbols[i + 1] == b:
                    out.append(a + b)
                    i += 2
                else:
                    out.append(symbols[i])
                    i += 1
            symbols = tuple(out)
        return symbols

    # size-aware (the CC fast-path principle): a vocab that fits in one
    # heap trains all k rounds locally — k distributed rounds over a tiny
    # word table would be k x the exchange's fixed cost for no benefit.
    # The distributed loop below is the path for web-scale vocabularies.
    n_vocab = vocab.count()
    if n_vocab <= small_vocab_rows:
        from collections import Counter

        vt = vocab.to_pandas()
        wc_all = dict(zip(vt["w"], vt["n"].astype(int)))
        merges_l: list[tuple[str, str]] = []
        counts_l: list[int] = []
        for _ in range(k):
            pc_: Counter = Counter()
            for w, n in wc_all.items():
                syms = apply_merges(tuple(w), merges_l)
                for i in range(len(syms) - 1):
                    pc_[(syms[i], syms[i + 1])] += n
            if not pc_:
                break
            best = min(pc_.items(), key=lambda kv: (-kv[1], kv[0]))
            merges_l.append(best[0])
            counts_l.append(best[1])
        return [(a, b, n) for (a, b), n in zip(merges_l, counts_l)]

    merges: list[tuple[str, str]] = []
    counts_out: list[int] = []
    for _ in range(k):
        merges_ref = ray.put(list(merges))

        def pair_partial(batch: pa.Table, _m=merges_ref) -> pa.Table:
            from collections import Counter

            cur = ray.get(_m)
            pc_: Counter = Counter()
            for w, n in zip(batch["w"].to_pylist(), batch["n"].to_pylist()):
                syms = apply_merges(tuple(w), cur)
                for i in range(len(syms) - 1):
                    pc_[(syms[i], syms[i + 1])] += n
            lefts = [a for a, _ in pc_]
            rights = [b for _, b in pc_]
            return pa.table({
                "l": pa.array(lefts, pa.string()),
                "r": pa.array(rights, pa.string()),
                "n": pa.array([pc_[(a, b)] for a, b in zip(lefts, rights)],
                              pa.int64()),
            })

        pairs = sharded_grouped_agg(
            vocab.map_batches(pair_partial, batch_format="pyarrow"),
            ["l", "r"], [("n", "sum")],
        ).to_pandas()
        if pairs.empty:
            break
        # argmax count, ties to the lexicographically smallest (l, r)
        pairs = pairs.sort_values(["n", "l", "r"],
                                  ascending=[False, True, True])
        best = pairs.iloc[0]
        merges.append((str(best["l"]), str(best["r"])))
        counts_out.append(int(best["n"]))
    return [(a, b, n) for (a, b), n in zip(merges, counts_out)]


def term_parity_drift(ds, text_col: str = "text", id_col: str = "doc_id",
                      min_df: int = 20):
    """Vocabulary drift between two corpus halves (docs with even vs odd
    ``id_col``): per term, the distinct-doc frequency in each half and the
    smoothed log-odds drift

        ``drift_micro = floor(ln(df_even+1)*1e6) - floor(ln(df_odd+1)*1e6)``

    — an integer (micro-nat) score, exact cross-engine because the two libm
    calls are floored independently before the (exact int) subtraction.
    Terms are the :func:`term_document_frequency` vocabulary (``[A-Za-z]+``
    runs, lowercased); only terms with ``df_even + df_odd >= min_df``
    survive (rare-term noise floor).

    Scale shape: the per-batch stage is a distinct-per-doc Counter combiner
    emitting (term, parity, partial_df) rows — Zipf-bounded vocab per
    batch, never per-occurrence rows; ONE term-hash exchange co-locates
    both parities of a term, so the pivot + filter + score happen inside
    the shard task and only surviving scored terms leave it."""
    from collections import Counter

    def partial_df(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        counts: Counter = Counter()
        for doc_id, t in zip(ids, batch[text_col].to_pylist()):
            par = int(doc_id) & 1
            counts.update({(m.lower(), par) for m in WORD_RE.findall(t or "")})
        keys = list(counts.keys())
        return pa.table({
            "term": pa.array([k[0] for k in keys], pa.string()),
            "parity": pa.array([k[1] for k in keys], pa.int64()),
            "df": pa.array([counts[k] for k in keys], pa.int64()),
        })

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [("term", "ascending"), ("parity", "ascending")]
        )
        term = (t["term"].combine_chunks()
                if isinstance(t["term"], pa.ChunkedArray) else t["term"])
        par = t["parity"].to_numpy(zero_copy_only=False)
        df = t["df"].to_numpy(zero_copy_only=False)
        n = t.num_rows
        new_tp = np.ones(n, dtype=bool)
        new_tp[1:] = (
            pc.not_equal(term.slice(1), term.slice(0, n - 1)).to_numpy(
                zero_copy_only=False
            )
            | (par[1:] != par[:-1])
        )
        tp_starts = np.flatnonzero(new_tp)
        tp_df = np.add.reduceat(df, tp_starts)
        tp_term = term.take(pa.array(tp_starts))
        tp_par = par[tp_starts]
        # fold the <=2 parity rows of each term
        m = len(tp_starts)
        new_t = np.ones(m, dtype=bool)
        new_t[1:] = pc.not_equal(
            tp_term.slice(1), tp_term.slice(0, m - 1)
        ).to_numpy(zero_copy_only=False)
        t_starts = np.flatnonzero(new_t)
        seg_id = np.cumsum(new_t) - 1
        df_even = np.zeros(len(t_starts), np.int64)
        df_odd = np.zeros(len(t_starts), np.int64)
        even_mask = tp_par == 0
        np.add.at(df_even, seg_id[even_mask], tp_df[even_mask])
        np.add.at(df_odd, seg_id[~even_mask], tp_df[~even_mask])
        keep = (df_even + df_odd) >= min_df
        df_e, df_o = df_even[keep], df_odd[keep]
        drift = (np.floor(np.log((df_e + 1).astype(np.float64)) * 1e6)
                 - np.floor(np.log((df_o + 1).astype(np.float64)) * 1e6)
                 ).astype(np.int64)
        return pa.table({
            "term": tp_term.take(pa.array(t_starts[keep])),
            "df_even": pa.array(df_e),
            "df_odd": pa.array(df_o),
            "drift_micro": pa.array(drift),
        })

    return shard_apply(ds, ["term"], per_shard, prepare=partial_df,
                       coalesce=False)


TEXT_INDEX_BUCKETS = 64


def build_text_index(ds, index_dir: str, text_col: str = "text",
                     id_col: str = "doc_id") -> dict:
    """Build a PERSISTED inverted keyword index — the search-side sibling of
    the MinHash-LSH and IVF indexes (index the corpus once, serve keyword
    queries with a directory-level read skip).

    Layout: ``{index_dir}/postings/bucket_p=<poly_hash(term) % 64>/`` hive
    partitions of POSITIONAL (term, doc_id, pos) posting rows +
    ``meta.json`` pinning the tokenizer (``[A-Za-z]+`` lowercased — the
    :func:`term_document_frequency` vocabulary) and bucket count.  A search
    opens ONLY the buckets its query terms hash into
    (:func:`text_index_search` for OR-of-terms, :func:`phrase_search` for
    adjacency).  No shuffle needed at build: each doc lives in exactly one
    input batch, so per-batch posting rows are globally unique."""
    import json
    import os

    def postings(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        terms: list[str] = []
        docs: list[int] = []
        poss: list[int] = []
        for doc_id, t in zip(ids, batch[text_col].to_pylist()):
            for p, m in enumerate(WORD_RE.findall(t or "")):
                terms.append(m.lower())
                docs.append(int(doc_id))
                poss.append(p)
        tbl = pa.table({
            "term": pa.array(terms, pa.string()),
            "doc_id": pa.array(docs, pa.int64()),
            "pos": pa.array(poss, pa.int32()),
        })
        bucket = (poly_hash_column(tbl["term"], fold63=False)
                  % np.uint64(TEXT_INDEX_BUCKETS)).astype(np.int64)
        return tbl.append_column("bucket_p", pa.array(bucket))

    # sort by the partition col first: unsorted blocks each spanning all
    # buckets write one tiny file per (block, bucket) pair (see
    # dedup.build_minhash_index — 30k-file lesson)
    ds.map_batches(postings, batch_format="pyarrow").sort(
        "bucket_p"
    ).write_parquet(
        os.path.join(index_dir, "postings"), partition_cols=["bucket_p"]
    )
    meta = {"buckets": TEXT_INDEX_BUCKETS, "tokenizer": "[A-Za-z]+ lower",
            "positional": True}
    with open(os.path.join(index_dir, "meta.json"), "w") as f:
        json.dump(meta, f)
    return meta


def text_index_search(index_dir: str, terms: list[str]):
    """Docs matching ANY query term, with match counts — reading ONLY the
    posting buckets the query terms hash into (with 3 terms at 64 buckets,
    >= 95% of the index is never opened; the delete-an-unqueried-partition
    pytest proves the skip).  Returns (doc_id, n_matched) where n_matched
    counts DISTINCT matched terms."""
    import json
    import os

    import ray.data

    from .keyed import sharded_grouped_agg

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    buckets = int(meta["buckets"])

    qt = sorted({t.lower() for t in terms})
    qarr = pa.array(qt, pa.string())
    qbuckets = set(
        (poly_hash_column(qarr, fold63=False) % np.uint64(buckets))
        .astype(np.int64).tolist()
    )
    files = []
    for b in sorted(qbuckets):
        d = os.path.join(index_dir, "postings", f"bucket_p={b}")
        if os.path.isdir(d):
            files.extend(
                os.path.join(d, f) for f in sorted(os.listdir(d))
                if f.endswith(".parquet")
            )
    if not files:
        import ray.data

        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "n_matched": pa.array([], pa.int64()),
        }))

    def match(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(batch["term"], value_set=qarr)
        return batch.filter(keep).select(["doc_id", "term"])

    # positional postings repeat (term, doc) once per occurrence and a
    # doc's occurrences can span read batches — n_matched = DISTINCT
    # matched terms needs the GLOBAL distinct-count kernel, not a
    # per-batch dedup (which double-counted split occurrences)
    from .keyed import count_distinct_per_group

    hits = ray.data.read_parquet(files, columns=["term", "doc_id"]).map_batches(
        match, batch_format="pyarrow"
    )
    return count_distinct_per_group(hits, ["doc_id"], "term",
                                    out_col="n_matched")


class BPEEncoder:
    """Actor-pool stage: tokenize docs with a TRAINED BPE merge list
    (:func:`bpe_train`'s output) and count subword tokens per doc — the
    "apply the tokenizer" half of the tokenizer-fitting step.

    Stateful setup in ``__init__`` (merge list parsed once per actor);
    per-word encodings are memoized across batches (Zipf: the cache hit
    rate approaches 1 fast), so the per-batch cost is one dict lookup per
    word occurrence plus the classic merge loop on cache misses only."""

    def __init__(self, merges: list, text_col: str = "text",
                 id_col: str = "doc_id", out_col: str = "n_bpe"):
        self.merges = [(a, b) for a, b, *_ in merges]
        self.text_col = text_col
        self.id_col = id_col
        self.out_col = out_col
        self.cache: dict[str, int] = {}

    def _encode_len(self, word: str) -> int:
        n = self.cache.get(word)
        if n is not None:
            return n
        symbols: tuple = tuple(word)
        for a, b in self.merges:
            out = []
            i = 0
            while i < len(symbols):
                if (i + 1 < len(symbols) and symbols[i] == a
                        and symbols[i + 1] == b):
                    out.append(a + b)
                    i += 2
                else:
                    out.append(symbols[i])
                    i += 1
            symbols = tuple(out)
        n = len(symbols)
        self.cache[word] = n
        return n

    def __call__(self, batch: pa.Table) -> pa.Table:
        counts = [
            sum(self._encode_len(w.lower())
                for w in WORD_RE.findall(t or ""))
            for t in batch[self.text_col].to_pylist()
        ]
        return pa.table({
            self.id_col: pc.cast(batch[self.id_col], pa.int64()),
            self.out_col: pa.array(counts, pa.int64()),
        })


def bpe_encode_counts(ds, merges: list, text_col: str = "text",
                      id_col: str = "doc_id", concurrency=(1, 8)):
    """Per-doc subword-token counts under a trained BPE merge list —
    shuffle-free actor-pool map (see :class:`BPEEncoder`)."""
    return ds.map_batches(
        BPEEncoder,
        fn_constructor_kwargs=dict(merges=merges, text_col=text_col,
                                   id_col=id_col),
        batch_format="pyarrow",
        concurrency=concurrency,
    )


def phrase_search(index_dir: str, phrase: list[str]):
    """Exact PHRASE retrieval over the positional inverted index: docs
    containing the query terms at consecutive token positions.

    Reads ONLY the buckets the phrase's terms hash into, then ONE narrow
    doc-hash exchange of the matched postings (query-term postings only —
    a vanishing fraction of the index): each term i's postings shift to
    ``pos - i``, and a phrase start is any (doc, shifted pos) holding all
    len(phrase) DISTINCT terms — one lexsort + two reduceat passes, no
    Python per row.  Returns (doc_id, n_matches = phrase start count)."""
    import json
    import os

    import ray.data

    from .keyed import sharded_grouped_agg

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    if not meta.get("positional"):
        raise ValueError("phrase_search needs a positional index (rebuild)")
    buckets = int(meta["buckets"])

    terms = [t.lower() for t in phrase]
    n_terms = len(terms)
    uniq = sorted(set(terms))
    qarr = pa.array(uniq, pa.string())
    qbuckets = set(
        (poly_hash_column(qarr, fold63=False) % np.uint64(buckets))
        .astype(np.int64).tolist()
    )
    term_offsets: dict[str, list[int]] = {}
    for i, t in enumerate(terms):
        term_offsets.setdefault(t, []).append(i)

    files = []
    for b in sorted(qbuckets):
        d = os.path.join(index_dir, "postings", f"bucket_p={b}")
        if os.path.isdir(d):
            files.extend(
                os.path.join(d, f) for f in sorted(os.listdir(d))
                if f.endswith(".parquet")
            )
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "n_matches": pa.array([], pa.int64())})
    if not files:
        return ray.data.from_arrow(empty)

    def shift(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(batch["term"], value_set=qarr)
        hits = batch.filter(keep)
        doc = hits["doc_id"].to_numpy(zero_copy_only=False)
        pos = hits["pos"].to_numpy(zero_copy_only=False).astype(np.int64)
        docs_l, starts_l, idx_l = [], [], []
        # loop over (unique term x its phrase offsets) — tiny; rows vectorized
        for term, offsets in term_offsets.items():
            m = pc.equal(hits["term"], pa.scalar(term)).to_numpy(
                zero_copy_only=False
            )
            for i in offsets:
                docs_l.append(doc[m])
                starts_l.append(pos[m] - i)
                idx_l.append(np.full(int(m.sum()), i, np.int64))
        docs_out = np.concatenate(docs_l) if docs_l else np.array([], np.int64)
        out = pa.table({
            "doc_id": pa.array(docs_out),
            "start": pa.array(
                np.concatenate(starts_l) if starts_l else np.array([], np.int64)
            ),
            "term_idx": pa.array(
                np.concatenate(idx_l) if idx_l else np.array([], np.int64)
            ),
        })
        return out

    def per_shard(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [("doc_id", "ascending"), ("start", "ascending"),
             ("term_idx", "ascending")]
        )
        doc = t["doc_id"].to_numpy(zero_copy_only=False)
        st = t["start"].to_numpy(zero_copy_only=False)
        ti = t["term_idx"].to_numpy(zero_copy_only=False)
        n = t.num_rows
        new_ds = np.ones(n, dtype=bool)
        new_ds[1:] = (doc[1:] != doc[:-1]) | (st[1:] != st[:-1])
        # distinct term_idx per (doc, start): positions are unique per doc,
        # so within a (doc, start) segment every row is a distinct
        # (term_idx, source position) — dedup term_idx
        new_ti = new_ds.copy()
        new_ti[1:] |= ti[1:] != ti[:-1]
        seg_starts = np.flatnonzero(new_ds)
        distinct_ti = np.add.reduceat(new_ti.astype(np.int64), seg_starts)
        full = distinct_ti == n_terms
        hit_docs = doc[seg_starts[full]]
        if len(hit_docs) == 0:
            return empty
        d_starts = np.flatnonzero(np.r_[True, hit_docs[1:] != hit_docs[:-1]])
        counts = np.diff(np.r_[d_starts, len(hit_docs)]).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(hit_docs[d_starts]),
            "n_matches": pa.array(counts),
        })

    hits = shard_apply(
        ray.data.read_parquet(files, columns=["term", "doc_id", "pos"]),
        ["doc_id"], per_shard, prepare=shift, coalesce=False,
    )
    # shards are doc-disjoint (the shard is a pure function of doc_id), so
    # per-shard counts are final; still run a bounded sum to survive any
    # future re-sharding
    return sharded_grouped_agg(hits, ["doc_id"], [("n_matches", "sum")])
