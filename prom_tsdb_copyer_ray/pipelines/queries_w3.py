"""query battery chunk 3."""
from __future__ import annotations  # noqa: F401

from .qsubstrate import (  # noqa: F401
    ORACLE_SQL,
    QUERIES,
    _read,
)
from .queries_w1 import (  # noqa: F401
    _SQL_TOKS,
)
from .queries_w2 import (  # noqa: F401
    _CORPUS_KEY,
    _FIXTURE_DIR,
    _fixture_sql,
)

ORACLE_SQL.update(
    {
        "fingerprint": _fixture_sql("fingerprint", "doc_id, fingerprint"),
        "holt_winters": (
            "SELECT event_type, level, trend FROM read_parquet("
            f"'{_FIXTURE_DIR}/oracle_holt.parquet') WHERE corpus_key = "
            "(SELECT CAST(SUM(CAST(value * 100 AS BIGINT)) AS BIGINT) FROM events)"
        ),
        "lttb_downsample": (
            "SELECT event_type, window_start, sum_value FROM read_parquet("
            f"'{_FIXTURE_DIR}/oracle_lttb.parquet') WHERE corpus_key = "
            "(SELECT CAST(SUM(CAST(value * 100 AS BIGINT)) AS BIGINT) FROM events)"
        ),
        "simhash": _fixture_sql("simhash", "doc_id, simhash"),
        "lang_id": _fixture_sql("lang_id", "doc_id, pred_lang"),
        "minhash_pairs": _fixture_sql("minhash_pairs", "a, b"),
        "minhash_index_pairs": _fixture_sql(
            "minhash_pairs", "a, b"
        ) + " AND (a % 2) != (b % 2)",
        "ngram_jaccard_pairs": _fixture_sql("ngram_jaccard", "a, b, jaccard"),
        "embedding_neardup": (
            "SELECT a, b, round(cosine, 6) AS cosine FROM read_parquet("
            f"'{_FIXTURE_DIR}/oracle_embedding_neardup.parquet') WHERE corpus_key = "
            "(SELECT CAST(SUM(CAST(floor(abs(embedding[1]) * 1000) AS BIGINT)) AS BIGINT) "
            "FROM embeddings)"
        ),
        "ivf_topk": (
            "SELECT query_idx, vec_id, rank FROM read_parquet("
            f"'{_FIXTURE_DIR}/oracle_ivf_topk.parquet') WHERE corpus_key = "
            "(SELECT CAST(SUM(CAST(floor(abs(embedding[1]) * 1000) AS BIGINT)) AS BIGINT) "
            "FROM embeddings)"
        ),
        "ivf_index_topk": (
            "SELECT query_idx, vec_id, rank FROM read_parquet("
            f"'{_FIXTURE_DIR}/oracle_ivf_topk.parquet') WHERE corpus_key = "
            "(SELECT CAST(SUM(CAST(floor(abs(embedding[1]) * 1000) AS BIGINT)) AS BIGINT) "
            "FROM embeddings)"
        ),
        "media_features": _fixture_sql("media_features", "media_id, kind, embedding"),
        "media_resize": _fixture_sql(
            "media_resize", "media_id, kind, out_w, out_h, thumb_hash"
        ),
        "compression_ratio": _fixture_sql(
            "compression", "doc_id, n_bytes, c_bytes, ratio"
        ),
        "frame_features": _fixture_sql(
            "frame_features", "media_id, n_frames, embedding"
        ),
        "pagerank": _fixture_sql("pagerank", "node, rank"),
        "bpe_merges": _fixture_sql("bpe_merges", 'merge_idx, "left", "right", n'),
        "pca_top": (
            "SELECT dim, component, eigenvalue FROM read_parquet("
            f"'{_FIXTURE_DIR}/oracle_pca_top.parquet') WHERE corpus_key = "
            "(SELECT CAST(SUM(CAST(floor(abs(embedding[1]) * 1000) AS BIGINT)) AS BIGINT) "
            "FROM embeddings)"
        ),
        "kmeans": (
            "SELECT cluster, n_vecs, c0 FROM read_parquet("
            f"'{_FIXTURE_DIR}/oracle_kmeans.parquet') WHERE corpus_key = "
            "(SELECT CAST(SUM(CAST(floor(abs(embedding[1]) * 1000) AS BIGINT)) AS BIGINT) "
            "FROM embeddings)"
        ),
        "approx_users": (
            "SELECT event_type, round(approx_users, 4) AS approx_users "
            f"FROM read_parquet('{_FIXTURE_DIR}/oracle_approx_users.parquet') "
            "WHERE corpus_key = (SELECT CAST(SUM(event_id) AS BIGINT) FROM events)"
        ),
        "approx_quantiles": (
            "SELECT event_type, round(p50, 6) AS p50, round(p90, 6) AS p90, "
            "round(p99, 6) AS p99 "
            f"FROM read_parquet('{_FIXTURE_DIR}/oracle_approx_quantiles.parquet') "
            "WHERE corpus_key = (SELECT CAST(SUM(event_id) AS BIGINT) FROM events)"
        ),
    }
)

ORACLE_SQL.update(
    {
        "anomaly_3sigma": """
            WITH w AS (
              SELECT event_type,
                     CAST(round(value * 100) AS BIGINT) AS cv,
                     sum(CAST(round(value * 100) AS BIGINT)) OVER win AS s,
                     sum(CAST(round(value * 100) AS BIGINT)
                         * CAST(round(value * 100) AS BIGINT)) OVER win AS q,
                     count(*) OVER win AS n
              FROM events
              WINDOW win AS (PARTITION BY event_type, user_id
                             ORDER BY ts, event_id
                             ROWS BETWEEN 15 PRECEDING AND CURRENT ROW))
            SELECT event_type,
                   CAST(count(*) FILTER (
                        WHERE (cv*n - s)*(cv*n - s) > 9*(n*q - s*s)
                   ) AS BIGINT) AS n_anomalies,
                   CAST(count(*) AS BIGINT) AS n_points
            FROM w GROUP BY event_type
        """,
        "skyline": """
            WITH u AS (
              SELECT CAST(user_id AS BIGINT) AS user_id,
                     CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS x,
                     CAST(count(*) AS BIGINT) AS y
              FROM events GROUP BY 1)
            SELECT user_id, x, y FROM u a
            WHERE NOT EXISTS (
              SELECT 1 FROM u b
              WHERE b.x >= a.x AND b.y >= a.y AND (b.x > a.x OR b.y > a.y))
        """,
        "value_histogram": """
            WITH c AS (
              SELECT event_type, CAST(round(value * 100) AS BIGINT) AS cv
              FROM events),
            m AS (SELECT event_type, min(cv) AS lo, max(cv) AS hi
                  FROM c GROUP BY 1)
            SELECT c.event_type,
                   CAST((cv - lo) * 20 // (hi - lo + 1) AS BIGINT) AS bucket,
                   CAST(count(*) AS BIGINT) AS n
            FROM c JOIN m USING (event_type)
            GROUP BY 1, 2
        """,
        "pmi_pairs": """
            WITH d AS (SELECT DISTINCT event_type, user_id FROM events),
            nu AS (SELECT count(DISTINCT user_id) AS n FROM events),
            c AS (SELECT event_type, CAST(count(*) AS BIGINT) AS cnt
                  FROM d GROUP BY 1),
            p AS (SELECT a.event_type AS ta, b.event_type AS tb,
                         CAST(count(*) AS BIGINT) AS n_keys
                  FROM d a JOIN d b USING (user_id)
                  WHERE a.event_type < b.event_type GROUP BY 1, 2)
            SELECT p.ta, p.tb, p.n_keys,
                   floor(ln(CAST(nu.n * p.n_keys AS DOUBLE)
                            / CAST(ca.cnt * cb.cnt AS DOUBLE)) * 1e6) / 1e6
                     AS pmi
            FROM p, nu
            JOIN c ca ON ca.event_type = p.ta
            JOIN c cb ON cb.event_type = p.tb
        """,
        "quality_deciles": r"""
            WITH t AS (
              SELECT doc_id, n_chars,
                     CAST(CASE WHEN trim(text, ' ' || chr(9) || chr(13) || chr(10)) = ''
                               THEN 0
                               ELSE len(regexp_split_to_array(
                                    trim(text, ' ' || chr(9) || chr(13) || chr(10)),
                                    '[ \t\r\n]+'))
                          END AS BIGINT) * 4194304 + doc_id AS comp
              FROM documents),
            q AS (SELECT quantile_disc(comp, 0.1) AS t1, quantile_disc(comp, 0.2) AS t2,
                         quantile_disc(comp, 0.3) AS t3, quantile_disc(comp, 0.4) AS t4,
                         quantile_disc(comp, 0.5) AS t5, quantile_disc(comp, 0.6) AS t6,
                         quantile_disc(comp, 0.7) AS t7, quantile_disc(comp, 0.8) AS t8,
                         quantile_disc(comp, 0.9) AS t9
                  FROM t)
            SELECT CAST((comp >= t1) AS BIGINT) + CAST((comp >= t2) AS BIGINT)
                 + CAST((comp >= t3) AS BIGINT) + CAST((comp >= t4) AS BIGINT)
                 + CAST((comp >= t5) AS BIGINT) + CAST((comp >= t6) AS BIGINT)
                 + CAST((comp >= t7) AS BIGINT) + CAST((comp >= t8) AS BIGINT)
                 + CAST((comp >= t9) AS BIGINT) AS decile,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS char_mass
            FROM t, q GROUP BY 1
        """,
    }
)

ORACLE_SQL.update(
    {
        "user_entropy": """
            WITH c AS (SELECT CAST(user_id AS BIGINT) AS user_id, event_type,
                              CAST(count(*) AS BIGINT) AS cnt
                       FROM events GROUP BY 1, 2),
            u AS (SELECT user_id,
                         CAST(sum(cnt) AS BIGINT) AS n,
                         CAST(sum(cnt * CAST(floor(ln(CAST(cnt AS DOUBLE)) * 1e6)
                                             AS BIGINT)) AS BIGINT) AS s
                  FROM c GROUP BY 1)
            SELECT user_id, n AS n_events,
                   round(CAST(n * CAST(floor(ln(CAST(n AS DOUBLE)) * 1e6) AS BIGINT)
                              - s AS DOUBLE)
                         / (CAST(n AS DOUBLE) * 1e6), 6) AS entropy
            FROM u
        """,
        "term_drift": """
            WITH tok AS (
              SELECT doc_id, lower(unnest(regexp_extract_all(text, '[A-Za-z]+')))
                       AS term
              FROM documents),
            d AS (SELECT DISTINCT doc_id, term FROM tok),
            f AS (SELECT term,
                         CAST(count(*) FILTER (WHERE doc_id % 2 = 0) AS BIGINT)
                           AS df_even,
                         CAST(count(*) FILTER (WHERE doc_id % 2 = 1) AS BIGINT)
                           AS df_odd
                  FROM d GROUP BY 1)
            SELECT term, df_even, df_odd,
                   CAST(floor(ln(CAST(df_even + 1 AS DOUBLE)) * 1e6) AS BIGINT)
                   - CAST(floor(ln(CAST(df_odd + 1 AS DOUBLE)) * 1e6) AS BIGINT)
                     AS drift_micro
            FROM f WHERE df_even + df_odd >= 20
        """,
    }
)

ORACLE_SQL.update(
    {
        "keyword_search": """
            WITH tok AS (
              SELECT doc_id, lower(unnest(regexp_extract_all(text, '[A-Za-z]+')))
                       AS term
              FROM documents),
            d AS (SELECT DISTINCT doc_id, term FROM tok)
            SELECT doc_id, CAST(count(*) AS BIGINT) AS n_matched
            FROM d WHERE term IN ('shuffle', 'spark', 'gorilla')
            GROUP BY 1
        """,
    }
)

ORACLE_SQL.update(
    {
        "bpe_encode": _fixture_sql("bpe_encode", "doc_id, n_bpe"),
        "approx_overlap": (
            "SELECT ta, tb, round(est_overlap, 4) AS est_overlap "
            f"FROM read_parquet('{_FIXTURE_DIR}/oracle_theta_overlap.parquet') "
            "WHERE corpus_key = (SELECT CAST(SUM(event_id) AS BIGINT) FROM events)"
        ),
    }
)

ORACLE_SQL.update(
    {
        "rate_5m": """
            WITH e AS (SELECT event_type, epoch_ms(ts) AS tms, value,
                              lag(value) OVER (
                                  PARTITION BY event_type
                                  ORDER BY ts, event_id) AS prev
                       FROM events)
            SELECT event_type, (tms // 300000) * 300000 AS window_start,
                   round(round(sum(CASE WHEN value >= prev THEN value - prev
                                        ELSE value END), 4) / 300.0, 6)
                     AS rate
            FROM e WHERE prev IS NOT NULL GROUP BY 1, 2
        """,
        "delta_5m": """
            WITH e AS (SELECT event_type,
                              (epoch_ms(ts) // 300000) * 300000 AS window_start,
                              ts, event_id, value,
                              row_number() OVER (
                                  PARTITION BY event_type,
                                               (epoch_ms(ts) // 300000)
                                  ORDER BY ts, event_id) AS ra,
                              row_number() OVER (
                                  PARTITION BY event_type,
                                               (epoch_ms(ts) // 300000)
                                  ORDER BY ts DESC, event_id DESC) AS rd
                       FROM events)
            SELECT f.event_type, f.window_start,
                   f.value AS first_v, l.value AS last_v,
                   l.value - f.value AS delta
            FROM (SELECT * FROM e WHERE ra = 1) f
            JOIN (SELECT * FROM e WHERE rd = 1) l
              USING (event_type, window_start)
        """,
        "cusum_max": """
            WITH c AS (SELECT event_type, CAST(user_id AS BIGINT) AS user_id,
                              CAST(round(value * 100) AS BIGINT) AS cv,
                              ts, event_id
                       FROM events),
            w AS (SELECT event_type, user_id,
                         sum(cv) OVER (PARTITION BY event_type, user_id
                                       ORDER BY ts, event_id
                                       ROWS UNBOUNDED PRECEDING) AS s_i,
                         row_number() OVER (PARTITION BY event_type, user_id
                                            ORDER BY ts, event_id) AS i,
                         sum(cv) OVER (PARTITION BY event_type, user_id) AS s_n,
                         count(*) OVER (PARTITION BY event_type, user_id) AS n
                  FROM c)
            SELECT event_type, user_id,
                   CAST(max(abs(n * s_i - i * s_n)) AS BIGINT) AS cusum_max,
                   CAST(max(n) AS BIGINT) AS n_points
            FROM w GROUP BY 1, 2
        """,
        "psi_buckets": """
            WITH c AS (SELECT CAST(event_id AS BIGINT) % 2 AS parity,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events),
            m AS (SELECT min(cv) AS lo, max(cv) AS hi,
                         count(*) FILTER (WHERE parity = 0) AS n_even_tot,
                         count(*) FILTER (WHERE parity = 1) AS n_odd_tot
                  FROM c),
            b AS (SELECT (cv - lo) * 20 // (hi - lo + 1) AS bucket,
                         CAST(count(*) FILTER (WHERE parity = 0) AS BIGINT)
                           AS n_even,
                         CAST(count(*) FILTER (WHERE parity = 1) AS BIGINT)
                           AS n_odd,
                         max(n_even_tot) AS net, max(n_odd_tot) AS not_
                  FROM c, m GROUP BY 1)
            SELECT bucket, n_even, n_odd,
                   round((CAST(n_even + 1 AS DOUBLE) / (net + 20)
                          - CAST(n_odd + 1 AS DOUBLE) / (not_ + 20))
                         * (floor(ln((CAST(n_even + 1 AS DOUBLE) / (net + 20))
                                     / (CAST(n_odd + 1 AS DOUBLE) / (not_ + 20)))
                                  * 1e6) / 1e6), 9) AS psi_term
            FROM b
        """,
        "rrf_fusion": r"""
            WITH t AS (
              SELECT doc_id,
                     CAST(CASE WHEN trim(text, ' ' || chr(9) || chr(13) || chr(10)) = ''
                               THEN 0
                               ELSE len(regexp_split_to_array(
                                    trim(text, ' ' || chr(9) || chr(13) || chr(10)),
                                    '[ \t\r\n]+'))
                          END AS BIGINT) AS tok,
                     n_chars
              FROM documents),
            r AS (SELECT doc_id,
                         row_number() OVER (ORDER BY tok DESC, doc_id DESC)
                           AS p1,
                         row_number() OVER (ORDER BY n_chars DESC, doc_id DESC)
                           AS p2
                  FROM t)
            SELECT doc_id,
                   round(1.0 / (60.0 + p1) + 1.0 / (60.0 + p2), 9) AS rrf
            FROM r ORDER BY rrf DESC, doc_id LIMIT 50
        """,
    }
)

ORACLE_SQL.update(
    {
        "hopping_15m": """
            SELECT event_type,
                   (epoch_ms(ts) // 300000) * 300000 - k.k * 300000
                     AS window_start,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) AS DOUBLE)
                     / 100.0 AS sum_value
            FROM events, (SELECT unnest([0, 1, 2]) AS k) k
            GROUP BY 1, 2
        """,
        "weighted_sample": (
            "SELECT doc_id, n_chars "
            f"FROM read_parquet('{_FIXTURE_DIR}/oracle_weighted_sample.parquet') "
            f"WHERE corpus_key = {_CORPUS_KEY}"
        ),
        "fuzzy_decontaminate": _fixture_sql(
            "minhash_pairs", "a, b"
        ) + " AND ((a % 53 = 0) != (b % 53 = 0))",
    }
)

ORACLE_SQL.update(
    {
        "audio_loudness": (
            "SELECT media_id, kind, n_frames, energy_mean, energy_max "
            f"FROM read_parquet('{_FIXTURE_DIR}/oracle_audio_loudness.parquet') "
            f"WHERE corpus_key = {_CORPUS_KEY}"
        ),
    }
)

ORACLE_SQL.update(
    {
        "fair_share_sample": """
            WITH c AS (SELECT source, CAST(count(*) AS BIGINT) AS n
                       FROM documents GROUP BY 1),
            o AS (SELECT source, n,
                         row_number() OVER (ORDER BY n, source) AS rn,
                         sum(n) OVER (ORDER BY n, source
                                      ROWS UNBOUNDED PRECEDING) AS cum,
                         count(*) OVER () AS m
                  FROM c),
            brk AS (SELECT min(rn) AS k0
                    FROM o WHERE (cum - n) + n * (m - rn + 1) > 200),
            t AS (SELECT CASE WHEN (SELECT k0 FROM brk) IS NULL
                              THEN (SELECT max(n) FROM o)
                              ELSE (SELECT (200 - (cum - n)) // (m - rn + 1)
                                    FROM o WHERE rn = (SELECT k0 FROM brk))
                         END AS waterline),
            r AS (SELECT source, CAST(doc_id AS BIGINT) AS doc_id,
                         row_number() OVER (
                             PARTITION BY source
                             ORDER BY (doc_id * 48271) % 2147483647, doc_id)
                           AS pos
                  FROM documents)
            SELECT source, doc_id FROM r, t WHERE pos <= t.waterline
        """,
    }
)

ORACLE_SQL.update(
    {
        "phrase_search": """
            WITH tok AS (
              SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS l
              FROM documents),
            pos AS (
              SELECT doc_id, unnest(l) AS term,
                     generate_subscripts(l, 1) AS p
              FROM tok)
            SELECT CAST(a.doc_id AS BIGINT) AS doc_id,
                   CAST(count(*) AS BIGINT) AS n_matches
            FROM (SELECT doc_id, p FROM pos WHERE term = 'sort') a
            JOIN (SELECT doc_id, p FROM pos WHERE term = 'merge') b
              ON a.doc_id = b.doc_id AND b.p = a.p + 1
            GROUP BY 1
        """,
    }
)

ORACLE_SQL.update(
    {
        "quarantine": """
            SELECT CASE WHEN value >= 400 THEN 'out_of_range'
                        WHEN CAST(user_id AS BIGINT) % 97 = 13 THEN 'bad_user'
                        ELSE '' END AS reason,
                   CAST(count(*) AS BIGINT) AS n
            FROM events GROUP BY 1
        """,
    }
)

ORACLE_SQL.update(
    {
        "schema_evolution": """
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(count(*) FILTER (WHERE event_id % 2 = 0) AS BIGINT)
                     AS n_value,
                   CAST(count(*) FILTER (WHERE event_id % 2 = 1) AS BIGINT)
                     AS n_props
            FROM events GROUP BY 1
        """,
    }
)

ORACLE_SQL.update(
    {
        "tpch_q3": """
            WITH rev AS (
              SELECT CAST(l_orderkey AS BIGINT) AS l_orderkey,
                     epoch_ms(o_orderdate) AS o_date_ms,
                     o_orderpriority,
                     sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                         * CAST(round((1 - l_discount) * 100) AS BIGINT))
                       AS micro
              FROM customer
              JOIN orders ON c_custkey = o_custkey
              JOIN lineitem ON l_orderkey = o_orderkey
              WHERE c_mktsegment = 'BUILDING'
                AND epoch_ms(o_orderdate) < 867715200000
                AND epoch_ms(l_shipdate) > 867715200000
              GROUP BY 1, 2, 3)
            SELECT l_orderkey,
                   CAST(micro AS DOUBLE) / 10000.0 AS revenue,
                   o_date_ms, o_orderpriority
            FROM rev
            ORDER BY micro DESC, l_orderkey LIMIT 10
        """,
        "tpch_q5": """
            SELECT n_name,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * CAST(round((1 - l_discount) * 100) AS BIGINT))
                        AS DOUBLE) / 10000.0 AS revenue
            FROM customer, orders, lineitem, supplier, nation, region
            WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
              AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
              AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
              AND r_name = 'ASIA'
              AND epoch_ms(o_orderdate) >= 820454400000
              AND epoch_ms(o_orderdate) < 852076800000
            GROUP BY 1
        """,
    }
)

ORACLE_SQL.update(
    {
        "count_meta": """
            SELECT 'region' AS tbl, CAST(count(*) AS BIGINT) AS n_rows FROM region
            UNION ALL SELECT 'nation', count(*) FROM nation
            UNION ALL SELECT 'customer', count(*) FROM customer
            UNION ALL SELECT 'supplier', count(*) FROM supplier
            UNION ALL SELECT 'part', count(*) FROM part
            UNION ALL SELECT 'orders', count(*) FROM orders
            UNION ALL SELECT 'lineitem', count(*) FROM lineitem
            UNION ALL SELECT 'events', count(*) FROM events
            UNION ALL SELECT 'documents', count(*) FROM documents
            UNION ALL SELECT 'embeddings', count(*) FROM embeddings
        """,
    }
)

ORACLE_SQL.update(
    {
        "funnel_latency": """
            WITH s1 AS (SELECT CAST(user_id AS BIGINT) AS u,
                               min(epoch_ms(ts)) AS t
                        FROM events WHERE event_type = 'signup' GROUP BY 1),
            s2 AS (SELECT CAST(e.user_id AS BIGINT) AS u,
                          min(epoch_ms(e.ts)) AS t
                   FROM events e JOIN s1 ON CAST(e.user_id AS BIGINT) = s1.u
                   WHERE e.event_type = 'purchase' AND epoch_ms(e.ts) > s1.t
                   GROUP BY 1),
            l AS (SELECT (s2.t - s1.t) // 1000 AS lat
                  FROM s2 JOIN s1 ON s2.u = s1.u)
            SELECT CAST(count(*) AS BIGINT) AS n_converted,
                   CAST(quantile_disc(lat, 0.5) AS BIGINT) AS p50_s,
                   CAST(quantile_disc(lat, 0.9) AS BIGINT) AS p90_s
            FROM l
        """,
    }
)

ORACLE_SQL.update(
    {
        "window_share": """
            WITH c AS (SELECT event_type,
                              (epoch_ms(ts) // 3600000) * 3600000
                                AS window_start,
                              count(*) AS n
                       FROM events GROUP BY 1, 2)
            SELECT event_type, window_start, n,
                   CAST(n AS DOUBLE)
                       / CAST(sum(n) OVER (PARTITION BY window_start)
                              AS DOUBLE) AS share
            FROM c
        """,
        "hourly_growth": """
            WITH c AS (SELECT event_type,
                              (epoch_ms(ts) // 3600000) * 3600000
                                AS window_start,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY 1, 2),
            l AS (SELECT event_type, window_start, n,
                         lag(n) OVER (PARTITION BY event_type
                                      ORDER BY window_start) AS prev
                  FROM c)
            SELECT event_type, window_start, n,
                   round((CAST(n AS DOUBLE) - CAST(prev AS DOUBLE))
                         / CAST(prev AS DOUBLE), 6) AS growth_pct
            FROM l WHERE prev IS NOT NULL
        """,
        "skew_report": """
            WITH a AS (SELECT event_type AS v, CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY 1),
            b AS (SELECT CAST(CAST(user_id AS BIGINT) AS VARCHAR) AS v,
                         CAST(count(*) AS BIGINT) AS n
                  FROM events GROUP BY 1),
            u AS (SELECT 'event_type' AS col, sum(n) AS n_rows,
                         count(*) AS n_distinct, max(n) AS max_count FROM a
                  UNION ALL
                  SELECT 'user_id', sum(n), count(*), max(n) FROM b)
            SELECT col, CAST(n_rows AS BIGINT) AS n_rows,
                   CAST(n_distinct AS BIGINT) AS n_distinct,
                   CAST(max_count AS BIGINT) AS max_count,
                   round(CAST(max_count AS DOUBLE) / CAST(n_rows AS DOUBLE), 6)
                     AS top_share
            FROM u
        """,
    }
)

ORACLE_SQL.update(
    {
        "cos_histogram": """
            WITH n AS (SELECT count(*) AS n FROM embeddings),
            p AS (SELECT (t.k * 48271) % n.n AS i,
                         (t.k * 1664525 + 1013904223) % n.n AS j
                  FROM range(200) t(k), n),
            pp AS (SELECT i, j FROM p WHERE i != j),
            c AS (SELECT round(list_cosine_similarity(
                              CAST(a.embedding AS DOUBLE[]),
                              CAST(b.embedding AS DOUBLE[])), 6) AS c6
                  FROM pp
                  JOIN embeddings a ON CAST(a.vec_id AS BIGINT) = pp.i
                  JOIN embeddings b ON CAST(b.vec_id AS BIGINT) = pp.j)
            SELECT LEAST(CAST(floor((c6 + 1.0) * 5) AS BIGINT), 9) AS bucket,
                   CAST(count(*) AS BIGINT) AS n_pairs
            FROM c GROUP BY 1
        """,
    }
)

ORACLE_SQL.update(
    {
        "pq_codes": (
            "SELECT subspace, code, n_vecs "
            f"FROM read_parquet('{_FIXTURE_DIR}/oracle_pq_codes.parquet') "
            "WHERE corpus_key = (SELECT CAST(SUM(CAST(floor(abs(embedding[1]) "
            "* 1000) AS BIGINT)) AS BIGINT) FROM embeddings)"
        ),
    }
)

ORACLE_SQL.update(
    {
        "lang_top_terms": """
            WITH d AS (SELECT doc_id, lang,
                              lower(unnest(regexp_extract_all(text,
                                                              '[A-Za-z]+')))
                                AS term
                       FROM documents),
            u AS (SELECT DISTINCT doc_id, lang, term FROM d),
            f AS (SELECT lang, term, CAST(count(*) AS BIGINT) AS df
                  FROM u GROUP BY 1, 2),
            r AS (SELECT lang, term, df,
                         row_number() OVER (PARTITION BY lang
                                            ORDER BY df DESC, term) AS rn
                  FROM f)
            SELECT lang, term, df FROM r WHERE rn <= 5
        """,
    }
)

ORACLE_SQL.update(
    {
        "tpch_q18": """
            WITH s AS (SELECT CAST(l_orderkey AS BIGINT) AS okey,
                              CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT)
                                AS sum_qty
                       FROM lineitem GROUP BY 1)
            SELECT CAST(c.c_custkey AS BIGINT) AS c_custkey, c.c_name,
                   CAST(o.o_orderkey AS BIGINT) AS o_orderkey,
                   epoch_ms(o.o_orderdate) AS o_date_ms,
                   o.o_totalprice, s.sum_qty
            FROM s
            JOIN orders o ON o.o_orderkey = s.okey
            JOIN customer c ON c.c_custkey = o.o_custkey
            WHERE s.sum_qty > 250
        """,
        "bloom_lookup": """
            SELECT CAST(user_id AS BIGINT) AS user_id,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
                     AS sum_centi
            FROM events
            WHERE user_id IN (7, 101, -1)
            GROUP BY 1
        """,
        "bigram_logprob": f"""
            WITH toks AS ({_SQL_TOKS}),
            ex AS (SELECT doc_id, generate_subscripts(tk, 1) AS i,
                          unnest(tk) AS tok
                   FROM toks),
            bg AS (SELECT a.doc_id, a.tok AS w1, b.tok AS w2
                   FROM ex a
                   JOIN ex b ON a.doc_id = b.doc_id AND b.i = a.i + 1),
            c2 AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS n
                   FROM bg GROUP BY 1, 2),
            c1 AS (SELECT w1, CAST(sum(n) AS DOUBLE) AS t
                   FROM c2 GROUP BY 1)
            SELECT g.doc_id, round(-avg(ln(c2.n / c1.t)), 6) AS nll2
            FROM bg g
            JOIN c2 ON c2.w1 = g.w1 AND c2.w2 = g.w2
            JOIN c1 ON c1.w1 = g.w1
            GROUP BY 1
        """,
        "gini_concentration": """
            WITH c AS (SELECT source, CAST(n_chars AS BIGINT) AS v,
                              CAST(count(*) AS BIGINT) AS cnt
                       FROM documents GROUP BY 1, 2),
            p AS (SELECT source, v, cnt,
                         coalesce(sum(cnt) OVER w, 0) AS nlt,
                         coalesce(sum(cnt * v) OVER w, 0) AS slt
                  FROM c
                  WINDOW w AS (PARTITION BY source ORDER BY v
                               ROWS BETWEEN UNBOUNDED PRECEDING
                                        AND 1 PRECEDING)),
            a AS (SELECT source,
                         CAST(sum(cnt) AS BIGINT) AS n_docs,
                         CAST(sum(cnt * v) AS BIGINT) AS total_chars,
                         CAST(2 * sum(cnt * (v * nlt - slt)) AS BIGINT)
                           AS absdiff
                  FROM p GROUP BY 1)
            SELECT source, n_docs, total_chars,
                   CAST(absdiff AS DOUBLE)
                     / (2.0 * n_docs * total_chars) AS gini
            FROM a
        """,
        "benford_digits": """
            WITH c AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS centi
                       FROM events),
            d AS (SELECT event_type,
                         CAST(substr(CAST(centi AS VARCHAR), 1, 1) AS BIGINT)
                           AS digit
                  FROM c WHERE centi > 0)
            SELECT event_type, digit, CAST(count(*) AS BIGINT) AS n
            FROM d GROUP BY 1, 2
        """,
        "rand_projection": """
            WITH el AS (SELECT vec_id,
                               generate_subscripts(embedding, 1) - 1 AS j,
                               unnest(embedding) AS elem
                        FROM embeddings),
            m AS (SELECT vec_id, j,
                         CAST(round(CAST(elem AS DOUBLE) * 1e6) AS BIGINT)
                           AS micro
                  FROM el),
            dims AS (SELECT unnest(generate_series(0, 7)) AS dim),
            sgn AS (SELECT m.vec_id, dims.dim,
                           SUM(m.micro * (1 - 2 * CAST(
                               ((CAST(6364136223846793005 AS HUGEINT) * m.j
                                 + CAST(1442695040888963407 AS HUGEINT)
                                   * dims.dim)
                                % 18446744073709551616
                                // 137438953472) % 2 AS BIGINT)))
                             AS proj
                    FROM m, dims GROUP BY 1, 2)
            SELECT dim,
                   CAST(sum(CASE WHEN proj > 0 THEN 1 ELSE 0 END) AS BIGINT)
                     AS n_pos,
                   CAST(sum(CASE WHEN proj < 0 THEN 1 ELSE 0 END) AS BIGINT)
                     AS n_neg,
                   CAST(sum(proj) AS BIGINT) AS sum_proj
            FROM sgn GROUP BY 1
        """,
        "ewma_decay": """
            WITH e AS (SELECT event_type,
                              CAST(event_id AS BIGINT) AS event_id,
                              epoch_ms(ts) AS t,
                              CAST(round(value * 100) AS BIGINT) AS centi
                       FROM events),
            r AS (SELECT *, row_number()
                             OVER (PARTITION BY event_type
                                   ORDER BY t DESC, event_id) AS rn
                  FROM e),
            k AS (SELECT * FROM r WHERE rn <= 16),
            a AS (SELECT event_type,
                         CAST(count(*) AS BIGINT) AS n_used,
                         CAST(sum(centi * (1::BIGINT << (16 - rn)))
                              AS BIGINT) AS decayed_centi,
                         CAST(sum(1::BIGINT << (16 - rn)) AS BIGINT) AS wsum
                  FROM k GROUP BY 1)
            SELECT event_type, n_used, decayed_centi,
                   CAST(decayed_centi AS DOUBLE) / wsum / 100.0 AS ewma
            FROM a
        """,
        "tpch_q10": """
            WITH r AS (
              SELECT CAST(o.o_custkey AS BIGINT) AS o_custkey,
                     SUM(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                         * CAST(round((1 - l.l_discount) * 100) AS BIGINT))
                       AS micro
              FROM lineitem l
              JOIN orders o ON l.l_orderkey = o.o_orderkey
              WHERE l.l_returnflag = 'R'
                AND o.o_orderdate >= TIMESTAMP '1996-01-01'
                AND o.o_orderdate <  TIMESTAMP '1996-04-01'
              GROUP BY 1),
            t AS (SELECT *, row_number()
                             OVER (ORDER BY micro DESC, o_custkey) AS rn
                  FROM r)
            SELECT t.o_custkey AS c_custkey, c.c_name,
                   CAST(t.micro AS DOUBLE) / 10000.0 AS revenue,
                   c.c_acctbal, n.n_name
            FROM t
            JOIN customer c ON c.c_custkey = t.o_custkey
            JOIN nation n ON n.n_nationkey = c.c_nationkey
            WHERE t.rn <= 20
        """,
    }
)

ORACLE_SQL.update(
    {
        "session_quantiles": """
            WITH e AS (SELECT CAST(user_id AS BIGINT) AS u, epoch_ms(ts) AS t
                       FROM events),
            l AS (SELECT u, t, lag(t) OVER (PARTITION BY u ORDER BY t) AS prev
                  FROM e),
            s AS (SELECT u, t,
                         sum(CASE WHEN prev IS NULL OR t - prev > 86400000
                                  THEN 1 ELSE 0 END)
                             OVER (PARTITION BY u ORDER BY t
                                   ROWS UNBOUNDED PRECEDING) AS sid
                  FROM l),
            c AS (SELECT u, sid, CAST(count(*) AS BIGINT) AS n_events
                  FROM s GROUP BY 1, 2)
            SELECT CAST(count(*) AS BIGINT) AS n_sessions,
                   CAST(quantile_disc(n_events, 0.5) AS BIGINT) AS p50_events,
                   CAST(quantile_disc(n_events, 0.9) AS BIGINT) AS p90_events
            FROM c
        """,
    }
)

# --- TPC-H completion wave oracles (pipelines/relational.py) ----------------
# Money stays in exact cent x cent micro int64 on BOTH engines with one final
# division (the tpch_q3 protocol); date bounds are epoch-ms literals.

ORACLE_SQL.update(
    {
        "tpch_q4": """
            SELECT o_orderpriority,
                   CAST(count(DISTINCT o_orderkey) AS BIGINT) AS order_count
            FROM orders JOIN lineitem ON l_orderkey = o_orderkey
            WHERE epoch_ms(o_orderdate) >= 820454400000
              AND epoch_ms(o_orderdate) < 836179200000
              AND epoch_ms(l_shipdate) > epoch_ms(o_orderdate) + 5184000000
            GROUP BY 1
        """,
        "tpch_q7": """
            SELECT sn.n_name AS supp_nation, cn.n_name AS cust_nation,
                   CAST(year(l_shipdate) AS BIGINT) AS l_year,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * CAST(round((1 - l_discount) * 100) AS BIGINT))
                        AS DOUBLE) / 10000.0 AS revenue
            FROM lineitem
            JOIN orders ON o_orderkey = l_orderkey
            JOIN customer ON c_custkey = o_custkey
            JOIN supplier ON s_suppkey = l_suppkey
            JOIN nation cn ON cn.n_nationkey = c_nationkey
            JOIN nation sn ON sn.n_nationkey = s_nationkey
            WHERE s_nationkey <> c_nationkey
              AND epoch_ms(l_shipdate) >= 820454400000
              AND epoch_ms(l_shipdate) < 883612800000
            GROUP BY 1, 2, 3
        """,
        "tpch_q8": """
            WITH t AS (
                SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
                       CAST(round(l_extendedprice * 100) AS BIGINT)
                       * CAST(round((1 - l_discount) * 100) AS BIGINT) AS micro,
                       s_nationkey AS sn
                FROM lineitem
                JOIN orders ON o_orderkey = l_orderkey
                JOIN customer ON c_custkey = o_custkey
                JOIN nation ON n_nationkey = c_nationkey
                JOIN region ON r_regionkey = n_regionkey
                JOIN supplier ON s_suppkey = l_suppkey
                JOIN part ON p_partkey = l_partkey
                WHERE r_name = 'ASIA' AND p_type = 'PROMO'
                  AND epoch_ms(o_orderdate) >= 820454400000
                  AND epoch_ms(o_orderdate) < 915148800000
            )
            SELECT o_year,
                   CAST(sum(CASE WHEN sn = 0 THEN micro ELSE 0 END) AS DOUBLE)
                   / CAST(sum(micro) AS DOUBLE) AS mkt_share
            FROM t GROUP BY 1
        """,
        "tpch_q9": """
            SELECT n_name AS nation,
                   CAST(year(l_shipdate) AS BIGINT) AS o_year,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * CAST(round((1 - l_discount) * 100) AS BIGINT)
                            - CAST(round(p_retailprice * 100) AS BIGINT)
                              * CAST(round(l_quantity) AS BIGINT) * 100)
                        AS DOUBLE) / 10000.0 AS sum_profit
            FROM lineitem
            JOIN part ON p_partkey = l_partkey AND p_type = 'ECONOMY'
            JOIN supplier ON s_suppkey = l_suppkey
            JOIN nation ON n_nationkey = s_nationkey
            GROUP BY 1, 2
        """,
        "tpch_q11": """
            WITH v AS (
                SELECT CAST(l_partkey AS BIGINT) AS l_partkey,
                       sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS c
                FROM lineitem GROUP BY 1
            )
            SELECT l_partkey, CAST(c AS DOUBLE) / 100.0 AS value
            FROM v
            WHERE c * (SELECT count(*) FROM v) > (SELECT sum(c) FROM v)
        """,
        "tpch_q15": """
            WITH rev AS (
                SELECT CAST(l_suppkey AS BIGINT) AS s,
                       sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                           * CAST(round((1 - l_discount) * 100) AS BIGINT)) AS m
                FROM lineitem
                WHERE epoch_ms(l_shipdate) >= 820454400000
                  AND epoch_ms(l_shipdate) < 828316800000
                GROUP BY 1
            )
            SELECT CAST(s_suppkey AS BIGINT) AS s_suppkey, s_name,
                   CAST(m AS DOUBLE) / 10000.0 AS total_revenue
            FROM rev JOIN supplier ON s_suppkey = s
            WHERE m = (SELECT max(m) FROM rev)
        """,
        "tpch_q16": """
            SELECT p_brand, p_type, CAST(p_size AS BIGINT) AS p_size,
                   CAST(count(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
            FROM lineitem JOIN part ON p_partkey = l_partkey
            WHERE p_brand <> 'Brand#5' AND p_type <> 'PROMO'
              AND p_size IN (1, 4, 7, 10, 13, 16, 19, 22)
              AND l_suppkey NOT IN (
                  SELECT s_suppkey FROM supplier WHERE s_acctbal < 1000
              )
            GROUP BY 1, 2, 3
        """,
        "tpch_q17": """
            WITH s AS (
                SELECT CAST(l_partkey AS BIGINT) AS pk,
                       sum(CAST(round(l_quantity) AS BIGINT)) AS sum_q,
                       count(*) AS cnt
                FROM lineitem
                WHERE CAST(l_partkey AS BIGINT) IN (
                    SELECT CAST(p_partkey AS BIGINT) FROM part
                    WHERE p_brand = 'Brand#3'
                )
                GROUP BY 1
            )
            SELECT CAST(coalesce(sum(
                       CAST(round(l_extendedprice * 100) AS BIGINT)), 0)
                   AS DOUBLE) / 700.0 AS avg_yearly
            FROM lineitem JOIN s ON s.pk = CAST(l_partkey AS BIGINT)
            WHERE CAST(round(l_quantity) AS BIGINT) * 5 * cnt < sum_q
        """,
        "tpch_q19": """
            SELECT CAST(coalesce(sum(
                       CAST(round(l_extendedprice * 100) AS BIGINT)
                       * CAST(round((1 - l_discount) * 100) AS BIGINT)), 0)
                   AS DOUBLE) / 10000.0 AS revenue
            FROM lineitem JOIN part ON p_partkey = l_partkey
            WHERE (p_brand = 'Brand#1' AND p_size <= 10
                   AND CAST(round(l_quantity) AS BIGINT) BETWEEN 1 AND 20)
               OR (p_brand = 'Brand#2' AND p_size <= 20
                   AND CAST(round(l_quantity) AS BIGINT) BETWEEN 5 AND 30)
               OR (p_brand = 'Brand#3' AND p_size <= 30
                   AND CAST(round(l_quantity) AS BIGINT) BETWEEN 10 AND 40)
        """,
        "tpch_q21": """
            WITH f AS (
                SELECT CAST(o_orderkey AS BIGINT) AS ok,
                       epoch_ms(o_orderdate) AS od
                FROM orders WHERE o_orderstatus = 'F'
            ),
            ls AS (
                SELECT CAST(l_orderkey AS BIGINT) AS ok,
                       CAST(l_suppkey AS BIGINT) AS sk,
                       max(CASE WHEN epoch_ms(l_shipdate) > od + 7776000000
                                THEN 1 ELSE 0 END) AS late
                FROM lineitem JOIN f ON f.ok = CAST(l_orderkey AS BIGINT)
                GROUP BY 1, 2
            ),
            po AS (
                SELECT ok, count(*) AS n_supp, sum(late) AS n_late,
                       sum(late * sk) AS late_supp
                FROM ls GROUP BY 1
            )
            SELECT CAST(s_suppkey AS BIGINT) AS s_suppkey, s_name,
                   CAST(count(*) AS BIGINT) AS numwait
            FROM po JOIN supplier ON s_suppkey = late_supp
            WHERE n_supp >= 2 AND n_late = 1
            GROUP BY 1, 2
        """,
        "tpch_q22": """
            WITH b AS (
                SELECT CAST(round(c_acctbal * 100) AS BIGINT) AS bc,
                       CAST(c_custkey AS BIGINT) AS ck,
                       CAST(c_nationkey AS BIGINT) AS nk
                FROM customer
            ),
            g AS (
                SELECT sum(CASE WHEN bc > 0 THEN bc ELSE 0 END) AS sp,
                       sum(CASE WHEN bc > 0 THEN 1 ELSE 0 END) AS np
                FROM b
            )
            SELECT nk AS c_nationkey, CAST(count(*) AS BIGINT) AS numcust,
                   CAST(sum(bc) AS DOUBLE) / 100.0 AS totacctbal
            FROM b, g
            WHERE bc * np > sp
              AND ck NOT IN (
                  SELECT CAST(o_custkey AS BIGINT) FROM orders
                  WHERE epoch_ms(o_orderdate) >= 820454400000
                    AND epoch_ms(o_orderdate) < 852076800000
              )
            GROUP BY 1
        """,
        "tpch_q2": """
            WITH comp AS (
                SELECT CAST(l_partkey AS BIGINT) AS pk,
                       min((CAST(round(s_acctbal * 100) AS BIGINT) + 10000000)
                           * 1048576 + CAST(s_suppkey AS BIGINT)) AS c
                FROM lineitem JOIN supplier ON s_suppkey = l_suppkey
                WHERE CAST(l_partkey AS BIGINT) IN (
                    SELECT CAST(p_partkey AS BIGINT) FROM part
                    WHERE p_size >= 40
                )
                GROUP BY 1
            )
            SELECT pk AS p_partkey, CAST(c % 1048576 AS BIGINT) AS s_suppkey,
                   s_name,
                   CAST(c // 1048576 - 10000000 AS DOUBLE) / 100.0 AS s_acctbal
            FROM comp JOIN supplier ON CAST(s_suppkey AS BIGINT) = c % 1048576
        """,
    }
)

# --- session-10 statistics wave oracles (pipelines/stats2.py) ---------------
# Exact-int censuses end-to-end; every float statistic is ONE mirrored
# cast/multiply/sqrt/divide sequence over identical exact integers
# (HUGEINT in SQL, Python bignums in the engine) — bit-identical results.

ORACLE_SQL.update(
    {
        "spearman_corr": """
            WITH e AS (SELECT (epoch_ms(ts) // 3600000) % 24 AS hod,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events),
            c AS (SELECT hod, cv, CAST(count(*) AS BIGINT) AS n
                  FROM e GROUP BY 1, 2),
            vm AS (SELECT cv, sum(n) AS nv FROM c GROUP BY 1),
            vr AS (SELECT cv,
                          2 * coalesce(sum(nv) OVER (ORDER BY cv
                              ROWS BETWEEN UNBOUNDED PRECEDING
                              AND 1 PRECEDING), 0) + nv + 1 AS r2
                   FROM vm),
            hm AS (SELECT hod, sum(n) AS nh FROM c GROUP BY 1),
            hr AS (SELECT hod,
                          2 * coalesce(sum(nh) OVER (ORDER BY hod
                              ROWS BETWEEN UNBOUNDED PRECEDING
                              AND 1 PRECEDING), 0) + nh + 1 AS r2
                   FROM hm),
            m AS (SELECT CAST(sum(n) AS HUGEINT) AS n,
                         sum(CAST(n AS HUGEINT) * vr.r2) AS sx,
                         sum(CAST(n AS HUGEINT) * hr.r2) AS sy,
                         sum(CAST(n AS HUGEINT) * vr.r2 * vr.r2) AS sxx,
                         sum(CAST(n AS HUGEINT) * hr.r2 * hr.r2) AS syy,
                         sum(CAST(n AS HUGEINT) * vr.r2 * hr.r2) AS sxy
                  FROM c JOIN vr USING (cv) JOIN hr USING (hod))
            SELECT CAST(n AS BIGINT) AS n,
                   CAST(n * sxy - sx * sy AS DOUBLE)
                   / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                          * CAST(n * syy - sy * sy AS DOUBLE)) AS rho
            FROM m
        """,
        "kendall_tau": """
            WITH e AS (SELECT (epoch_ms(ts) // 3600000) % 24 AS hod,
                              CAST(round(value * 100) AS BIGINT) // 5000 AS vb
                       FROM events),
            c AS (SELECT hod, vb, CAST(count(*) AS BIGINT) AS n
                  FROM e GROUP BY 1, 2),
            p AS (SELECT
                      coalesce(sum(CAST(c1.n AS HUGEINT) * c2.n)
                               FILTER (WHERE c2.vb > c1.vb), 0) AS conc,
                      coalesce(sum(CAST(c1.n AS HUGEINT) * c2.n)
                               FILTER (WHERE c2.vb < c1.vb), 0) AS disc
                  FROM c c1 JOIN c c2 ON c2.hod > c1.hod),
            hm AS (SELECT hod, sum(n) AS nh FROM c GROUP BY 1),
            vm AS (SELECT vb, sum(n) AS nv FROM c GROUP BY 1),
            tot AS (SELECT CAST(sum(n) AS HUGEINT) AS n FROM c),
            t1 AS (SELECT sum(CAST(nh AS HUGEINT) * (nh - 1) // 2) AS t
                   FROM hm),
            t2 AS (SELECT sum(CAST(nv AS HUGEINT) * (nv - 1) // 2) AS t
                   FROM vm)
            SELECT CAST(tot.n AS BIGINT) AS n,
                   CAST(conc AS BIGINT) AS concordant,
                   CAST(disc AS BIGINT) AS discordant,
                   CAST(conc - disc AS DOUBLE)
                   / sqrt(CAST(tot.n * (tot.n - 1) // 2 - t1.t AS DOUBLE)
                          * CAST(tot.n * (tot.n - 1) // 2 - t2.t AS DOUBLE))
                       AS tau_b
            FROM p, tot, t1, t2
        """,
        "theil_sen": """
            WITH e AS (SELECT (epoch_ms(ts) // 3600000) % 24 AS hod,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events),
            h AS (SELECT hod, CAST(sum(cv) AS HUGEINT) AS s,
                         CAST(count(*) AS HUGEINT) AS c
                  FROM e GROUP BY 1),
            p AS (SELECT CAST(h2.s * h1.c - h1.s * h2.c AS DOUBLE)
                         / CAST((h2.hod - h1.hod) * h1.c * h2.c AS DOUBLE)
                             AS slope
                  FROM h h1 JOIN h h2 ON h2.hod > h1.hod)
            SELECT CAST(count(*) AS BIGINT) AS n_pairs,
                   quantile_disc(slope, 0.5) / 100.0 AS theil_sen_slope
            FROM p
        """,
        "changepoint": """
            WITH e AS (SELECT (epoch_ms(ts) // 86400000) * 86400000 AS day_ms,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events),
            d AS (SELECT day_ms, CAST(sum(cv) AS HUGEINT) AS s,
                         CAST(count(*) AS HUGEINT) AS c
                  FROM e GROUP BY 1),
            o AS (SELECT sum(s) OVER (ORDER BY day_ms) AS sl,
                         sum(c) OVER (ORDER BY day_ms) AS nl,
                         lead(day_ms) OVER (ORDER BY day_ms) AS next_day
                  FROM d),
            tot AS (SELECT CAST(sum(s) AS HUGEINT) AS st,
                           CAST(sum(c) AS HUGEINT) AS nt FROM d),
            g AS (SELECT next_day AS split_day_ms,
                         (sl * sl * 1000000) // nl
                         + ((st - sl) * (st - sl) * 1000000) // (nt - nl)
                         - (st * st * 1000000) // nt AS gain_micro
                  FROM o, tot WHERE next_day IS NOT NULL)
            SELECT CAST(split_day_ms AS BIGINT) AS split_day_ms,
                   CAST(gain_micro AS DOUBLE) / 1e6 AS gain
            FROM g ORDER BY gain_micro DESC, split_day_ms ASC LIMIT 1
        """,
        "runs_test": """
            WITH med AS (SELECT quantile_disc(
                                    CAST(round(value * 100) AS BIGINT), 0.5
                                ) AS m FROM events),
            e AS (SELECT event_type, ts, event_id,
                         CASE WHEN CAST(round(value * 100) AS BIGINT) > m
                              THEN 1 ELSE 0 END AS sign
                  FROM events, med
                  WHERE CAST(round(value * 100) AS BIGINT) <> m),
            x AS (SELECT event_type, sign,
                         lag(sign) OVER (PARTITION BY event_type
                                         ORDER BY ts, event_id) AS prev
                  FROM e),
            r AS (SELECT event_type,
                         CAST(sum(CASE WHEN prev IS NULL OR sign <> prev
                                       THEN 1 ELSE 0 END) AS BIGINT) AS n_runs,
                         CAST(sum(sign) AS BIGINT) AS n_above,
                         CAST(count(*) AS BIGINT) AS n_total
                  FROM x GROUP BY 1)
            SELECT event_type, n_runs, n_above,
                   n_total - n_above AS n_below,
                   CAST(n_runs * n_total - n_total
                        - 2 * CAST(n_above AS HUGEINT) * (n_total - n_above)
                        AS DOUBLE)
                   * sqrt(CAST(n_total - 1 AS DOUBLE))
                   / sqrt(CAST(
                         2 * CAST(n_above AS HUGEINT) * (n_total - n_above)
                         * (2 * CAST(n_above AS HUGEINT) * (n_total - n_above)
                            - n_total) AS DOUBLE)) AS z
            FROM r
        """,
    }
)

# --- session-10 extras oracles (pipelines/extras.py) -------------------------

ORACLE_SQL.update(
    {
        "video_pure_frames": """
            WITH f AS (SELECT unnest(generate_series(0, 4, 2)) AS f),
            r AS (SELECT unnest(generate_series(0, 7)) AS r),
            c AS (SELECT unnest(generate_series(0, 7)) AS c),
            px AS (SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
                          (CAST(d.doc_id AS BIGINT) * 31 + f.f * 11
                           + r.r * 7 + c.c * 3) % 256 AS v
                   FROM documents d, f, r, c)
            SELECT doc_id, CAST(3 AS BIGINT) AS n_frames,
                   CAST(sum(v) AS BIGINT) AS pixel_sum,
                   CAST(sum(v) AS DOUBLE) / 192.0 AS mean_pixel
            FROM px GROUP BY 1
        """,
        "khop_reach": """
            WITH d AS (SELECT CAST(doc_id AS BIGINT) AS doc_id, lang,
                              source, n_chars // 100 AS cb
                       FROM documents),
            m1 AS (SELECT lang, cb, min(doc_id) AS a FROM d GROUP BY 1, 2),
            e1 AS (SELECT m1.a, d.doc_id AS b
                   FROM d JOIN m1 USING (lang, cb) WHERE d.doc_id != m1.a),
            m2 AS (SELECT source, cb, min(doc_id) AS a FROM d GROUP BY 1, 2),
            e2 AS (SELECT m2.a, d.doc_id AS b
                   FROM d JOIN m2 USING (source, cb) WHERE d.doc_id != m2.a),
            e AS (SELECT DISTINCT a, b
                  FROM (SELECT * FROM e1 UNION ALL SELECT * FROM e2)),
            s AS (SELECT min(doc_id) AS seed FROM d),
            rec AS (
                WITH RECURSIVE walk(node, depth) AS (
                    SELECT seed, 0 FROM s
                    UNION
                    SELECT CASE WHEN e.a = walk.node THEN e.b ELSE e.a END,
                           walk.depth + 1
                    FROM walk JOIN e ON e.a = walk.node OR e.b = walk.node
                    WHERE walk.depth < 3
                )
                SELECT count(DISTINCT node) AS n_reach FROM walk
            )
            SELECT s.seed, CAST(rec.n_reach AS BIGINT) AS n_reach
            FROM s, rec
        """,
        "l_diversity": """
            SELECT lang, n_chars // 1000 AS size_bucket,
                   CAST(count(DISTINCT source) AS BIGINT) AS l
            FROM documents GROUP BY 1, 2
        """,
        "quantile_cont": """
            WITH c AS (SELECT CAST(round(value * 100) AS BIGINT) AS cv,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY 1),
            s AS (SELECT cv, sum(n) OVER (ORDER BY cv) AS cum FROM c),
            nt AS (SELECT CAST(sum(n) AS BIGINT) AS n FROM c),
            q AS (SELECT unnest([50, 90, 99]) AS pct),
            pos AS (SELECT pct, ((n - 1) * pct) // 100 AS lo0,
                           ((n - 1) * pct) % 100 AS fi,
                           least(((n - 1) * pct) // 100 + 1, n - 1) AS hi0
                    FROM q, nt)
            SELECT CAST(pct AS BIGINT) AS pct,
                   (CAST((SELECT min(cv) FROM s WHERE cum >= lo0 + 1)
                         AS DOUBLE)
                    + CAST((SELECT min(cv) FROM s WHERE cum >= hi0 + 1)
                           - (SELECT min(cv) FROM s WHERE cum >= lo0 + 1)
                           AS DOUBLE) * (fi / 100.0)) / 100.0 AS q_value
            FROM pos
        """,
        "mode_value": """
            WITH c AS (SELECT CAST(round(value * 100) AS BIGINT) AS cv,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY 1)
            SELECT CAST(cv AS DOUBLE) / 100.0 AS mode_value, n AS n_mode
            FROM c ORDER BY n DESC, cv ASC LIMIT 1
        """,
    }
)

# --- second extras wave oracles ----------------------------------------------

ORACLE_SQL.update(
    {
        "welch_t": """
            WITH c AS (SELECT event_type, count(*) AS n,
                              sum(cv) AS s, sum(cv * cv) AS s2
                       FROM (SELECT event_type,
                                    CAST(value * 100 AS BIGINT) AS cv
                             FROM events)
                       GROUP BY 1),
            p AS (SELECT a.event_type AS type_a, b.event_type AS type_b,
                         CAST(a.s AS DOUBLE) / CAST(a.n AS DOUBLE) AS m1,
                         CAST(b.s AS DOUBLE) / CAST(b.n AS DOUBLE) AS m2,
                         (CAST(a.n * a.s2 - a.s * a.s AS DOUBLE)
                          / (CAST(a.n AS DOUBLE)
                             * (CAST(a.n AS DOUBLE) - 1.0)))
                         / CAST(a.n AS DOUBLE) AS se1,
                         (CAST(b.n * b.s2 - b.s * b.s AS DOUBLE)
                          / (CAST(b.n AS DOUBLE)
                             * (CAST(b.n AS DOUBLE) - 1.0)))
                         / CAST(b.n AS DOUBLE) AS se2,
                         CAST(a.n AS DOUBLE) AS na, CAST(b.n AS DOUBLE) AS nb
                  FROM c a JOIN c b ON a.event_type < b.event_type)
            SELECT type_a, type_b,
                   round((m1 - m2) / sqrt(se1 + se2), 6) AS t_stat,
                   round(((se1 + se2) * (se1 + se2))
                         / ((se1 * se1) / (na - 1.0)
                            + (se2 * se2) / (nb - 1.0)), 6) AS df
            FROM p
        """,
        "skew_kurtosis": """
            WITH e AS (SELECT event_type,
                              CAST(value * 100 AS BIGINT) AS cv FROM events),
            c AS (SELECT event_type, cv, count(*) AS cnt FROM e GROUP BY 1, 2),
            m AS (SELECT event_type, sum(cnt) AS n,
                         sum(cv * cnt) AS s FROM c GROUP BY 1),
            t AS (SELECT c.event_type,
                         CAST(c.cv AS DOUBLE)
                         - CAST(m.s AS DOUBLE) / CAST(m.n AS DOUBLE) AS d,
                         CAST(c.cnt AS DOUBLE) AS w
                  FROM c JOIN m USING (event_type)),
            f AS (SELECT event_type,
                         sum(CAST(floor((d * d) * w) AS HUGEINT)) AS f2,
                         sum(CAST(floor(((d * d) * d) * w) AS HUGEINT)) AS f3,
                         sum(CAST(floor((((d * d) * d) * d) * w)
                                  AS HUGEINT)) AS f4
                  FROM t GROUP BY 1)
            SELECT m.event_type, CAST(m.n AS BIGINT) AS n,
                   round((CAST(f.f3 AS DOUBLE) / CAST(m.n AS DOUBLE))
                         / (sqrt(CAST(f.f2 AS DOUBLE) / CAST(m.n AS DOUBLE))
                            * (CAST(f.f2 AS DOUBLE) / CAST(m.n AS DOUBLE))),
                         6) AS skewness,
                   round((CAST(f.f4 AS DOUBLE) / CAST(m.n AS DOUBLE))
                         / ((CAST(f.f2 AS DOUBLE) / CAST(m.n AS DOUBLE))
                            * (CAST(f.f2 AS DOUBLE) / CAST(m.n AS DOUBLE)))
                         - 3.0, 6) AS ex_kurtosis
            FROM f JOIN m USING (event_type) ORDER BY 1
        """,
        "mean_family": """
            WITH e AS (SELECT event_type,
                              CAST(value * 100 AS BIGINT) AS cv FROM events),
            c AS (SELECT event_type, cv, count(*) AS cnt
                  FROM e WHERE cv > 0 GROUP BY 1, 2),
            f AS (SELECT event_type, sum(cnt) AS n, sum(cv * cnt) AS s,
                         sum(CAST(floor((CAST(cnt AS DOUBLE)
                                         / CAST(cv AS DOUBLE))
                                        * 1000000000000.0)
                                  AS HUGEINT)) AS hf,
                         sum(CAST(floor(ln(CAST(cv AS DOUBLE)) * 1000000.0)
                                  AS HUGEINT) * cnt) AS lf
                  FROM c GROUP BY 1)
            SELECT event_type, CAST(n AS BIGINT) AS n_pos,
                   round((CAST(s AS DOUBLE) / CAST(n AS DOUBLE)) / 100.0,
                         6) AS arith_mean,
                   round((CAST(n AS DOUBLE)
                          / (CAST(hf AS DOUBLE) / 1000000000000.0)) / 100.0,
                         6) AS harmonic_mean,
                   round((CAST(lf AS DOUBLE) / 1000000.0)
                         / CAST(n AS DOUBLE), 6) AS log_gmean_cents
            FROM f ORDER BY 1
        """,
        "cross_corr": """
            WITH h AS (SELECT event_type,
                              epoch_ms(ts) // 3600000 AS hr,
                              sum(CAST(value * 100 AS BIGINT)) AS s
                       FROM events
                       WHERE event_type IN ('click', 'view')
                       GROUP BY 1, 2),
            x AS (SELECT hr, s FROM h WHERE event_type = 'click'),
            y AS (SELECT hr, s FROM h WHERE event_type = 'view'),
            l AS (SELECT unnest([0, 1, 2, 3]) AS lag),
            p AS (SELECT l.lag, x.s AS xs, y.s AS ys
                  FROM l JOIN x ON true JOIN y ON y.hr = x.hr + l.lag),
            a AS (SELECT lag, count(*) AS n, sum(xs) AS sx, sum(ys) AS sy,
                         sum(xs * xs) AS sxx, sum(ys * ys) AS syy,
                         sum(xs * ys) AS sxy
                  FROM p GROUP BY 1)
            SELECT CAST(lag AS BIGINT) AS lag, CAST(n AS BIGINT) AS n,
                   round(CAST(n * sxy - sx * sy AS DOUBLE)
                         / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
                            * sqrt(CAST(n * syy - sy * sy AS DOUBLE))),
                         6) AS r
            FROM a ORDER BY lag
        """,
        "tpch_q20": """
            WITH w AS (SELECT CAST(p_partkey AS BIGINT) AS pk FROM part
                       WHERE p_name LIKE '%widget'),
            q AS (SELECT CAST(l_suppkey AS BIGINT) AS sk,
                         sum(CAST(round(l_quantity) AS BIGINT)) AS qall,
                         sum(CASE WHEN l_shipdate >= TIMESTAMP '1996-01-01'
                                   AND l_shipdate < TIMESTAMP '1997-01-01'
                                  THEN CAST(round(l_quantity) AS BIGINT)
                                  ELSE 0 END) AS q96
                  FROM lineitem JOIN w ON CAST(l_partkey AS BIGINT) = w.pk
                  GROUP BY CAST(l_suppkey AS BIGINT),
                           CAST(l_partkey AS BIGINT))
            SELECT DISTINCT q.sk AS s_suppkey, s.s_name
            FROM q JOIN supplier s ON CAST(s.s_suppkey AS BIGINT) = q.sk
            WHERE q.q96 > 0 AND q.qall > 2 * q.q96
            ORDER BY 1
        """,
    }
)

ORACLE_SQL.update(
    {
        "cramers_v": """
            WITH s AS (SELECT event_type,
                              (epoch_ms(ts) // 3600000) % 24 AS hod
                       FROM events),
            cs AS (SELECT event_type, hod, count(*) AS o FROM s GROUP BY 1, 2),
            ty AS (SELECT DISTINCT event_type FROM s),
            hh AS (SELECT DISTINCT hod FROM s),
            grid AS (SELECT ty.event_type, hh.hod, coalesce(cs.o, 0) AS o
                     FROM ty CROSS JOIN hh
                     LEFT JOIN cs USING (event_type, hod)),
            tot AS (SELECT sum(o) AS n FROM grid),
            r AS (SELECT event_type, sum(o) AS rr FROM grid GROUP BY 1),
            c AS (SELECT hod, sum(o) AS cc FROM grid GROUP BY 1),
            cells AS (SELECT CAST(floor(
                          CAST(g.o * t.n - r.rr * c.cc AS DOUBLE)
                          * CAST(g.o * t.n - r.rr * c.cc AS DOUBLE)
                          / (CAST(t.n AS DOUBLE)
                             * CAST(r.rr * c.cc AS DOUBLE))
                          * 1e6) AS BIGINT) AS m
                      FROM grid g JOIN r USING (event_type)
                      JOIN c USING (hod) CROSS JOIN tot t),
            agg AS (SELECT CAST(sum(m) AS DOUBLE) / 1e6 AS chi2 FROM cells),
            mind AS (SELECT least((SELECT count(*) - 1 FROM ty),
                                  (SELECT count(*) - 1 FROM hh)) AS d)
            SELECT round(sqrt(agg.chi2
                              / (CAST((SELECT n FROM tot) AS DOUBLE)
                                 * CAST(mind.d AS DOUBLE))), 6) AS cramers_v,
                   round(agg.chi2, 6) AS chi2,
                   CAST((SELECT n FROM tot) AS BIGINT) AS n
            FROM agg, mind
        """,
        "mutual_information": """
            WITH s AS (SELECT event_type,
                              (epoch_ms(ts) // 3600000) % 24 AS hod
                       FROM events),
            cs AS (SELECT event_type, hod, count(*) AS o FROM s GROUP BY 1, 2),
            tot AS (SELECT sum(o) AS n FROM cs),
            r AS (SELECT event_type, sum(o) AS rr FROM cs GROUP BY 1),
            c AS (SELECT hod, sum(o) AS cc FROM cs GROUP BY 1),
            cells AS (SELECT CAST(floor(
                          ln(CAST(g.o * t.n AS DOUBLE)
                             / CAST(r.rr * c.cc AS DOUBLE)) * 1e6)
                          AS BIGINT) * g.o AS m
                      FROM cs g JOIN r USING (event_type)
                      JOIN c USING (hod) CROSS JOIN tot t
                      WHERE g.o > 0)
            SELECT round((CAST(sum(m) AS DOUBLE) / 1e6)
                         / CAST((SELECT n FROM tot) AS DOUBLE), 6) AS mi_nats,
                   CAST((SELECT n FROM tot) AS BIGINT) AS n
            FROM cells
        """,
        "jackknife_se": """
            WITH s AS (SELECT event_type,
                              (epoch_ms(ts) // 3600000) % 24 AS hod,
                              CAST(value * 100 AS BIGINT) AS cv FROM events),
            c AS (SELECT event_type, hod, count(*) AS nh, sum(cv) AS sh
                  FROM s GROUP BY 1, 2),
            t AS (SELECT event_type, sum(nh) AS n, sum(sh) AS ss,
                         count(*) AS g FROM c GROUP BY 1),
            th AS (SELECT c.event_type,
                          CAST(floor(CAST(t.ss - c.sh AS DOUBLE)
                                     / CAST(t.n - c.nh AS DOUBLE)
                                     * 1000000.0) AS BIGINT) AS tf
                   FROM c JOIN t USING (event_type)),
            tb AS (SELECT event_type, sum(tf) AS stf FROM th GROUP BY 1),
            d AS (SELECT th.event_type, t.g,
                         CAST(th.tf AS DOUBLE) / 1000000.0
                         - (CAST(tb.stf AS DOUBLE) / 1000000.0)
                           / CAST(t.g AS DOUBLE) AS dd
                  FROM th JOIN tb USING (event_type) JOIN t USING (event_type)),
            f AS (SELECT event_type, any_value(g) AS g,
                         sum(CAST(floor((dd * dd) * 1000000.0)
                                  AS BIGINT)) AS ssq
                  FROM d GROUP BY 1)
            SELECT event_type, CAST(g AS BIGINT) AS g_groups,
                   round(sqrt((CAST(g - 1 AS DOUBLE) / CAST(g AS DOUBLE))
                              * (CAST(ssq AS DOUBLE) / 1000000.0))
                         / 100.0, 6) AS jk_se
            FROM f ORDER BY 1
        """,
    }
)

ORACLE_SQL.update(
    {
        "kaplan_meier": """
            WITH u AS (SELECT user_id, min(epoch_ms(ts)) AS mn,
                              max(epoch_ms(ts)) AS mx
                       FROM events GROUP BY 1),
            dm AS (SELECT max(mx) AS dmax FROM u),
            d AS (SELECT (mx - mn) // 3600000 AS dur,
                         CASE WHEN dm.dmax - mx < 86400000
                              THEN 1 ELSE 0 END AS cens
                  FROM u, dm),
            c AS (SELECT dur, count(*) AS all_n,
                         sum(CASE WHEN cens = 0 THEN 1 ELSE 0 END) AS deaths
                  FROM d GROUP BY 1),
            k AS (SELECT dur, deaths,
                         (SELECT sum(all_n) FROM c)
                         - (sum(all_n) OVER (ORDER BY dur) - all_n) AS at_risk
                  FROM c),
            s AS (SELECT dur, at_risk, deaths,
                         CAST(floor(ln(CAST(at_risk - deaths AS DOUBLE)
                                       / CAST(at_risk AS DOUBLE))
                                    * 1000000.0) AS BIGINT) AS term
                  FROM k WHERE deaths > 0 AND at_risk > deaths),
            f AS (SELECT dur, at_risk, deaths,
                         sum(term) OVER (ORDER BY dur) AS lt FROM s)
            SELECT CAST(dur AS BIGINT) AS duration_h,
                   CAST(at_risk AS BIGINT) AS at_risk,
                   CAST(deaths AS BIGINT) AS deaths,
                   round(CAST(lt AS DOUBLE) / 1000000.0, 6) AS log_surv
            FROM f ORDER BY 1
        """,
        "linreg_2f": """
            WITH s AS (SELECT (epoch_ms(ts) // 3600000) % 24 AS h,
                              ((epoch_ms(ts) // 86400000) + 4) % 7 AS d,
                              CAST(value * 100 AS BIGINT) AS cv FROM events),
            m AS (SELECT CAST(count(*) AS HUGEINT) AS s1,
                         CAST(sum(h) AS HUGEINT) AS sh,
                         CAST(sum(d) AS HUGEINT) AS sd,
                         CAST(sum(h * h) AS HUGEINT) AS shh,
                         CAST(sum(d * d) AS HUGEINT) AS sdd,
                         CAST(sum(h * d) AS HUGEINT) AS shd,
                         CAST(sum(cv) AS HUGEINT) AS sy,
                         CAST(sum(h * cv) AS HUGEINT) AS shy,
                         CAST(sum(d * cv) AS HUGEINT) AS sdy
                  FROM s),
            dets AS (SELECT s1,
                        s1 * (shh * sdd - shd * shd)
                        - sh * (sh * sdd - shd * sd)
                        + sd * (sh * shd - shh * sd) AS det,
                        sy * (shh * sdd - shd * shd)
                        - sh * (shy * sdd - shd * sdy)
                        + sd * (shy * shd - shh * sdy) AS d0,
                        s1 * (shy * sdd - shd * sdy)
                        - sy * (sh * sdd - shd * sd)
                        + sd * (sh * sdy - shy * sd) AS d1,
                        s1 * (shh * sdy - shy * shd)
                        - sh * (sh * sdy - shy * sd)
                        + sy * (sh * shd - shh * sd) AS d2
                     FROM m)
            SELECT CAST(s1 AS BIGINT) AS n,
                   round((CAST(d0 AS DOUBLE) / CAST(det AS DOUBLE)) / 100.0,
                         6) AS beta0,
                   round((CAST(d1 AS DOUBLE) / CAST(det AS DOUBLE)) / 100.0,
                         6) AS beta_hod,
                   round((CAST(d2 AS DOUBLE) / CAST(det AS DOUBLE)) / 100.0,
                         6) AS beta_dow
            FROM dets
        """,
    }
)

ORACLE_SQL.update(
    {
        "t_closeness": """
            WITH d AS (SELECT lang, n_chars // 100 AS sb, source
                       FROM documents),
            g AS (SELECT lang, sb, source, count(*) AS ngs
                  FROM d GROUP BY 1, 2, 3),
            gg AS (SELECT lang, sb, sum(ngs) AS ng FROM g GROUP BY 1, 2),
            s AS (SELECT source, sum(ngs) AS ns FROM g GROUP BY 1),
            tot AS (SELECT sum(ngs) AS n FROM g),
            grid AS (SELECT gg.lang, gg.sb, gg.ng, s.ns, t.n,
                            coalesce(g.ngs, 0) AS ngs
                     FROM gg CROSS JOIN s
                     LEFT JOIN g ON g.lang = gg.lang AND g.sb = gg.sb
                                AND g.source = s.source
                     CROSS JOIN tot t),
            f AS (SELECT lang, sb, any_value(ng) AS ng, any_value(n) AS n,
                         sum(abs(ngs * n - ns * ng)) AS num
                  FROM grid GROUP BY 1, 2)
            SELECT lang, CAST(sb AS BIGINT) AS size_bucket,
                   round(CAST(num AS DOUBLE)
                         / ((2.0 * CAST(ng AS DOUBLE)) * CAST(n AS DOUBLE)),
                         6) AS t_close
            FROM f ORDER BY 1, 2
        """,
        "adamic_adar": """
            WITH d AS (SELECT CAST(doc_id AS BIGINT) AS doc_id, lang,
                              source, n_chars // 100 AS cb
                       FROM documents),
            m1 AS (SELECT lang, cb, min(doc_id) AS a FROM d GROUP BY 1, 2),
            e1 AS (SELECT m1.a, d.doc_id AS b
                   FROM d JOIN m1 USING (lang, cb) WHERE d.doc_id != m1.a),
            m2 AS (SELECT source, cb, min(doc_id) AS a FROM d GROUP BY 1, 2),
            e2 AS (SELECT m2.a, d.doc_id AS b
                   FROM d JOIN m2 USING (source, cb) WHERE d.doc_id != m2.a),
            e AS (SELECT DISTINCT a, b
                  FROM (SELECT * FROM e1 UNION ALL SELECT * FROM e2)),
            dd AS (SELECT DISTINCT w, x FROM (
                       SELECT a AS w, b AS x FROM e
                       UNION ALL SELECT b AS w, a AS x FROM e)),
            dg AS (SELECT w, count(*) AS k FROM dd GROUP BY 1),
            t AS (SELECT w, CAST(floor(1000000.0
                                       / ln(CAST(k AS DOUBLE)))
                                 AS BIGINT) AS term
                  FROM dg WHERE k BETWEEN 2 AND 64),
            p AS (SELECT d1.x AS a, d2.x AS b, t.term
                  FROM dd d1 JOIN dd d2 ON d1.w = d2.w AND d1.x < d2.x
                  JOIN t ON t.w = d1.w),
            sc AS (SELECT a, b, sum(term) AS s FROM p GROUP BY 1, 2)
            SELECT a, b, round(CAST(s AS DOUBLE) / 1000000.0, 6) AS aa_score
            FROM sc ORDER BY s DESC, a, b LIMIT 20
        """,
    }
)

ORACLE_SQL.update(
    {
        "readability": r"""
            WITH c AS (SELECT lang, count(*) AS n_docs,
                              sum(len(regexp_extract_all(text,
                                                         '\S+'))) AS words,
                              sum(len(regexp_extract_all(
                                  text, '\S{6,}'))) AS longw,
                              sum(len(regexp_extract_all(
                                  text, '[aeiouAEIOU]+'))) AS vgroups
                       FROM documents GROUP BY 1)
            SELECT lang, CAST(n_docs AS BIGINT) AS n_docs,
                   CAST(words AS BIGINT) AS words,
                   CAST(longw AS BIGINT) AS longw,
                   CAST(vgroups AS BIGINT) AS vgroups,
                   round(CAST(words AS DOUBLE) / CAST(n_docs AS DOUBLE),
                         6) AS wpd,
                   round(CAST(words AS DOUBLE) / CAST(n_docs AS DOUBLE)
                         + (100.0 * (CAST(longw AS DOUBLE)
                                     / CAST(words AS DOUBLE))),
                         6) AS lix
            FROM c ORDER BY 1
        """,
    }
)

ORACLE_SQL.update(
    {
        "ndcg_at_k": """
            WITH r AS (SELECT lang, CAST(doc_id AS BIGINT) % 4 AS g,
                              row_number() OVER (PARTITION BY lang
                                  ORDER BY n_chars DESC, doc_id ASC) AS rk
                       FROM documents),
            t AS (SELECT lang, g, rk FROM r WHERE rk <= 10),
            d AS (SELECT lang,
                         sum(CAST(floor((CAST(g AS DOUBLE)
                                         / (ln(CAST(rk + 1 AS DOUBLE))
                                            / ln(2.0))) * 1000000.0)
                                  AS BIGINT)) AS dcg_f
                  FROM t GROUP BY 1),
            i AS (SELECT lang, g,
                         row_number() OVER (PARTITION BY lang
                                            ORDER BY g DESC) AS irk
                  FROM t),
            ii AS (SELECT lang,
                          sum(CAST(floor((CAST(g AS DOUBLE)
                                          / (ln(CAST(irk + 1 AS DOUBLE))
                                             / ln(2.0))) * 1000000.0)
                                   AS BIGINT)) AS idcg_f
                   FROM i GROUP BY 1)
            SELECT d.lang,
                   round(CAST(d.dcg_f AS DOUBLE) / 1000000.0, 6) AS dcg,
                   -- ndcg := 0 when every top-k grade is 0 (idcg = 0);
                   -- hit at sf1, where replica-shifted ids keep id%4
                   round(CASE WHEN ii.idcg_f = 0 THEN 0.0
                              ELSE CAST(d.dcg_f AS DOUBLE)
                                   / CAST(ii.idcg_f AS DOUBLE) END,
                         6) AS ndcg
            FROM d JOIN ii USING (lang) ORDER BY 1
        """,
    }
)

ORACLE_SQL.update(
    {
        "sax_words": """
            WITH s AS (SELECT event_type,
                              epoch_ms(ts) // 86400000 AS day,
                              ((epoch_ms(ts) // 3600000) % 24) // 6 AS seg,
                              CAST(value * 100 AS BIGINT) AS cv FROM events),
            c AS (SELECT event_type, day, seg, count(*) AS n,
                         sum(cv) AS ss FROM s GROUP BY 1, 2, 3),
            g AS (SELECT event_type, sum(n) AS nn, sum(ss) AS tot
                  FROM c GROUP BY 1),
            l AS (SELECT c.event_type, c.day, c.seg,
                         chr(97
                             + CASE WHEN 2 * CAST(c.ss AS HUGEINT) * g.nn
                                         > CAST(g.tot AS HUGEINT) * c.n
                                    THEN 1 ELSE 0 END
                             + CASE WHEN CAST(c.ss AS HUGEINT) * g.nn
                                         > CAST(g.tot AS HUGEINT) * c.n
                                    THEN 1 ELSE 0 END
                             + CASE WHEN 2 * CAST(c.ss AS HUGEINT) * g.nn
                                         > 3 * CAST(g.tot AS HUGEINT) * c.n
                                    THEN 1 ELSE 0 END) AS letter
                  FROM c JOIN g USING (event_type)),
            w AS (SELECT event_type, day,
                         string_agg(letter, '' ORDER BY seg) AS word,
                         count(*) AS nseg
                  FROM l GROUP BY 1, 2)
            SELECT event_type, word, CAST(count(*) AS BIGINT) AS n_days
            FROM w WHERE nseg = 4 GROUP BY 1, 2 ORDER BY 1, 2
        """,
    }
)

ORACLE_SQL.update(
    {
        "media_equalize": """
            WITH px AS (SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
                               (CAST(d.doc_id AS BIGINT) * 31
                                + t1.r * 7 + t2.c * 3) % 256 AS v
                        FROM documents d,
                             (SELECT unnest(generate_series(0, 7)) AS r) t1,
                             (SELECT unnest(generate_series(0, 7)) AS c) t2),
            c AS (SELECT doc_id, v, count(*) AS cnt FROM px GROUP BY 1, 2),
            k AS (SELECT doc_id, v, cnt,
                         sum(cnt) OVER (PARTITION BY doc_id
                                        ORDER BY v) AS cdf,
                         min(v) OVER (PARTITION BY doc_id) AS vmin
                  FROM c),
            m AS (SELECT doc_id,
                         max(CASE WHEN v = vmin THEN cdf END) AS cdf_min
                  FROM k GROUP BY 1),
            e AS (SELECT k.doc_id, k.cnt,
                         ((k.cdf - m.cdf_min) * 255)
                         // (64 - m.cdf_min) AS nv
                  FROM k JOIN m USING (doc_id))
            SELECT doc_id, CAST(sum(nv * cnt) AS BIGINT) AS eq_sum,
                   CAST(min(nv) AS BIGINT) AS eq_min,
                   CAST(max(nv) AS BIGINT) AS eq_max
            FROM e GROUP BY 1
        """,
        "attribution": """
            WITH o AS (SELECT user_id, event_id, epoch_ms(ts) AS ms,
                              event_type FROM events),
            w AS (SELECT event_type, ms,
                         last_value(CASE WHEN event_type != 'purchase'
                                         THEN event_type END IGNORE NULLS)
                             OVER (PARTITION BY user_id
                                   ORDER BY ms, event_id
                                   ROWS BETWEEN UNBOUNDED PRECEDING
                                        AND 1 PRECEDING) AS prev_type,
                         last_value(CASE WHEN event_type != 'purchase'
                                         THEN ms END IGNORE NULLS)
                             OVER (PARTITION BY user_id
                                   ORDER BY ms, event_id
                                   ROWS BETWEEN UNBOUNDED PRECEDING
                                        AND 1 PRECEDING) AS prev_ms
                  FROM o),
            p AS (SELECT CASE WHEN prev_type IS NOT NULL
                               AND ms - prev_ms <= 3600000
                              THEN prev_type ELSE 'none' END AS attributed
                  FROM w WHERE event_type = 'purchase')
            SELECT attributed, CAST(count(*) AS BIGINT) AS n_purchases
            FROM p GROUP BY 1 ORDER BY 1
        """,
    }
)

ORACLE_SQL.update(
    {
        "fano_factor": """
            WITH s AS (SELECT event_type,
                              epoch_ms(ts) // 3600000 AS hr FROM events),
            c AS (SELECT event_type, hr, count(*) AS c FROM s GROUP BY 1, 2),
            g AS (SELECT max(hr) - min(hr) + 1 AS hours FROM c),
            f AS (SELECT event_type, sum(c) AS s1, sum(c * c) AS s2
                  FROM c GROUP BY 1)
            SELECT f.event_type, CAST(g.hours AS BIGINT) AS n_hours,
                   CAST(f.s1 AS BIGINT) AS n_events,
                   round(CAST(g.hours * f.s2 - f.s1 * f.s1 AS DOUBLE)
                         / CAST(g.hours * f.s1 AS DOUBLE), 6) AS fano
            FROM f, g ORDER BY 1
        """,
    }
)

# Session-12 statistics (pipelines/stats3.py): trend / randomness /
# stability tests over the dense per-type hourly count grid.
from .stats3 import (  # noqa: E402
    q_allan_variance,
    q_mann_kendall,
    q_turning_points,
)

QUERIES.update({
    "mann_kendall": q_mann_kendall,
    "turning_points": q_turning_points,
    "allan_variance": q_allan_variance,
})

# Shared dense-grid CTE prefix for the session-12 oracles: the census,
# the corpus hour grid, and the zero-filled per-type series.
_DENSE_GRID_CTE = """
            WITH cs AS (SELECT event_type, epoch_ms(ts) // 3600000 AS hr,
                               count(*) AS c
                        FROM events GROUP BY 1, 2),
            bounds AS (SELECT min(hr) AS lo, max(hr) AS hi FROM cs),
            hours AS (SELECT unnest(generate_series(lo, hi)) AS hr
                      FROM bounds),
            types AS (SELECT DISTINCT event_type FROM events),
            d AS (SELECT t.event_type, h.hr, COALESCE(cs.c, 0) AS c
                  FROM types t CROSS JOIN hours h
                  LEFT JOIN cs ON cs.event_type = t.event_type
                              AND cs.hr = h.hr),
            hh AS (SELECT count(*) AS hh FROM hours)
"""

ORACLE_SQL.update(
    {
        "mann_kendall": _DENSE_GRID_CTE + """
            , s AS (SELECT a.event_type,
                           CAST(sum(CASE WHEN b.c > a.c THEN 1
                                         WHEN b.c < a.c THEN -1
                                         ELSE 0 END) AS BIGINT) AS s_stat
                    FROM d a JOIN d b ON b.event_type = a.event_type
                                     AND b.hr > a.hr
                    GROUP BY 1),
            ties AS (SELECT event_type,
                            CAST(sum(t * (t - 1) * (2 * t + 5)) AS BIGINT)
                                AS tie_sum
                     FROM (SELECT event_type, c, count(*) AS t
                           FROM d GROUP BY 1, 2)
                     GROUP BY 1),
            v AS (SELECT s.event_type, s.s_stat,
                         CAST(hh.hh * (hh.hh - 1) * (2 * hh.hh + 5)
                              - ties.tie_sum AS BIGINT) AS var_num
                  FROM s JOIN ties USING (event_type) CROSS JOIN hh)
            SELECT event_type, s_stat, var_num,
                   round(CASE WHEN s_stat > 0 THEN
                                (CAST(s_stat AS DOUBLE) - 1.0)
                                / sqrt(CAST(var_num AS DOUBLE) / 18.0)
                              WHEN s_stat < 0 THEN
                                (CAST(s_stat AS DOUBLE) + 1.0)
                                / sqrt(CAST(var_num AS DOUBLE) / 18.0)
                              ELSE 0.0 END, 6) AS z
            FROM v ORDER BY 1
        """,
        "turning_points": _DENSE_GRID_CTE + """
            , w AS (SELECT event_type, c,
                           lag(c) OVER win AS c0, lead(c) OVER win AS c2
                    FROM d
                    WINDOW win AS (PARTITION BY event_type ORDER BY hr)),
            tp AS (SELECT event_type,
                          CAST(sum(CASE WHEN (c0 < c AND c > c2)
                                          OR (c0 > c AND c < c2)
                                        THEN 1 ELSE 0 END) AS BIGINT)
                              AS t_points
                   FROM w WHERE c0 IS NOT NULL AND c2 IS NOT NULL
                   GROUP BY 1)
            SELECT event_type, t_points, CAST(hh.hh AS BIGINT) AS n_hours,
                   round((CAST(t_points AS DOUBLE)
                          - 2.0 * CAST(hh.hh - 2 AS DOUBLE) / 3.0)
                         / sqrt((16.0 * CAST(hh.hh AS DOUBLE) - 29.0)
                                / 90.0), 6) AS z
            FROM tp CROSS JOIN hh ORDER BY 1
        """,
        "allan_variance": _DENSE_GRID_CTE + """
            , taus AS (SELECT unnest([1, 2, 4]) AS tau),
            wins AS (SELECT d.event_type, t.tau,
                            (d.hr - b.lo) // t.tau AS w,
                            sum(d.c) AS wsum
                     FROM d CROSS JOIN taus t CROSS JOIN bounds b
                          CROSS JOIN hh
                     WHERE (d.hr - b.lo) // t.tau < hh.hh // t.tau
                     GROUP BY 1, 2, 3),
            difs AS (SELECT event_type, tau,
                            wsum - lag(wsum) OVER
                                (PARTITION BY event_type, tau ORDER BY w)
                                AS dw
                     FROM wins),
            agg AS (SELECT event_type, tau,
                           CAST(count(*) + 1 AS BIGINT) AS m_windows,
                           CAST(sum(dw * dw) AS BIGINT) AS ssd
                    FROM difs WHERE dw IS NOT NULL GROUP BY 1, 2)
            SELECT event_type, CAST(tau AS BIGINT) AS tau, m_windows,
                   round(CAST(ssd AS DOUBLE)
                         / CAST(2 * (m_windows - 1) * tau * tau
                                AS DOUBLE), 6) AS avar
            FROM agg ORDER BY 1, 2
        """,
    }
)

# Session-12 wave 2 (pipelines/stats3.py): spectral / ordinal / portmanteau.
from .stats3 import (  # noqa: E402
    q_diurnal_amplitude,
    q_ljung_box,
    q_permutation_entropy,
)

QUERIES.update({
    "diurnal_amplitude": q_diurnal_amplitude,
    "permutation_entropy": q_permutation_entropy,
    "ljung_box": q_ljung_box,
})

ORACLE_SQL.update(
    {
        "diurnal_amplitude": """
            WITH trig(d, fc, fs) AS (VALUES
                (0, 1000000, 0), (1, 965925, 258819), (2, 866025, 499999),
                (3, 707106, 707106), (4, 500000, 866025),
                (5, 258819, 965925), (6, 0, 1000000), (7, -258820, 965925),
                (8, -500000, 866025), (9, -707107, 707106),
                (10, -866026, 499999), (11, -965926, 258819),
                (12, -1000000, 0), (13, -965926, -258820),
                (14, -866026, -500000), (15, -707107, -707107),
                (16, -500001, -866026), (17, -258820, -965926),
                (18, -1, -1000000), (19, 258819, -965926),
                (20, 500000, -866026), (21, 707106, -707107),
                (22, 866025, -500001), (23, 965925, -258820)),
            s AS (SELECT event_type,
                         (epoch_ms(ts) // 3600000) % 24 AS d FROM events),
            cs AS (SELECT event_type, d, count(*) AS t FROM s GROUP BY 1, 2),
            ab AS (SELECT cs.event_type,
                          CAST(sum(cs.t * trig.fc) AS BIGINT) AS a,
                          CAST(sum(cs.t * trig.fs) AS BIGINT) AS b,
                          CAST(sum(cs.t) AS BIGINT) AS s1
                   FROM cs JOIN trig USING (d) GROUP BY 1)
            SELECT event_type, s1 AS n, a AS a_cos, b AS b_sin,
                   round(sqrt(CAST(CAST(a AS HUGEINT) * a
                                   + CAST(b AS HUGEINT) * b AS DOUBLE))
                         / (1e6 * CAST(s1 AS DOUBLE)), 6) AS amp_ratio
            FROM ab ORDER BY 1
        """,
        "permutation_entropy": _DENSE_GRID_CTE + """
            , w AS (SELECT event_type, c AS c1,
                           lag(c) OVER win AS c0, lead(c) OVER win AS c2
                    FROM d
                    WINDOW win AS (PARTITION BY event_type ORDER BY hr)),
            p AS (SELECT event_type,
                         4 * CAST(c0 <= c1 AS INT)
                         + 2 * CAST(c0 <= c2 AS INT)
                         + CAST(c1 <= c2 AS INT) AS pid
                  FROM w WHERE c0 IS NOT NULL AND c2 IS NOT NULL),
            cs2 AS (SELECT event_type, pid, count(*) AS np
                    FROM p GROUP BY 1, 2),
            nn AS (SELECT event_type, CAST(sum(np) AS BIGINT) AS n
                   FROM cs2 GROUP BY 1),
            terms AS (SELECT cs2.event_type,
                             CAST(floor(ln(CAST(cs2.np AS DOUBLE)
                                           / CAST(nn.n AS DOUBLE)) * 1e6)
                                  AS BIGINT) * cs2.np AS m
                      FROM cs2 JOIN nn USING (event_type)),
            pe AS (SELECT t.event_type, nn.n AS n_windows,
                          round(-(CAST(sum(t.m) AS DOUBLE) / 1e6)
                                / CAST(nn.n AS DOUBLE), 6) AS pe_nats
                   FROM terms t JOIN nn ON nn.event_type = t.event_type
                   GROUP BY 1, 2)
            SELECT event_type, n_windows, pe_nats,
                   round(pe_nats / 1.791759, 6) AS pe_norm
            FROM pe ORDER BY 1
        """,
        "ljung_box": _DENSE_GRID_CTE + """
            , lags AS (SELECT unnest([1, 2, 3, 4, 5, 6]) AS k),
            lj AS (SELECT a.event_type, l.k,
                          CAST(sum(a.c * b.c) AS BIGINT) AS pk,
                          CAST(sum(a.c) AS BIGINT) AS ak,
                          CAST(sum(b.c) AS BIGINT) AS bk
                   FROM d a CROSS JOIN lags l
                   JOIN d b ON b.event_type = a.event_type
                           AND b.hr = a.hr + l.k
                   GROUP BY 1, 2),
            base AS (SELECT event_type, CAST(sum(c * c) AS BIGINT) AS p0,
                            CAST(sum(c) AS BIGINT) AS s1
                     FROM d GROUP BY 1),
            rk AS (SELECT lj.event_type, lj.k,
                          CAST(hh.hh * hh.hh * lj.pk
                               - hh.hh * base.s1 * (lj.ak + lj.bk)
                               + (hh.hh - lj.k) * base.s1 * base.s1
                               AS DOUBLE)
                          / CAST(hh.hh * (hh.hh * base.p0
                                          - base.s1 * base.s1)
                                 AS DOUBLE) AS r
                   FROM lj JOIN base USING (event_type) CROSS JOIN hh),
            terms AS (SELECT event_type,
                             CAST(floor(r * r / (hh.hh - k) * 1e12)
                                  AS BIGINT) AS term,
                             CASE WHEN k = 1 THEN round(r, 6) END AS r1
                      FROM rk CROSS JOIN hh)
            SELECT t.event_type, CAST(hh.hh AS BIGINT) AS n_hours,
                   max(t.r1) AS r1,
                   round(CAST(hh.hh * (hh.hh + 2) AS DOUBLE)
                         * (CAST(sum(t.term) AS DOUBLE) / 1e12), 6) AS lb_q
            FROM terms t CROSS JOIN hh
            GROUP BY t.event_type, hh.hh ORDER BY 1
        """,
    }
)

# Session-12 wave 3 (pipelines/stats3.py): vocabulary shape, divergence,
# inequality.
from .stats3 import (  # noqa: E402
    q_hapax_rate,
    q_jsd_types,
    q_theil_index,
    q_zipf_slope,
)

QUERIES.update({
    "zipf_slope": q_zipf_slope,
    "hapax_rate": q_hapax_rate,
    "jsd_types": q_jsd_types,
    "theil_index": q_theil_index,
})

ORACLE_SQL.update(
    {
        "zipf_slope": """
            WITH tok AS (SELECT unnest(regexp_extract_all(text,
                                       '[A-Za-z]+')) AS term
                         FROM documents),
            cs AS (SELECT lower(term) AS term, count(*) AS tf
                   FROM tok GROUP BY 1),
            top AS (SELECT tf, row_number() OVER (ORDER BY tf DESC, term)
                            AS rank
                    FROM cs ORDER BY tf DESC, term LIMIT 100),
            xy AS (SELECT CAST(floor(ln(CAST(rank AS DOUBLE)) * 1e6)
                               AS BIGINT) AS x,
                          CAST(floor(ln(CAST(tf AS DOUBLE)) * 1e6)
                               AS BIGINT) AS y
                   FROM top),
            s AS (SELECT CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(x) AS BIGINT) AS sx,
                         CAST(sum(y) AS BIGINT) AS sy,
                         CAST(sum(x * x) AS BIGINT) AS sxx,
                         CAST(sum(x * y) AS BIGINT) AS sxy
                  FROM xy)
            SELECT n AS n_terms,
                   round(CAST(n * sxy - sx * sy AS DOUBLE)
                         / CAST(n * sxx - sx * sx AS DOUBLE), 6)
                       AS zipf_slope
            FROM s
        """,
        "hapax_rate": """
            WITH tok AS (SELECT lang,
                                unnest(regexp_extract_all(text,
                                       '[A-Za-z]+')) AS term
                         FROM documents),
            cs AS (SELECT COALESCE(lang, '') AS lang, lower(term) AS term,
                          count(*) AS n
                   FROM tok GROUP BY 1, 2),
            agg AS (SELECT lang, CAST(count(*) AS BIGINT) AS vocab,
                           CAST(sum(CASE WHEN n = 1 THEN 1 ELSE 0 END)
                                AS BIGINT) AS hapax,
                           CAST(sum(n) AS BIGINT) AS tokens
                    FROM cs GROUP BY 1)
            SELECT lang, vocab, hapax, tokens,
                   round(CAST(hapax AS DOUBLE) / CAST(vocab AS DOUBLE), 6)
                       AS hapax_rate,
                   round(CAST(vocab AS DOUBLE) / CAST(tokens AS DOUBLE), 6)
                       AS ttr
            FROM agg ORDER BY 1
        """,
        "jsd_types": """
            WITH s AS (SELECT event_type,
                              (epoch_ms(ts) // 3600000) % 24 AS d
                       FROM events),
            cs AS (SELECT event_type, d, count(*) AS t FROM s GROUP BY 1, 2),
            tot AS (SELECT event_type, CAST(sum(t) AS BIGINT) AS tt
                    FROM cs GROUP BY 1),
            pairs AS (SELECT a.event_type AS ta, a.tt AS na,
                             b.event_type AS tb, b.tt AS nb
                      FROM tot a JOIN tot b ON a.event_type < b.event_type),
            dd AS (SELECT unnest(generate_series(0, 23)) AS d),
            grid AS (SELECT p.ta, p.tb, p.na, p.nb,
                            COALESCE(ca.t, 0) AS ad, COALESCE(cb.t, 0) AS bd
                     FROM pairs p CROSS JOIN dd
                     LEFT JOIN cs ca ON ca.event_type = p.ta
                                    AND ca.d = dd.d
                     LEFT JOIN cs cb ON cb.event_type = p.tb
                                    AND cb.d = dd.d),
            terms AS (SELECT ta, tb, na, nb,
                             CASE WHEN ad > 0 THEN
                               ad * CAST(floor(ln(
                                 CAST(2 * ad * nb AS DOUBLE)
                                 / CAST(ad * nb + bd * na AS DOUBLE))
                                 * 1e6) AS BIGINT)
                             ELSE 0 END AS tp,
                             CASE WHEN bd > 0 THEN
                               bd * CAST(floor(ln(
                                 CAST(2 * bd * na AS DOUBLE)
                                 / CAST(ad * nb + bd * na AS DOUBLE))
                                 * 1e6) AS BIGINT)
                             ELSE 0 END AS tq
                      FROM grid)
            SELECT ta AS type_a, tb AS type_b, na AS n_a, nb AS n_b,
                   round(CAST(sum(tp) AS DOUBLE) / (2e6 * CAST(na AS DOUBLE))
                         + CAST(sum(tq) AS DOUBLE)
                           / (2e6 * CAST(nb AS DOUBLE)), 6) AS jsd_nats
            FROM terms GROUP BY ta, tb, na, nb ORDER BY 1, 2
        """,
        "theil_index": """
            WITH u AS (SELECT user_id,
                              CAST(sum(CAST(round(value * 100) AS BIGINT))
                                   AS BIGINT) AS x
                       FROM events GROUP BY 1),
            g AS (SELECT CAST(sum(x) AS BIGINT) AS s,
                         CAST(count(*) AS BIGINT) AS n FROM u),
            t AS (SELECT CAST(floor(ln(CAST(u.x * g.n AS DOUBLE)
                                       / CAST(g.s AS DOUBLE)) * 1e6)
                              AS BIGINT) * u.x AS m
                  FROM u CROSS JOIN g)
            SELECT (SELECT n FROM g) AS n_users,
                   round((CAST(sum(m) AS DOUBLE) / 1e6)
                         / CAST((SELECT s FROM g) AS DOUBLE), 6) AS theil
            FROM t
        """,
    }
)

# Session-12 wave 4 (pipelines/stats3.py): extreme values, self-similarity,
# epidemiology-style 2x2.
from .stats3 import (  # noqa: E402
    q_gumbel_daily_max,
    q_hurst_aggvar,
    q_odds_ratio,
)

QUERIES.update({
    "gumbel_daily_max": q_gumbel_daily_max,
    "hurst_aggvar": q_hurst_aggvar,
    "odds_ratio": q_odds_ratio,
})

ORACLE_SQL.update(
    {
        "gumbel_daily_max": _DENSE_GRID_CTE + """
            , nd AS (SELECT hh // 24 AS n_days FROM hh),
            dm AS (SELECT d.event_type, (d.hr - b.lo) // 24 AS day,
                          max(d.c) AS mx
                   FROM d CROSS JOIN bounds b CROSS JOIN nd
                   WHERE (d.hr - b.lo) // 24 < nd.n_days
                   GROUP BY 1, 2),
            mom AS (SELECT event_type, CAST(count(*) AS BIGINT) AS dd,
                           CAST(sum(mx) AS BIGINT) AS s1,
                           CAST(sum(mx * mx) AS BIGINT) AS s2
                    FROM dm GROUP BY 1),
            fit AS (SELECT event_type, dd, s1,
                           sqrt(CAST(dd * s2 - s1 * s1 AS DOUBLE)
                                / CAST(dd * (dd - 1) AS DOUBLE))
                           * 0.779696 AS beta
                    FROM mom)
            SELECT event_type, dd AS n_days, s1 AS max_sum,
                   round(beta, 6) AS gumbel_beta,
                   round(CAST(s1 AS DOUBLE) / CAST(dd AS DOUBLE)
                         - 0.577216 * beta, 6) AS gumbel_mu
            FROM fit ORDER BY 1
        """,
        "hurst_aggvar": _DENSE_GRID_CTE + """
            , sizes(m, lnm) AS (VALUES (1, 0), (2, 693147), (4, 1386294),
                                       (8, 2079441), (16, 2772588)),
            wins AS (SELECT d.event_type, s.m, s.lnm,
                            (d.hr - b.lo) // s.m AS w, sum(d.c) AS wsum
                     FROM d CROSS JOIN sizes s CROSS JOIN bounds b
                          CROSS JOIN hh
                     WHERE (d.hr - b.lo) // s.m < hh.hh // s.m
                     GROUP BY 1, 2, 3, 4),
            v AS (SELECT event_type, m, lnm,
                         CAST(count(*) AS BIGINT) AS mm,
                         CAST(sum(wsum * wsum) AS BIGINT) AS sww,
                         CAST(sum(wsum) AS BIGINT) AS sw
                  FROM wins GROUP BY 1, 2, 3),
            pts AS (SELECT event_type, CAST(lnm AS BIGINT) AS x,
                           CAST(floor(ln(
                               CAST(mm * sww - sw * sw AS DOUBLE)
                               / CAST(mm * (mm - 1) * m * m AS DOUBLE))
                               * 1e6) AS BIGINT) AS y
                    FROM v),
            ols AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                           CAST(sum(x) AS BIGINT) AS sx,
                           CAST(sum(y) AS BIGINT) AS sy,
                           CAST(sum(x * x) AS BIGINT) AS sxx,
                           CAST(sum(x * y) AS BIGINT) AS sxy
                    FROM pts GROUP BY 1),
            sl AS (SELECT event_type,
                          CAST(n * sxy - sx * sy AS DOUBLE)
                          / CAST(n * sxx - sx * sx AS DOUBLE) AS slope
                   FROM ols)
            SELECT event_type, round(slope, 6) AS slope,
                   round(1.0 + slope / 2.0, 6) AS hurst
            FROM sl ORDER BY 1
        """,
        "odds_ratio": """
            WITH s AS (SELECT
                CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS p,
                CASE WHEN ((epoch_ms(ts) // 86400000) + 3) % 7 >= 5
                     THEN 1 ELSE 0 END AS w
                FROM events),
            c AS (SELECT
                CAST(sum(CASE WHEN p = 1 AND w = 1 THEN 1 ELSE 0 END)
                     AS BIGINT) AS a,
                CAST(sum(CASE WHEN p = 1 AND w = 0 THEN 1 ELSE 0 END)
                     AS BIGINT) AS b,
                CAST(sum(CASE WHEN p = 0 AND w = 1 THEN 1 ELSE 0 END)
                     AS BIGINT) AS c,
                CAST(sum(CASE WHEN p = 0 AND w = 0 THEN 1 ELSE 0 END)
                     AS BIGINT) AS d
                FROM s),
            f AS (SELECT a, b, c, d,
                         CASE WHEN least(a, b, c, d) = 0 THEN 0.0
                              ELSE CAST(floor(ln(CAST(a * d AS DOUBLE)
                                            / CAST(b * c AS DOUBLE)) * 1e6)
                                        AS BIGINT) / 1e6 END AS lor,
                         CASE WHEN least(a, b, c, d) = 0 THEN 0.0
                              ELSE sqrt(1.0 / a + 1.0 / b
                                        + 1.0 / c + 1.0 / d) END AS se
                  FROM c)
            SELECT a AS n_pw, b AS n_pd, c AS n_ow, d AS n_od,
                   round(CASE WHEN least(a, b, c, d) = 0 THEN 0.0
                              ELSE CAST(a * d AS DOUBLE)
                                   / CAST(b * c AS DOUBLE) END,
                         6) AS odds_ratio,
                   lor AS log_or,
                   CASE WHEN least(a, b, c, d) = 0 THEN 0.0
                        ELSE round(lor - 1.959964 * se, 6) END AS ci_lo,
                   CASE WHEN least(a, b, c, d) = 0 THEN 0.0
                        ELSE round(lor + 1.959964 * se, 6) END AS ci_hi
            FROM f
        """,
    }
)

# Session-12 wave 5 (pipelines/stats3.py): distributional distance,
# concordance, directional coupling.
from .stats3 import (  # noqa: E402
    q_bhattacharyya,
    q_kendall_w,
    q_transfer_entropy,
)

QUERIES.update({
    "bhattacharyya": q_bhattacharyya,
    "kendall_w": q_kendall_w,
    "transfer_entropy": q_transfer_entropy,
})

ORACLE_SQL.update(
    {
        "bhattacharyya": """
            WITH s AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events),
            cs AS (SELECT event_type, cv, count(*) AS n
                   FROM s GROUP BY 1, 2),
            tot AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS tt
                    FROM cs GROUP BY 1),
            terms AS (SELECT a.event_type AS ta, b.event_type AS tb,
                             ta_t.tt AS na, tb_t.tt AS nb,
                             CAST(floor(sqrt(
                                 CAST(a.n * b.n AS DOUBLE)
                                 / CAST(ta_t.tt * tb_t.tt AS DOUBLE))
                                 * 1e12) AS BIGINT) AS term
                      FROM cs a
                      JOIN cs b ON b.cv = a.cv
                              AND a.event_type < b.event_type
                      JOIN tot ta_t ON ta_t.event_type = a.event_type
                      JOIN tot tb_t ON tb_t.event_type = b.event_type),
            bcs AS (SELECT ta, tb,
                           CAST(sum(term) AS DOUBLE) / 1e12 AS bc
                    FROM terms GROUP BY 1, 2)
            SELECT ta AS type_a, tb AS type_b, round(bc, 6) AS bc,
                   round(sqrt(1.0 - bc), 6) AS hellinger
            FROM bcs ORDER BY 1, 2
        """,
        "kendall_w": """
            WITH s AS (SELECT event_type,
                              (epoch_ms(ts) // 3600000) % 24 AS d
                       FROM events),
            cs AS (SELECT event_type, d, count(*) AS t FROM s GROUP BY 1, 2),
            types AS (SELECT DISTINCT event_type FROM events),
            dd AS (SELECT unnest(generate_series(0, 23)) AS d),
            grid AS (SELECT ty.event_type, dd.d, COALESCE(cs.t, 0) AS t
                     FROM types ty CROSS JOIN dd
                     LEFT JOIN cs ON cs.event_type = ty.event_type
                                 AND cs.d = dd.d),
            ranked AS (SELECT event_type, d, t,
                              2 * (rank() OVER (PARTITION BY event_type
                                                ORDER BY t) - 1)
                              + count(*) OVER (PARTITION BY event_type, t)
                              + 1 AS r2
                       FROM grid),
            rsum AS (SELECT d, CAST(sum(r2) AS BIGINT) AS r2d
                     FROM ranked GROUP BY 1),
            ties AS (SELECT CAST(sum(g * g * g - g) AS BIGINT) AS tie_sum
                     FROM (SELECT event_type, t, count(*) AS g
                           FROM grid GROUP BY 1, 2)),
            kk AS (SELECT CAST(count(*) AS BIGINT) AS k FROM types),
            agg AS (SELECT CAST(count(*) AS BIGINT) AS n,
                           CAST(sum(r2d) AS BIGINT) AS sr,
                           CAST(sum(r2d * r2d) AS BIGINT) AS srr
                    FROM rsum)
            SELECT kk.k AS k_judges, agg.n AS n_items,
                   round(CAST(3 * (agg.n * agg.srr - agg.sr * agg.sr)
                              AS DOUBLE)
                         / CAST(agg.n * (kk.k * kk.k
                                         * (agg.n * agg.n * agg.n - agg.n)
                                         - kk.k * ties.tie_sum)
                                AS DOUBLE), 6) AS kendall_w
            FROM agg CROSS JOIN kk CROSS JOIN ties
        """,
        "transfer_entropy": _DENSE_GRID_CTE + """
            , tots AS (SELECT event_type, CAST(sum(c) AS BIGINT) AS s1
                       FROM d GROUP BY 1),
            bits AS (SELECT d.event_type, d.hr,
                            CASE WHEN d.c * hh.hh > t.s1
                                 THEN 1 ELSE 0 END AS b
                     FROM d JOIN tots t USING (event_type) CROSS JOIN hh),
            pairs AS (SELECT a.event_type AS src, b.event_type AS dst
                      FROM types a JOIN types b
                        ON a.event_type <> b.event_type),
            tri AS (SELECT p.src, p.dst, x1.b AS x1, x0.b AS x0, y0.b AS y0,
                           count(*) AS n
                    FROM pairs p
                    JOIN bits x0 ON x0.event_type = p.dst
                    JOIN bits x1 ON x1.event_type = p.dst
                               AND x1.hr = x0.hr + 1
                    JOIN bits y0 ON y0.event_type = p.src
                               AND y0.hr = x0.hr
                    GROUP BY 1, 2, 3, 4, 5),
            m_xy AS (SELECT src, dst, x0, y0,
                            CAST(sum(n) AS BIGINT) AS n
                     FROM tri GROUP BY 1, 2, 3, 4),
            m_xx AS (SELECT src, dst, x1, x0,
                            CAST(sum(n) AS BIGINT) AS n
                     FROM tri GROUP BY 1, 2, 3, 4),
            m_x AS (SELECT src, dst, x0, CAST(sum(n) AS BIGINT) AS n
                    FROM tri GROUP BY 1, 2, 3),
            terms AS (SELECT t.src, t.dst,
                             t.n * CAST(floor(ln(
                                 CAST(t.n * mx.n AS DOUBLE)
                                 / CAST(mxy.n * mxx.n AS DOUBLE)) * 1e6)
                                 AS BIGINT) AS m
                      FROM tri t
                      JOIN m_xy mxy ON mxy.src = t.src AND mxy.dst = t.dst
                                   AND mxy.x0 = t.x0 AND mxy.y0 = t.y0
                      JOIN m_xx mxx ON mxx.src = t.src AND mxx.dst = t.dst
                                   AND mxx.x1 = t.x1 AND mxx.x0 = t.x0
                      JOIN m_x mx ON mx.src = t.src AND mx.dst = t.dst
                                 AND mx.x0 = t.x0),
            te AS (SELECT src, dst,
                          round((CAST(sum(m) AS DOUBLE) / 1e6)
                                / CAST(hh.hh - 1 AS DOUBLE), 6) AS te_nats
                   FROM terms CROSS JOIN hh GROUP BY src, dst, hh.hh)
            SELECT src AS src_type, dst AS dst_type,
                   CAST(hh.hh - 1 AS BIGINT) AS n_trans, te_nats
            FROM te CROSS JOIN hh ORDER BY 1, 2
        """,
    }
)

# Session-12 wave 6 (pipelines/stats3.py): heavy tails, reliability,
# paired comparison.
from .stats3 import (  # noqa: E402
    q_cronbach_alpha,
    q_hill_tail,
    q_sign_test,
)

QUERIES.update({
    "hill_tail": q_hill_tail,
    "cronbach_alpha": q_cronbach_alpha,
    "sign_test": q_sign_test,
})

ORACLE_SQL.update(
    {
        "hill_tail": """
            WITH u AS (SELECT user_id,
                              CAST(sum(CAST(round(value * 100) AS BIGINT))
                                   AS BIGINT) AS x
                       FROM events GROUP BY 1),
            top AS (SELECT x FROM u ORDER BY x DESC LIMIT 51),
            mn AS (SELECT CAST(min(x) AS BIGINT) AS xmin,
                          CAST(count(*) - 1 AS BIGINT) AS k FROM top),
            t AS (SELECT CAST(floor(ln(CAST(top.x AS DOUBLE)
                                       / CAST(mn.xmin AS DOUBLE)) * 1e6)
                              AS BIGINT) AS m
                  FROM top CROSS JOIN mn)
            SELECT mn.k AS n_tail, mn.xmin AS x_min,
                   round(CAST(mn.k AS DOUBLE) * 1e6
                         / CAST(sum(t.m) AS DOUBLE), 6) AS hill_alpha
            FROM t CROSS JOIN mn GROUP BY mn.k, mn.xmin
        """,
        "cronbach_alpha": _DENSE_GRID_CTE + """
            , nd AS (SELECT hh // 24 AS n_days FROM hh),
            dc AS (SELECT d.event_type, (d.hr - b.lo) // 24 AS day,
                          CAST(sum(d.c) AS BIGINT) AS x
                   FROM d CROSS JOIN bounds b CROSS JOIN nd
                   WHERE (d.hr - b.lo) // 24 < nd.n_days
                   GROUP BY 1, 2),
            items AS (SELECT event_type, CAST(sum(x) AS BIGINT) AS s,
                             CAST(sum(x * x) AS BIGINT) AS q
                      FROM dc GROUP BY 1),
            ni AS (SELECT CAST(sum(nd.n_days * i.q - i.s * i.s) AS BIGINT)
                          AS num_items,
                          CAST(count(*) AS BIGINT) AS k
                   FROM items i CROSS JOIN nd GROUP BY ALL),
            tots AS (SELECT day, CAST(sum(x) AS BIGINT) AS t
                     FROM dc GROUP BY 1),
            nt AS (SELECT CAST((SELECT n_days FROM nd) * sum(t * t)
                               - sum(t) * sum(t) AS BIGINT) AS num_total
                   FROM tots)
            SELECT ni.k AS k_items,
                   CAST(nd.n_days AS BIGINT) AS n_days,
                   round((CAST(ni.k AS DOUBLE) / CAST(ni.k - 1 AS DOUBLE))
                         * (1.0 - CAST(ni.num_items AS DOUBLE)
                                  / CAST(nt.num_total AS DOUBLE)), 6)
                       AS cronbach_alpha
            FROM ni CROSS JOIN nt CROSS JOIN nd
        """,
        "sign_test": _DENSE_GRID_CTE + """
            , p AS (SELECT a.event_type AS ta, b.event_type AS tb,
                           CAST(sum(CASE WHEN a.c > b.c THEN 1 ELSE 0 END)
                                AS BIGINT) AS a,
                           CAST(sum(CASE WHEN a.c < b.c THEN 1 ELSE 0 END)
                                AS BIGINT) AS b
                    FROM d a JOIN d b ON b.hr = a.hr
                                     AND a.event_type < b.event_type
                    GROUP BY 1, 2)
            SELECT ta AS type_a, tb AS type_b, a AS n_gt, b AS n_lt,
                   round(CASE WHEN a + b = 0 THEN 0.0
                              ELSE (2.0 * CAST(a AS DOUBLE)
                                    - CAST(a + b AS DOUBLE))
                                   / sqrt(CAST(a + b AS DOUBLE)) END,
                         6) AS z
            FROM p ORDER BY 1, 2
        """,
    }
)

# Session-12 wave 7 (pipelines/stats3.py): rank-paired test, spectral
# shape, exact audience continuity.
from .stats3 import (  # noqa: E402
    q_dau_jaccard,
    q_spectral_flatness,
    q_wilcoxon_signed,
)

QUERIES.update({
    "wilcoxon_signed": q_wilcoxon_signed,
    "spectral_flatness": q_spectral_flatness,
    "dau_jaccard": q_dau_jaccard,
})

_TRIG24_VALUES = """(VALUES
                (0, 1000000, 0), (1, 965925, 258819), (2, 866025, 499999),
                (3, 707106, 707106), (4, 500000, 866025),
                (5, 258819, 965925), (6, 0, 1000000), (7, -258820, 965925),
                (8, -500000, 866025), (9, -707107, 707106),
                (10, -866026, 499999), (11, -965926, 258819),
                (12, -1000000, 0), (13, -965926, -258820),
                (14, -866026, -500000), (15, -707107, -707107),
                (16, -500001, -866026), (17, -258820, -965926),
                (18, -1, -1000000), (19, 258819, -965926),
                (20, 500000, -866026), (21, 707106, -707107),
                (22, 866025, -500001), (23, 965925, -258820))"""

ORACLE_SQL.update(
    {
        "wilcoxon_signed": _DENSE_GRID_CTE + """
            , dif AS (SELECT a.event_type AS ta, b.event_type AS tb,
                             a.c - b.c AS dv, abs(a.c - b.c) AS ad
                      FROM d a JOIN d b ON b.hr = a.hr
                                       AND a.event_type < b.event_type
                      WHERE a.c <> b.c),
            ranked AS (SELECT ta, tb, dv,
                              2 * (rank() OVER (PARTITION BY ta, tb
                                                ORDER BY ad) - 1)
                              + count(*) OVER (PARTITION BY ta, tb, ad)
                              + 1 AS r2
                       FROM dif),
            ties AS (SELECT ta, tb,
                            CAST(sum(g * g * g - g) AS BIGINT) AS tie_sum
                     FROM (SELECT ta, tb, ad, count(*) AS g
                           FROM dif GROUP BY 1, 2, 3)
                     GROUP BY 1, 2),
            agg AS (SELECT ta, tb, CAST(count(*) AS BIGINT) AS n,
                           CAST(sum(CASE WHEN dv > 0 THEN r2 ELSE 0 END)
                                AS BIGINT) AS w2
                    FROM ranked GROUP BY 1, 2)
            SELECT agg.ta AS type_a, agg.tb AS type_b,
                   agg.n AS n_nonzero, agg.w2,
                   round((CAST(agg.w2 AS DOUBLE)
                          - CAST(agg.n * (agg.n + 1) AS DOUBLE) / 2.0)
                         / sqrt(CAST(2 * agg.n * (agg.n + 1)
                                     * (2 * agg.n + 1) - ties.tie_sum
                                     AS DOUBLE) / 12.0), 6) AS z
            FROM agg JOIN ties ON ties.ta = agg.ta AND ties.tb = agg.tb
            ORDER BY 1, 2
        """,
        "spectral_flatness": """
            WITH trig(d, fc, fs) AS """ + _TRIG24_VALUES + """,
            s AS (SELECT event_type,
                         (epoch_ms(ts) // 3600000) % 24 AS d FROM events),
            cs AS (SELECT event_type, d, count(*) AS t FROM s GROUP BY 1, 2),
            ks AS (SELECT unnest(generate_series(1, 11)) AS k),
            ab AS (SELECT cs.event_type, ks.k,
                          CAST(sum(cs.t * tc.fc) AS BIGINT) AS a,
                          CAST(sum(cs.t * tc.fs) AS BIGINT) AS b
                   FROM cs CROSS JOIN ks
                   JOIN trig tc ON tc.d = (ks.k * cs.d) % 24
                   GROUP BY 1, 2),
            p AS (SELECT event_type, k,
                         CAST(a AS HUGEINT) * a + CAST(b AS HUGEINT) * b
                             AS pk
                  FROM ab),
            agg AS (SELECT event_type,
                           CAST(sum(CAST(floor(ln(CAST(pk AS DOUBLE))
                                               * 1e6) AS BIGINT))
                                AS BIGINT) AS slnp,
                           sum(pk) AS sump
                    FROM p GROUP BY 1)
            SELECT event_type,
                   round(CAST(slnp AS DOUBLE) / (11 * 1e6)
                         - CAST(floor(ln(CAST(sump AS DOUBLE) / 11.0)
                                      * 1e6) AS BIGINT) / 1e6, 6)
                       AS ln_flatness
            FROM agg ORDER BY 1
        """,
        "dau_jaccard": """
            WITH ud AS (SELECT DISTINCT user_id,
                               epoch_ms(ts) // 86400000 AS day
                        FROM events),
            act AS (SELECT day, CAST(count(*) AS BIGINT) AS a
                    FROM ud GROUP BY 1),
            bth AS (SELECT a.day, CAST(count(*) AS BIGINT) AS b
                    FROM ud a JOIN ud b ON b.user_id = a.user_id
                                       AND b.day = a.day + 1
                    GROUP BY 1)
            SELECT CAST(a1.day AS BIGINT) AS day, a1.a AS n_day,
                   a2.a AS n_next, COALESCE(bth.b, 0) AS n_both,
                   round(CAST(COALESCE(bth.b, 0) AS DOUBLE)
                         / CAST(a1.a + a2.a - COALESCE(bth.b, 0)
                                AS DOUBLE), 6) AS jaccard
            FROM act a1 JOIN act a2 ON a2.day = a1.day + 1
            LEFT JOIN bth ON bth.day = a1.day
            ORDER BY 1
        """,
    }
)

# Session-12 wave 8 (pipelines/stats3.py): agreement, blocked ranks,
# collision diversity.
from .stats3 import (  # noqa: E402
    q_cohen_kappa,
    q_friedman_test,
    q_renyi2_entropy,
)

QUERIES.update({
    "cohen_kappa": q_cohen_kappa,
    "friedman_test": q_friedman_test,
    "renyi2_entropy": q_renyi2_entropy,
})

ORACLE_SQL.update(
    {
        "cohen_kappa": _DENSE_GRID_CTE + """
            , tots AS (SELECT event_type, CAST(sum(c) AS BIGINT) AS s1
                       FROM d GROUP BY 1),
            bits AS (SELECT d.event_type, d.hr,
                            CASE WHEN d.c * hh.hh > t.s1
                                 THEN 1 ELSE 0 END AS b
                     FROM d JOIN tots t USING (event_type) CROSS JOIN hh),
            p AS (SELECT x.event_type AS ta, y.event_type AS tb,
                         CAST(sum(CASE WHEN x.b = y.b THEN 1 ELSE 0 END)
                              AS BIGINT) AS agree,
                         CAST(sum(x.b) AS BIGINT) AS a1,
                         CAST(sum(y.b) AS BIGINT) AS b1
                  FROM bits x JOIN bits y ON y.hr = x.hr
                                         AND x.event_type < y.event_type
                  GROUP BY 1, 2)
            SELECT p.ta AS type_a, p.tb AS type_b, p.agree AS n_agree,
                   round(CAST(hh.hh * p.agree - p.a1 * p.b1
                              - (hh.hh - p.a1) * (hh.hh - p.b1)
                              AS DOUBLE)
                         / CAST(hh.hh * hh.hh - p.a1 * p.b1
                                - (hh.hh - p.a1) * (hh.hh - p.b1)
                                AS DOUBLE), 6) AS kappa
            FROM p CROSS JOIN hh ORDER BY 1, 2
        """,
        "friedman_test": _DENSE_GRID_CTE + """
            , kk AS (SELECT CAST(count(*) AS BIGINT) AS k FROM types),
            ranked AS (SELECT event_type, hr,
                              2 * (rank() OVER (PARTITION BY hr
                                                ORDER BY c) - 1)
                              + count(*) OVER (PARTITION BY hr, c)
                              + 1 AS r2
                       FROM d),
            rj AS (SELECT event_type, CAST(sum(r2) AS BIGINT) AS r2j
                   FROM ranked GROUP BY 1),
            aggs AS (SELECT CAST(sum(r2j * r2j) AS BIGINT) AS srr FROM rj),
            a2 AS (SELECT CAST(sum(r2 * r2) AS BIGINT) AS a2 FROM ranked)
            SELECT kk.k AS k_types, CAST(hh.hh AS BIGINT) AS n_blocks,
                   round(CAST((kk.k - 1)
                              * (aggs.srr - hh.hh * hh.hh * kk.k
                                 * (kk.k + 1) * (kk.k + 1)) AS DOUBLE)
                         / CAST(a2.a2 - hh.hh * kk.k
                                * (kk.k + 1) * (kk.k + 1)
                                AS DOUBLE), 6) AS chi2
            FROM kk CROSS JOIN hh CROSS JOIN aggs CROSS JOIN a2
        """,
        "renyi2_entropy": """
            WITH s AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events),
            cs AS (SELECT event_type, cv, count(*) AS n
                   FROM s GROUP BY 1, 2),
            agg AS (SELECT event_type,
                           CAST(sum(n) AS BIGINT) AS tot,
                           CAST(sum(n * n) AS BIGINT) AS coll
                    FROM cs GROUP BY 1)
            SELECT event_type, tot AS n,
                   round(-CAST(floor(ln(CAST(coll AS DOUBLE)
                                        / CAST(tot * tot AS DOUBLE))
                                     * 1e6) AS BIGINT) / 1e6, 6) AS renyi2
            FROM agg ORDER BY 1
        """,
    }
)

# Session-12 wave 9 (pipelines/stats3.py): seasonality strength, ACF
# half-life, symbolic richness.
from .stats3 import (  # noqa: E402
    q_acf_halflife,
    q_kmer_richness,
    q_seasonal_strength,
)

QUERIES.update({
    "seasonal_strength": q_seasonal_strength,
    "acf_halflife": q_acf_halflife,
    "kmer_richness": q_kmer_richness,
})

ORACLE_SQL.update(
    {
        "seasonal_strength": _DENSE_GRID_CTE + """
            , nd AS (SELECT hh // 24 AS n_days, (hh // 24) * 24 AS use_h
                     FROM hh),
            dw AS (SELECT d.event_type, d.c,
                          (d.hr - b.lo) % 24 AS hod
                   FROM d CROSS JOIN bounds b CROSS JOIN nd
                   WHERE d.hr - b.lo < nd.use_h),
            sh AS (SELECT event_type, hod, CAST(sum(c) AS BIGINT) AS s_hod
                   FROM dw GROUP BY 1, 2),
            r AS (SELECT dw.event_type,
                         CAST(sum((nd.n_days * dw.c - sh.s_hod)
                                  * (nd.n_days * dw.c - sh.s_hod))
                              AS BIGINT) AS ssr,
                         CAST(sum(dw.c) AS BIGINT) AS s1,
                         CAST(sum(dw.c * dw.c) AS BIGINT) AS p0
                  FROM dw JOIN sh ON sh.event_type = dw.event_type
                                 AND sh.hod = dw.hod
                  CROSS JOIN nd GROUP BY 1)
            SELECT event_type,
                   round(1.0 - CAST(nd.use_h * r.ssr AS DOUBLE)
                               / CAST(nd.n_days * nd.n_days
                                      * (nd.use_h * r.p0 - r.s1 * r.s1)
                                      AS DOUBLE), 6) AS r2_seasonal
            FROM r CROSS JOIN nd ORDER BY 1
        """,
        "acf_halflife": _DENSE_GRID_CTE + """
            , lags AS (SELECT unnest(generate_series(1, 48)) AS k),
            lj AS (SELECT a.event_type, l.k,
                          CAST(sum(a.c * b.c) AS BIGINT) AS pk,
                          CAST(sum(a.c) AS BIGINT) AS ak,
                          CAST(sum(b.c) AS BIGINT) AS bk
                   FROM d a CROSS JOIN lags l
                   JOIN d b ON b.event_type = a.event_type
                           AND b.hr = a.hr + l.k
                   GROUP BY 1, 2),
            base AS (SELECT event_type, CAST(sum(c * c) AS BIGINT) AS p0,
                            CAST(sum(c) AS BIGINT) AS s1
                     FROM d GROUP BY 1),
            covs AS (SELECT lj.event_type, lj.k,
                            CAST(hh.hh * hh.hh * lj.pk
                                 - hh.hh * base.s1 * (lj.ak + lj.bk)
                                 + (hh.hh - lj.k) * base.s1 * base.s1
                                 AS BIGINT) AS covk,
                            CAST(hh.hh * (hh.hh * base.p0
                                          - base.s1 * base.s1)
                                 AS BIGINT) AS den
                     FROM lj JOIN base USING (event_type) CROSS JOIN hh),
            c1 AS (SELECT event_type, covk AS cov1, den
                   FROM covs WHERE k = 1),
            hl AS (SELECT c.event_type, CAST(min(c.k) AS BIGINT)
                              AS halflife
                   FROM covs c JOIN c1 USING (event_type)
                   WHERE c.k >= 2 AND 2 * c.covk < c1.cov1
                   GROUP BY 1)
            SELECT c1.event_type,
                   CAST(COALESCE(hl.halflife, -1) AS BIGINT) AS halflife,
                   round(CAST(c1.cov1 AS DOUBLE)
                         / CAST(c1.den AS DOUBLE), 6) AS r1,
                   CASE WHEN hl.halflife IS NULL THEN 0.0
                        ELSE round(CAST(ch.covk AS DOUBLE)
                                   / CAST(c1.den AS DOUBLE), 6)
                   END AS r_half
            FROM c1 LEFT JOIN hl USING (event_type)
            LEFT JOIN covs ch ON ch.event_type = c1.event_type
                             AND ch.k = hl.halflife
            ORDER BY 1
        """,
        "kmer_richness": _DENSE_GRID_CTE + """
            , tots AS (SELECT event_type, CAST(sum(c) AS BIGINT) AS s1
                       FROM d GROUP BY 1),
            bits AS (SELECT d.event_type, d.hr,
                            CASE WHEN d.c * hh.hh > t.s1
                                 THEN 1 ELSE 0 END AS b
                     FROM d JOIN tots t USING (event_type) CROSS JOIN hh),
            w AS (SELECT event_type,
                         b + 2 * lead(b, 1) OVER win
                         + 4 * lead(b, 2) OVER win
                         + 8 * lead(b, 3) OVER win
                         + 16 * lead(b, 4) OVER win
                         + 32 * lead(b, 5) OVER win
                         + 64 * lead(b, 6) OVER win
                         + 128 * lead(b, 7) OVER win AS wid,
                         lead(b, 7) OVER win AS b7
                  FROM bits
                  WINDOW win AS (PARTITION BY event_type ORDER BY hr)),
            dist AS (SELECT event_type,
                            CAST(count(DISTINCT wid) AS BIGINT) AS nd,
                            CAST(count(*) AS BIGINT) AS nw
                     FROM w WHERE b7 IS NOT NULL GROUP BY 1)
            SELECT event_type, nw AS n_windows, nd AS n_distinct,
                   round(CAST(nd AS DOUBLE)
                         / CAST(least(256, nw) AS DOUBLE), 6) AS richness
            FROM dist ORDER BY 1
        """,
    }
)

# Session-12 wave 10 (pipelines/stats3.py): partial autocorrelation,
# stochastic ordering, median test.
from .stats3 import (  # noqa: E402
    q_moods_median,
    q_pacf2,
    q_stochastic_dominance,
)

QUERIES.update({
    "pacf2": q_pacf2,
    "stochastic_dominance": q_stochastic_dominance,
    "moods_median": q_moods_median,
})

ORACLE_SQL.update(
    {
        "pacf2": _DENSE_GRID_CTE + """
            , lags AS (SELECT unnest([1, 2]) AS k),
            lj AS (SELECT a.event_type, l.k,
                          CAST(sum(a.c * b.c) AS BIGINT) AS pk,
                          CAST(sum(a.c) AS BIGINT) AS ak,
                          CAST(sum(b.c) AS BIGINT) AS bk
                   FROM d a CROSS JOIN lags l
                   JOIN d b ON b.event_type = a.event_type
                           AND b.hr = a.hr + l.k
                   GROUP BY 1, 2),
            base AS (SELECT event_type, CAST(sum(c * c) AS BIGINT) AS p0,
                            CAST(sum(c) AS BIGINT) AS s1
                     FROM d GROUP BY 1),
            covs AS (SELECT lj.event_type, lj.k,
                            CAST(hh.hh * hh.hh * lj.pk
                                 - hh.hh * base.s1 * (lj.ak + lj.bk)
                                 + (hh.hh - lj.k) * base.s1 * base.s1
                                 AS HUGEINT) AS covk,
                            CAST(hh.hh * (hh.hh * base.p0
                                          - base.s1 * base.s1)
                                 AS HUGEINT) AS c0
                     FROM lj JOIN base USING (event_type) CROSS JOIN hh),
            w AS (SELECT c1.event_type, c1.covk AS c1v, c2.covk AS c2v,
                         c1.c0
                  FROM covs c1 JOIN covs c2
                    ON c2.event_type = c1.event_type
                   AND c1.k = 1 AND c2.k = 2)
            SELECT event_type,
                   round(CAST(c1v AS DOUBLE) / CAST(c0 AS DOUBLE), 6)
                       AS phi11,
                   round(CAST(c2v * c0 - c1v * c1v AS DOUBLE)
                         / CAST(c0 * c0 - c1v * c1v AS DOUBLE), 6)
                       AS phi22
            FROM w ORDER BY 1
        """,
        "stochastic_dominance": """
            WITH s AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events),
            cs AS (SELECT event_type, cv, count(*) AS n
                   FROM s GROUP BY 1, 2),
            tot AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS tt
                    FROM cs GROUP BY 1),
            pairs AS (SELECT a.event_type AS ta, a.tt AS na,
                             b.event_type AS tb, b.tt AS nb
                      FROM tot a JOIN tot b ON a.event_type < b.event_type),
            sup AS (SELECT p.ta, p.tb, p.na, p.nb, v.cv,
                           COALESCE(ca.n, 0) AS an, COALESCE(cb.n, 0) AS bn
                    FROM pairs p
                    JOIN (SELECT DISTINCT cv FROM cs) v ON TRUE
                    LEFT JOIN cs ca ON ca.event_type = p.ta
                                   AND ca.cv = v.cv
                    LEFT JOIN cs cb ON cb.event_type = p.tb
                                   AND cb.cv = v.cv
                    WHERE ca.n IS NOT NULL OR cb.n IS NOT NULL),
            cums AS (SELECT ta, tb, na, nb, cv,
                            sum(an) OVER w AS ca, sum(bn) OVER w AS cb
                     FROM sup
                     WINDOW w AS (PARTITION BY ta, tb ORDER BY cv)),
            flags AS (SELECT ta, tb,
                             CAST(count(*) AS BIGINT) AS ns,
                             CAST(sum(CASE WHEN ca * nb <= cb * na
                                           THEN 1 ELSE 0 END) AS BIGINT)
                                 AS n_le,
                             CAST(sum(CASE WHEN ca * nb >= cb * na
                                           THEN 1 ELSE 0 END) AS BIGINT)
                                 AS n_ge
                      FROM cums GROUP BY 1, 2)
            SELECT ta AS type_a, tb AS type_b, ns AS n_support,
                   round(CAST(n_le AS DOUBLE) / CAST(ns AS DOUBLE), 6)
                       AS frac_a_below,
                   CAST(CASE WHEN n_le = ns THEN 1
                             WHEN n_ge = ns THEN -1 ELSE 0 END AS BIGINT)
                       AS fsd
            FROM flags ORDER BY 1, 2
        """,
        "moods_median": """
            WITH s AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events),
            cs AS (SELECT event_type, cv, count(*) AS n
                   FROM s GROUP BY 1, 2),
            g AS (SELECT cv, sum(n) AS n FROM cs GROUP BY 1),
            tot AS (SELECT CAST(sum(n) AS BIGINT) AS nt FROM g),
            med AS (SELECT CAST(min(cv) AS BIGINT) AS m
                    FROM (SELECT cv, sum(n) OVER (ORDER BY cv) AS cum
                          FROM g) CROSS JOIN tot
                    WHERE 2 * cum >= tot.nt),
            cells AS (SELECT cs.event_type,
                             CAST(sum(CASE WHEN cs.cv > med.m
                                           THEN cs.n ELSE 0 END)
                                  AS BIGINT) AS o_above,
                             CAST(sum(CASE WHEN cs.cv <= med.m
                                           THEN cs.n ELSE 0 END)
                                  AS BIGINT) AS o_below
                      FROM cs CROSS JOIN med GROUP BY 1),
            rows_ AS (SELECT CAST(sum(o_above) AS BIGINT) AS r_above,
                             CAST(sum(o_below) AS BIGINT) AS r_below,
                             CAST(count(*) AS BIGINT) AS k
                      FROM cells),
            terms AS (SELECT
                CAST(floor(CAST(CAST(c.o_above * t.nt
                                     - r.r_above * (c.o_above + c.o_below)
                                     AS HUGEINT)
                                * (c.o_above * t.nt
                                   - r.r_above * (c.o_above + c.o_below))
                                AS DOUBLE)
                           / CAST(CAST(t.nt AS HUGEINT) * r.r_above
                                  * (c.o_above + c.o_below) AS DOUBLE)
                           * 1e6) AS BIGINT)
                + CAST(floor(CAST(CAST(c.o_below * t.nt
                                       - r.r_below * (c.o_above + c.o_below)
                                       AS HUGEINT)
                                  * (c.o_below * t.nt
                                     - r.r_below * (c.o_above + c.o_below))
                                  AS DOUBLE)
                             / CAST(CAST(t.nt AS HUGEINT) * r.r_below
                                    * (c.o_above + c.o_below) AS DOUBLE)
                             * 1e6) AS BIGINT) AS m
                FROM cells c CROSS JOIN rows_ r CROSS JOIN tot t)
            SELECT (SELECT m FROM med) AS median_cv,
                   (SELECT k FROM rows_) AS k_types,
                   (SELECT nt FROM tot) AS n,
                   round(CAST(sum(m) AS DOUBLE) / 1e6, 6) AS chi2
            FROM terms
        """,
    }
)

# Session-12 wave 11 (pipelines/stats3.py): k-group rank test, variance
# homogeneity, outlier detection.
from .stats3 import (  # noqa: E402
    q_brown_forsythe,
    q_grubbs,
    q_kruskal_wallis,
)

QUERIES.update({
    "kruskal_wallis": q_kruskal_wallis,
    "brown_forsythe": q_brown_forsythe,
    "grubbs": q_grubbs,
})

_CENT_CENSUS_CTE = """
            WITH s AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events),
            cs AS (SELECT event_type, cv, count(*) AS n
                   FROM s GROUP BY 1, 2)
"""

ORACLE_SQL.update(
    {
        "kruskal_wallis": _CENT_CENSUS_CTE + """
            , m AS (SELECT cv, sum(n) AS n FROM cs GROUP BY 1),
            rk AS (SELECT cv,
                          2 * (sum(n) OVER (ORDER BY cv) - n) + n + 1 AS r2
                   FROM m),
            tot AS (SELECT CAST(sum(n) AS BIGINT) AS nt,
                           CAST(sum(n * n * n - n) AS BIGINT) AS ties
                    FROM m),
            gj AS (SELECT cs.event_type, CAST(sum(cs.n) AS BIGINT) AS nj,
                          CAST(sum(cs.n * rk.r2) AS BIGINT) AS r2j
                   FROM cs JOIN rk USING (cv) GROUP BY 1),
            terms AS (SELECT CAST(floor(
                          CAST(CAST(r2j AS HUGEINT) * r2j AS DOUBLE)
                          / CAST(nj AS DOUBLE) * 1e6) AS HUGEINT) AS m
                      FROM gj),
            agg AS (SELECT CAST(sum(m) AS HUGEINT) AS total,
                           CAST(count(*) AS BIGINT) AS k
                    FROM terms)
            SELECT agg.k AS k_groups, tot.nt AS n,
                   round((3.0 * (CAST(agg.total AS DOUBLE) / 1e6)
                          / CAST(tot.nt * (tot.nt + 1) AS DOUBLE)
                          - 3.0 * CAST(tot.nt + 1 AS DOUBLE))
                         * CAST(tot.nt * tot.nt * tot.nt - tot.nt
                                AS DOUBLE)
                         / CAST(tot.nt * tot.nt * tot.nt - tot.nt
                                - tot.ties AS DOUBLE), 6) AS h_stat
            FROM agg CROSS JOIN tot
        """,
        "brown_forsythe": _CENT_CENSUS_CTE + """
            , tots AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS nj
                       FROM cs GROUP BY 1),
            med AS (SELECT c.event_type, CAST(min(c.cv) AS BIGINT) AS med
                    FROM (SELECT event_type, cv,
                                 sum(n) OVER (PARTITION BY event_type
                                              ORDER BY cv) AS cum
                          FROM cs) c
                    JOIN tots USING (event_type)
                    WHERE 2 * c.cum >= tots.nj GROUP BY 1),
            z AS (SELECT cs.event_type, abs(cs.cv - med.med) AS z, cs.n
                  FROM cs JOIN med USING (event_type)),
            gj AS (SELECT event_type, CAST(sum(n * z) AS BIGINT) AS szj,
                          CAST(sum(n * z * z) AS BIGINT) AS szzj,
                          CAST(sum(n) AS BIGINT) AS nj
                   FROM z GROUP BY 1),
            terms AS (SELECT gj.*, CAST(floor(
                          CAST(CAST(szj AS HUGEINT) * szj AS DOUBLE)
                          / CAST(nj AS DOUBLE) * 1e6) AS HUGEINT) AS f
                      FROM gj),
            agg AS (SELECT CAST(count(*) AS BIGINT) AS k,
                           CAST(sum(nj) AS BIGINT) AS nt,
                           CAST(sum(szj) AS BIGINT) AS sz,
                           CAST(sum(szzj) AS BIGINT) AS szz,
                           CAST(sum(f) AS HUGEINT) AS fsum
                    FROM terms)
            SELECT k AS k_groups, nt AS n,
                   round((CAST(nt - k AS DOUBLE) / CAST(k - 1 AS DOUBLE))
                         * (CAST(nt AS DOUBLE)
                            * (CAST(fsum AS DOUBLE) / 1e6)
                            - CAST(CAST(sz AS HUGEINT) * sz AS DOUBLE))
                         / (CAST(nt AS DOUBLE)
                            * (CAST(szz AS DOUBLE)
                               - CAST(fsum AS DOUBLE) / 1e6)), 6)
                       AS w_stat
            FROM agg
        """,
        "grubbs": _CENT_CENSUS_CTE + """
            , tots AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS n,
                              CAST(sum(n * cv) AS BIGINT) AS s,
                              CAST(sum(n * cv * cv) AS BIGINT) AS sxx
                       FROM cs GROUP BY 1),
            best AS (SELECT event_type, cv AS x_star
                     FROM (SELECT cs.event_type, cs.cv,
                                  row_number() OVER (
                                      PARTITION BY cs.event_type
                                      ORDER BY abs(t.n * cs.cv - t.s)
                                          DESC, cs.cv) AS rn
                           FROM cs JOIN tots t USING (event_type))
                     WHERE rn = 1)
            SELECT t.event_type, b.x_star AS outlier_cv,
                   round(CAST(abs(t.n * b.x_star - t.s) AS DOUBLE)
                         / sqrt(CAST(t.n AS DOUBLE)
                                * CAST(CAST(t.n AS HUGEINT) * t.sxx
                                       - CAST(t.s AS HUGEINT) * t.s
                                       AS DOUBLE)
                                / CAST(t.n - 1 AS DOUBLE)), 6) AS g_stat
            FROM tots t JOIN best b USING (event_type) ORDER BY 1
        """,
    }
)

# Session-12 wave 12 (pipelines/stats3.py): vocabulary growth, lexical
# burstiness, customer segmentation.
from .stats3 import (  # noqa: E402
    q_heaps_law,
    q_rfm_segments,
    q_term_burstiness,
)

QUERIES.update({
    "heaps_law": q_heaps_law,
    "term_burstiness": q_term_burstiness,
    "rfm_segments": q_rfm_segments,
})

ORACLE_SQL.update(
    {
        "heaps_law": """
            WITH dd AS (SELECT CAST(count(*) AS BIGINT) AS d
                        FROM documents),
            ord AS (SELECT doc_id,
                           row_number() OVER (ORDER BY doc_id) AS rn
                    FROM documents),
            cuts AS (SELECT ii.i, ord.doc_id AS c
                     FROM (SELECT unnest(generate_series(1, 5)) AS i) ii
                     CROSS JOIN dd
                     JOIN ord ON ord.rn = (dd.d * ii.i) // 5),
            tok AS (SELECT doc_id, lower(term) AS term
                    FROM (SELECT doc_id,
                                 unnest(regexp_extract_all(text,
                                        '[A-Za-z]+')) AS term
                          FROM documents)),
            tq AS (SELECT cuts.i, CAST(count(*) AS BIGINT) AS t
                   FROM tok JOIN cuts ON tok.doc_id <= cuts.c GROUP BY 1),
            fmin AS (SELECT term, min(doc_id) AS md FROM tok GROUP BY 1),
            vq AS (SELECT cuts.i, CAST(count(*) AS BIGINT) AS v
                   FROM fmin JOIN cuts ON fmin.md <= cuts.c GROUP BY 1),
            pts AS (SELECT CAST(floor(ln(CAST(tq.t AS DOUBLE)) * 1e6)
                                AS BIGINT) AS x,
                           CAST(floor(ln(CAST(vq.v AS DOUBLE)) * 1e6)
                                AS BIGINT) AS y
                    FROM tq JOIN vq USING (i)),
            ols AS (SELECT CAST(count(*) AS BIGINT) AS n,
                           CAST(sum(x) AS BIGINT) AS sx,
                           CAST(sum(y) AS BIGINT) AS sy,
                           CAST(sum(x * x) AS BIGINT) AS sxx,
                           CAST(sum(x * y) AS BIGINT) AS sxy
                    FROM pts)
            SELECT n AS n_points,
                   (SELECT CAST(count(*) AS BIGINT) FROM fmin)
                       AS vocab_full,
                   round(CASE WHEN n < 2 OR n * sxx - sx * sx = 0
                              THEN 0.0
                              ELSE CAST(n * sxy - sx * sy AS DOUBLE)
                                   / CAST(n * sxx - sx * sx AS DOUBLE)
                              END, 6) AS heaps_beta
            FROM ols
        """,
        "term_burstiness": """
            WITH tok AS (SELECT doc_id, lower(term) AS term
                         FROM (SELECT doc_id,
                                      unnest(regexp_extract_all(text,
                                             '[A-Za-z]+')) AS term
                               FROM documents)),
            dt AS (SELECT doc_id, term, count(*) AS f
                   FROM tok GROUP BY 1, 2),
            dd AS (SELECT CAST(count(*) AS BIGINT) AS d FROM documents),
            agg AS (SELECT term, CAST(sum(f) AS BIGINT) AS s1,
                           CAST(sum(f * f) AS BIGINT) AS s2
                    FROM dt GROUP BY 1),
            top AS (SELECT * FROM agg ORDER BY s1 DESC, term LIMIT 10)
            SELECT term, s1 AS cf,
                   round(CAST(dd.d * s2 - s1 * s1 AS DOUBLE)
                         / CAST(dd.d * s1 AS DOUBLE), 6) AS vmr
            FROM top CROSS JOIN dd ORDER BY cf DESC, term
        """,
        "rfm_segments": """
            WITH u AS (SELECT user_id,
                              CAST(max(epoch_ms(ts) // 86400000)
                                   AS BIGINT) AS day,
                              CAST(count(*) AS BIGINT) AS n,
                              CAST(sum(CAST(round(value * 100) AS BIGINT))
                                   AS BIGINT) AS cents
                       FROM events GROUP BY 1),
            mx AS (SELECT max(day) AS md FROM u),
            r AS (SELECT user_id,
                         ntile(5) OVER (ORDER BY mx.md - day, user_id)
                             AS r_q,
                         ntile(5) OVER (ORDER BY n, user_id) AS f_q,
                         ntile(5) OVER (ORDER BY cents, user_id) AS m_q
                  FROM u CROSS JOIN mx)
            SELECT CAST(r_q AS BIGINT) AS r_q, CAST(f_q AS BIGINT) AS f_q,
                   CAST(m_q AS BIGINT) AS m_q,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM r GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
        """,
    }
)

# Session-12 wave 13 (pipelines/stats3.py): paired binary change, related
# binary treatments, binary association.
from .stats3 import (  # noqa: E402
    q_cochran_q,
    q_matthews_corr,
    q_mcnemar,
)

QUERIES.update({
    "mcnemar": q_mcnemar,
    "cochran_q": q_cochran_q,
    "matthews_corr": q_matthews_corr,
})

ORACLE_SQL.update(
    {
        "mcnemar": """
            WITH p AS (SELECT user_id,
                              epoch_ms(ts) // 86400000 AS day,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events WHERE event_type = 'purchase'),
            vc AS (SELECT cv, count(*) AS n FROM p GROUP BY 1),
            nt AS (SELECT CAST(sum(n) AS BIGINT) AS n FROM vc),
            thr AS (SELECT CAST(min(cv) AS BIGINT) AS thr
                    FROM (SELECT cv, sum(n) OVER (ORDER BY cv) AS cum
                          FROM vc) CROSS JOIN nt
                    WHERE 10 * cum >= 9 * nt.n),
            g AS (SELECT CAST((min(day) + max(day) + 1) // 2 AS BIGINT)
                             AS mid
                  FROM p),
            hv AS (SELECT p.user_id,
                          max(CASE WHEN p.day < g.mid THEN 1 ELSE 0 END)
                              AS early,
                          max(CASE WHEN p.day >= g.mid THEN 1 ELSE 0 END)
                              AS late
                   FROM p CROSS JOIN g CROSS JOIN thr
                   WHERE p.cv > thr.thr
                   GROUP BY 1),
            cells AS (SELECT
                CAST(sum(CASE WHEN early = 1 AND late = 0
                              THEN 1 ELSE 0 END) AS BIGINT) AS b,
                CAST(sum(CASE WHEN early = 0 AND late = 1
                              THEN 1 ELSE 0 END) AS BIGINT) AS c
                FROM hv)
            SELECT (SELECT mid FROM g) AS mid_day,
                   (SELECT thr FROM thr) AS thr_cv,
                   b AS b_early_only, c AS c_late_only,
                   round(CASE WHEN b + c = 0 THEN 0.0
                              ELSE CAST((b - c) * (b - c) AS DOUBLE)
                                   / CAST(b + c AS DOUBLE) END,
                         6) AS mcnemar
            FROM cells
        """,
        "cochran_q": """
            WITH av AS (SELECT user_id, event_type,
                               CAST(round(value * 100) AS BIGINT) AS cv
                        FROM events),
            vc AS (SELECT cv, count(*) AS n FROM av GROUP BY 1),
            nt AS (SELECT CAST(sum(n) AS BIGINT) AS n FROM vc),
            thr AS (SELECT CAST(min(cv) AS BIGINT) AS thr
                    FROM (SELECT cv, sum(n) OVER (ORDER BY cv) AS cum
                          FROM vc) CROSS JOIN nt
                    WHERE 10 * cum >= 9 * nt.n),
            ut AS (SELECT DISTINCT av.user_id, av.event_type
                   FROM av CROSS JOIN thr WHERE av.cv > thr.thr),
            col AS (SELECT event_type, CAST(count(*) AS BIGINT) AS c
                    FROM ut GROUP BY 1),
            rw AS (SELECT user_id, CAST(count(*) AS BIGINT) AS r
                   FROM ut GROUP BY 1),
            agg AS (SELECT CAST(count(*) AS BIGINT) AS k,
                           CAST(sum(c) AS BIGINT) AS n,
                           CAST(sum(c * c) AS BIGINT) AS sum_c2
                    FROM col),
            rr AS (SELECT CAST(sum(r * r) AS BIGINT) AS sum_r2 FROM rw)
            SELECT agg.k AS k_treatments,
                   (SELECT thr FROM thr) AS thr_cv, agg.n AS n_ones,
                   round(CAST((agg.k - 1)
                              * (agg.k * agg.sum_c2 - agg.n * agg.n)
                              AS DOUBLE)
                         / CAST(agg.k * agg.n - rr.sum_r2 AS DOUBLE), 6)
                       AS cochran_q
            FROM agg CROSS JOIN rr
        """,
        "matthews_corr": _DENSE_GRID_CTE + """
            , tots AS (SELECT event_type, CAST(sum(c) AS BIGINT) AS s1
                       FROM d GROUP BY 1),
            bits AS (SELECT d.event_type, d.hr,
                            CASE WHEN d.c * hh.hh > t.s1
                                 THEN 1 ELSE 0 END AS b
                     FROM d JOIN tots t USING (event_type) CROSS JOIN hh),
            p AS (SELECT x.event_type AS ta, y.event_type AS tb,
                         CAST(sum(x.b * y.b) AS BIGINT) AS a,
                         CAST(sum(x.b * (1 - y.b)) AS BIGINT) AS b,
                         CAST(sum((1 - x.b) * y.b) AS BIGINT) AS c,
                         CAST(sum((1 - x.b) * (1 - y.b)) AS BIGINT) AS d
                  FROM bits x JOIN bits y ON y.hr = x.hr
                                         AND x.event_type < y.event_type
                  GROUP BY 1, 2)
            SELECT ta AS type_a, tb AS type_b,
                   round(CAST(a * d - b * c AS DOUBLE)
                         / sqrt(CAST((a + b) * (a + c) * (b + d) * (c + d)
                                     AS DOUBLE)), 6) AS mcc
            FROM p ORDER BY 1, 2
        """,
    }
)

# Session-12 wave 14 (pipelines/stats3.py): survival comparison, CDF
# distance, partial correlation.
from .stats3 import (  # noqa: E402
    q_cramer_von_mises,
    q_log_rank,
    q_partial_corr,
)

QUERIES.update({
    "log_rank": q_log_rank,
    "cramer_von_mises": q_cramer_von_mises,
    "partial_corr": q_partial_corr,
})

ORACLE_SQL.update(
    {
        "log_rank": """
            WITH u AS (SELECT user_id, min(epoch_ms(ts)) AS mn,
                              max(epoch_ms(ts)) AS mx
                       FROM events GROUP BY 1),
            gmx AS (SELECT max(mx) AS dmax FROM u),
            c AS (SELECT (mx - mn) // 3600000 AS dur,
                         CASE WHEN gmx.dmax - mx < 86400000
                              THEN 1 ELSE 0 END AS cens,
                         CAST(user_id % 2 AS BIGINT) AS grp,
                         count(*) AS cnt
                  FROM u CROSS JOIN gmx GROUP BY 1, 2, 3),
            tot AS (SELECT CAST(sum(CASE WHEN grp = 1 THEN cnt
                                         ELSE 0 END) AS BIGINT) AS n1,
                           CAST(sum(CASE WHEN grp = 0 THEN cnt
                                         ELSE 0 END) AS BIGINT) AS n0
                    FROM c),
            durs AS (SELECT dur,
                            CAST(sum(CASE WHEN grp = 1 AND cens = 0
                                          THEN cnt ELSE 0 END)
                                 AS BIGINT) AS d1,
                            CAST(sum(CASE WHEN grp = 0 AND cens = 0
                                          THEN cnt ELSE 0 END)
                                 AS BIGINT) AS d0,
                            CAST(sum(CASE WHEN grp = 1 THEN cnt
                                          ELSE 0 END) AS BIGINT) AS r1,
                            CAST(sum(CASE WHEN grp = 0 THEN cnt
                                          ELSE 0 END) AS BIGINT) AS r0
                     FROM c GROUP BY 1),
            risk AS (SELECT dur, d1, d0,
                            tot.n1 - sum(r1) OVER wo + r1 AS at1,
                            tot.n0 - sum(r0) OVER wo + r0 AS at0
                     FROM durs CROSS JOIN tot
                     WINDOW wo AS (ORDER BY dur
                                   ROWS BETWEEN UNBOUNDED PRECEDING
                                        AND CURRENT ROW)),
            terms AS (SELECT d1, at1, at0, at1 + at0 AS nt,
                             d1 + d0 AS dt
                      FROM risk),
            f AS (SELECT
                CAST(sum(CASE WHEN dt > 0 AND nt > 1 THEN d1
                              ELSE 0 END) AS BIGINT) AS o1,
                CAST(sum(CASE WHEN dt > 0 AND nt > 1 THEN
                    CAST(floor(CAST(dt * at1 AS DOUBLE)
                               / CAST(nt AS DOUBLE) * 1e6) AS BIGINT)
                    ELSE 0 END) AS BIGINT) AS e1,
                CAST(sum(CASE WHEN dt > 0 AND nt > 1 THEN
                    CAST(floor(CAST(dt * at1 * at0 * (nt - dt)
                                    AS DOUBLE)
                               / CAST(nt * nt * (nt - 1) AS DOUBLE)
                               * 1e6) AS BIGINT)
                    ELSE 0 END) AS BIGINT) AS v
                FROM terms)
            SELECT tot.n1 AS n_grp1, tot.n0 AS n_grp0,
                   f.o1 AS o1_deaths,
                   round((CAST(f.o1 AS DOUBLE)
                          - CAST(f.e1 AS DOUBLE) / 1e6)
                         / sqrt(CAST(f.v AS DOUBLE) / 1e6), 6)
                       AS log_rank_z
            FROM f CROSS JOIN tot
        """,
        "cramer_von_mises": """
            WITH s AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events
                       WHERE event_type IN ('purchase', 'view')),
            c AS (SELECT cv,
                         CAST(sum(CASE WHEN event_type = 'purchase'
                                       THEN 1 ELSE 0 END)
                              AS BIGINT) AS a,
                         CAST(sum(CASE WHEN event_type = 'view'
                                       THEN 1 ELSE 0 END)
                              AS BIGINT) AS b
                  FROM s GROUP BY 1),
            t AS (SELECT CAST(sum(a) AS BIGINT) AS n,
                         CAST(sum(b) AS BIGINT) AS m FROM c),
            k AS (SELECT a, b, sum(a) OVER (ORDER BY cv) AS ca,
                         sum(b) OVER (ORDER BY cv) AS cb
                  FROM c),
            num AS (SELECT CAST(sum(
                        CAST(a + b AS HUGEINT)
                        * (ca * t.m - cb * t.n)
                        * (ca * t.m - cb * t.n)) AS HUGEINT) AS num
                    FROM k CROSS JOIN t)
            SELECT t.n AS n_purchase, t.m AS n_view,
                   round(CAST(num.num AS DOUBLE)
                         / CAST(CAST(t.n AS HUGEINT) * t.m
                                * (t.n + t.m) * (t.n + t.m)
                                AS DOUBLE), 6) AS cvm_t
            FROM num CROSS JOIN t
        """,
        "partial_corr": """
            WITH s AS (SELECT (epoch_ms(ts) // 3600000) % 24 AS hod,
                              ((epoch_ms(ts) // 86400000) + 3) % 7
                                  AS dow,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events),
            m AS (SELECT CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(cv) AS BIGINT) AS sx,
                         CAST(sum(cv * cv) AS BIGINT) AS sxx,
                         CAST(sum(hod) AS BIGINT) AS sy,
                         CAST(sum(hod * hod) AS BIGINT) AS syy,
                         CAST(sum(dow) AS BIGINT) AS sz,
                         CAST(sum(dow * dow) AS BIGINT) AS szz,
                         CAST(sum(cv * hod) AS BIGINT) AS sxy,
                         CAST(sum(cv * dow) AS BIGINT) AS sxz,
                         CAST(sum(hod * dow) AS BIGINT) AS syz
                  FROM s),
            r AS (SELECT n,
                    CAST(CAST(n AS HUGEINT) * sxy
                         - CAST(sx AS HUGEINT) * sy AS DOUBLE)
                    / sqrt(CAST(CAST(n AS HUGEINT) * sxx
                                - CAST(sx AS HUGEINT) * sx AS DOUBLE)
                           * CAST(CAST(n AS HUGEINT) * syy
                                  - CAST(sy AS HUGEINT) * sy
                                  AS DOUBLE)) AS rxy,
                    CAST(CAST(n AS HUGEINT) * sxz
                         - CAST(sx AS HUGEINT) * sz AS DOUBLE)
                    / sqrt(CAST(CAST(n AS HUGEINT) * sxx
                                - CAST(sx AS HUGEINT) * sx AS DOUBLE)
                           * CAST(CAST(n AS HUGEINT) * szz
                                  - CAST(sz AS HUGEINT) * sz
                                  AS DOUBLE)) AS rxz,
                    CAST(CAST(n AS HUGEINT) * syz
                         - CAST(sy AS HUGEINT) * sz AS DOUBLE)
                    / sqrt(CAST(CAST(n AS HUGEINT) * syy
                                - CAST(sy AS HUGEINT) * sy AS DOUBLE)
                           * CAST(CAST(n AS HUGEINT) * szz
                                  - CAST(sz AS HUGEINT) * sz
                                  AS DOUBLE)) AS ryz
                  FROM m)
            SELECT n, round(rxy, 6) AS r_xy,
                   round((rxy - rxz * ryz)
                         / sqrt((1.0 - rxz * rxz)
                                * (1.0 - ryz * ryz)), 6) AS r_partial
            FROM r
        """,
    }
)

# Session-12 wave 15 (pipelines/stats3.py): circular two-sample test,
# nonparametric change point, variance ratio.
from .stats3 import (  # noqa: E402
    q_f_test,
    q_kuiper,
    q_pettitt,
)

QUERIES.update({
    "kuiper": q_kuiper,
    "pettitt": q_pettitt,
    "f_test": q_f_test,
})

ORACLE_SQL.update(
    {
        "kuiper": """
            WITH s AS (SELECT event_type,
                              (epoch_ms(ts) // 3600000) % 24 AS d
                       FROM events
                       WHERE event_type IN ('purchase', 'view')),
            c AS (SELECT d,
                         sum(CASE WHEN event_type = 'purchase'
                                  THEN 1 ELSE 0 END) AS a,
                         sum(CASE WHEN event_type = 'view'
                                  THEN 1 ELSE 0 END) AS b
                  FROM s GROUP BY 1),
            dd AS (SELECT unnest(generate_series(0, 23)) AS d),
            g AS (SELECT dd.d, COALESCE(c.a, 0) AS a,
                         COALESCE(c.b, 0) AS b
                  FROM dd LEFT JOIN c USING (d)),
            t AS (SELECT CAST(sum(a) AS BIGINT) AS n,
                         CAST(sum(b) AS BIGINT) AS m FROM g),
            k AS (SELECT d, sum(a) OVER w AS ca, sum(b) OVER w AS cb
                  FROM g WINDOW w AS (ORDER BY d)),
            dv AS (SELECT CAST(ca * t.m - cb * t.n AS BIGINT) AS dvv
                   FROM k CROSS JOIN t)
            SELECT t.n AS n_purchase, t.m AS n_view,
                   CAST(max(dvv) - min(dvv) AS BIGINT) AS v_num,
                   round(CAST(max(dvv) - min(dvv) AS DOUBLE)
                         / CAST(t.n * t.m AS DOUBLE), 6) AS kuiper_v
            FROM dv CROSS JOIN t GROUP BY t.n, t.m
        """,
        "pettitt": _DENSE_GRID_CTE + """
            , rw AS (SELECT a.event_type, a.hr,
                            CAST(sum(CASE WHEN a.c > b.c THEN 1
                                          WHEN a.c < b.c THEN -1
                                          ELSE 0 END) AS BIGINT) AS rs
                     FROM d a JOIN d b ON b.event_type = a.event_type
                     GROUP BY 1, 2),
            u AS (SELECT event_type,
                         sum(rs) OVER (PARTITION BY event_type
                                       ORDER BY hr) AS u,
                         row_number() OVER (PARTITION BY event_type
                                            ORDER BY hr) - 1 AS idx,
                         count(*) OVER (PARTITION BY event_type) AS nh
                  FROM rw),
            uu AS (SELECT event_type, idx, abs(u) AS au
                   FROM u WHERE idx < nh - 1),
            mx AS (SELECT event_type, max(au) AS k FROM uu GROUP BY 1)
            SELECT mx.event_type, CAST(mx.k AS BIGINT) AS k_stat,
                   CAST(min(uu.idx) AS BIGINT) AS t_hat
            FROM mx JOIN uu ON uu.event_type = mx.event_type
                           AND uu.au = mx.k
            GROUP BY 1, 2 ORDER BY 1
        """,
        "f_test": _CENT_CENSUS_CTE + """
            , g AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS nn,
                           CAST(sum(n * cv) AS BIGINT) AS s,
                           CAST(sum(n * cv * cv) AS BIGINT) AS q
                    FROM cs GROUP BY 1),
            p AS (SELECT a.event_type AS ta, b.event_type AS tb,
                         a.nn AS n1, a.s AS s1, a.q AS q1,
                         b.nn AS n2, b.s AS s2, b.q AS q2
                  FROM g a JOIN g b ON a.event_type < b.event_type)
            SELECT ta AS type_a, tb AS type_b,
                   CAST(n1 - 1 AS BIGINT) AS df1,
                   CAST(n2 - 1 AS BIGINT) AS df2,
                   round(CAST((CAST(n1 AS HUGEINT) * q1
                               - CAST(s1 AS HUGEINT) * s1)
                              * n2 * (n2 - 1) AS DOUBLE)
                         / CAST((CAST(n2 AS HUGEINT) * q2
                                 - CAST(s2 AS HUGEINT) * s2)
                                * n1 * (n1 - 1) AS DOUBLE), 6) AS f_stat
            FROM p ORDER BY 1, 2
        """,
    }
)

# Session-12 wave 16 (pipelines/stats3.py): effect sizes, ordered
# alternatives.
from .stats3 import (  # noqa: E402
    q_cliffs_delta,
    q_jonckheere,
    q_page_trend,
)

QUERIES.update({
    "cliffs_delta": q_cliffs_delta,
    "page_trend": q_page_trend,
    "jonckheere": q_jonckheere,
})

ORACLE_SQL.update(
    {
        "cliffs_delta": _CENT_CENSUS_CTE + """
            , tot AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS tt
                      FROM cs GROUP BY 1),
            pairs AS (SELECT a.event_type AS ta, a.tt AS na,
                             b.event_type AS tb, b.tt AS nb
                      FROM tot a JOIN tot b
                        ON a.event_type < b.event_type),
            sup AS (SELECT p.ta, p.tb, p.na, p.nb, v.cv,
                           COALESCE(ca.n, 0) AS an, COALESCE(cb.n, 0) AS bn
                    FROM pairs p
                    JOIN (SELECT DISTINCT cv FROM cs) v ON TRUE
                    LEFT JOIN cs ca ON ca.event_type = p.ta
                                   AND ca.cv = v.cv
                    LEFT JOIN cs cb ON cb.event_type = p.tb
                                   AND cb.cv = v.cv
                    WHERE ca.n IS NOT NULL OR cb.n IS NOT NULL),
            cums AS (SELECT ta, tb, na, nb, an, bn,
                            sum(bn) OVER w AS cb
                     FROM sup
                     WINDOW w AS (PARTITION BY ta, tb ORDER BY cv)),
            agg AS (SELECT ta, tb, na, nb,
                           CAST(sum(an * (cb - bn)) AS BIGINT) AS gt,
                           CAST(sum(an * bn) AS BIGINT) AS ties
                    FROM cums GROUP BY 1, 2, 3, 4)
            SELECT ta AS type_a, tb AS type_b,
                   round(CAST(gt - (na * nb - gt - ties) AS DOUBLE)
                         / CAST(na * nb AS DOUBLE), 6) AS cliffs_delta,
                   round(CAST(2 * gt + ties AS DOUBLE)
                         / CAST(2 * na * nb AS DOUBLE), 6) AS vd_a
            FROM agg ORDER BY 1, 2
        """,
        "page_trend": _DENSE_GRID_CTE + """
            , nd AS (SELECT hh // 24 AS n_days FROM hh),
            dw AS (SELECT d.event_type, (d.hr - b.lo) // 24 AS day,
                          (d.hr - b.lo) % 24 AS hod, d.c
                   FROM d CROSS JOIN bounds b CROSS JOIN nd
                   WHERE d.hr - b.lo < nd.n_days * 24),
            ranked AS (SELECT event_type, day, hod,
                              2 * (rank() OVER (PARTITION BY event_type,
                                                    day ORDER BY c) - 1)
                              + count(*) OVER (PARTITION BY event_type,
                                               day, c) + 1 AS r2
                       FROM dw),
            rd AS (SELECT event_type, hod,
                          CAST(sum(r2) AS BIGINT) AS r2d
                   FROM ranked GROUP BY 1, 2),
            l AS (SELECT event_type,
                         CAST(sum((hod + 1) * r2d) AS BIGINT) AS l2
                  FROM rd GROUP BY 1)
            SELECT event_type, l2 AS l2_stat,
                   round((CAST(l2 AS DOUBLE) / 2.0
                          - CAST(nd.n_days * 24 * 25 * 25 AS DOUBLE)
                            / 4.0)
                         / sqrt(CAST(nd.n_days * 24 * 24 * 25 * 25 * 23
                                     AS DOUBLE) / 144.0), 6) AS z
            FROM l CROSS JOIN nd ORDER BY 1
        """,
        "jonckheere": """
            WITH s AS (SELECT ((epoch_ms(ts) // 3600000) % 24) // 6
                                  AS part,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events),
            cs AS (SELECT part, cv, count(*) AS n FROM s GROUP BY 1, 2),
            tot AS (SELECT part, CAST(sum(n) AS BIGINT) AS tt
                    FROM cs GROUP BY 1),
            pairs AS (SELECT a.part AS p1, b.part AS p2, b.tt AS n2
                      FROM tot a JOIN tot b ON a.part < b.part),
            sup AS (SELECT p.p1, p.p2, p.n2, v.cv,
                           COALESCE(ca.n, 0) AS an, COALESCE(cb.n, 0) AS bn
                    FROM pairs p
                    JOIN (SELECT DISTINCT cv FROM cs) v ON TRUE
                    LEFT JOIN cs ca ON ca.part = p.p1 AND ca.cv = v.cv
                    LEFT JOIN cs cb ON cb.part = p.p2 AND cb.cv = v.cv
                    WHERE ca.n IS NOT NULL OR cb.n IS NOT NULL),
            cums AS (SELECT p1, p2, n2, an, bn, sum(bn) OVER w AS cb
                     FROM sup
                     WINDOW w AS (PARTITION BY p1, p2 ORDER BY cv)),
            jt AS (SELECT CAST(sum(an * (2 * (n2 - cb) + bn)) AS BIGINT)
                              AS jt2
                   FROM cums),
            g AS (SELECT CAST(sum(tt) AS BIGINT) AS n,
                         CAST(sum(tt * tt) AS BIGINT) AS sn2,
                         CAST(sum(tt * tt * (2 * tt + 3)) AS BIGINT)
                             AS sn23
                  FROM tot)
            SELECT g.n, jt.jt2 AS jt2_stat,
                   round((CAST(jt.jt2 AS DOUBLE) / 2.0
                          - CAST(g.n * g.n - g.sn2 AS DOUBLE) / 4.0)
                         / sqrt(CAST(CAST(g.n AS HUGEINT) * g.n
                                     * (2 * g.n + 3) - g.sn23
                                     AS DOUBLE) / 72.0), 6) AS z
            FROM g CROSS JOIN jt
        """,
    }
)

# Session-12 wave 17 (pipelines/stats3.py): stratified association,
# dispersion test, proportion effect size.
from .stats3 import (  # noqa: E402
    q_ansari_bradley,
    q_cohens_h,
    q_mantel_haenszel,
)

QUERIES.update({
    "mantel_haenszel": q_mantel_haenszel,
    "ansari_bradley": q_ansari_bradley,
    "cohens_h": q_cohens_h,
})

ORACLE_SQL.update(
    {
        "mantel_haenszel": """
            WITH s AS (SELECT ((epoch_ms(ts) // 86400000) + 3) % 7
                                  AS dow,
                              CASE WHEN event_type = 'purchase'
                                   THEN 1 ELSE 0 END AS p,
                              CASE WHEN (epoch_ms(ts) // 3600000) % 24
                                        < 6
                                     OR (epoch_ms(ts) // 3600000) % 24
                                        >= 22
                                   THEN 1 ELSE 0 END AS ni
                       FROM events),
            c AS (SELECT dow,
                         CAST(sum(CASE WHEN p = 1 AND ni = 1
                                       THEN 1 ELSE 0 END) AS BIGINT)
                             AS a,
                         CAST(sum(CASE WHEN p = 1 AND ni = 0
                                       THEN 1 ELSE 0 END) AS BIGINT)
                             AS b,
                         CAST(sum(CASE WHEN p = 0 AND ni = 1
                                       THEN 1 ELSE 0 END) AS BIGINT)
                             AS cc,
                         CAST(sum(CASE WHEN p = 0 AND ni = 0
                                       THEN 1 ELSE 0 END) AS BIGINT)
                             AS d,
                         CAST(count(*) AS BIGINT) AS nt
                  FROM s GROUP BY 1),
            t AS (SELECT CAST(count(*) AS BIGINT) AS k,
                         CAST(sum(CAST(floor(CAST(a * d AS DOUBLE)
                                             / CAST(nt AS DOUBLE)
                                             * 1e6) AS BIGINT))
                              AS BIGINT) AS num,
                         CAST(sum(CAST(floor(CAST(b * cc AS DOUBLE)
                                             / CAST(nt AS DOUBLE)
                                             * 1e6) AS BIGINT))
                              AS BIGINT) AS den
                  FROM c)
            SELECT k AS k_strata,
                   round(CAST(num AS DOUBLE) / CAST(den AS DOUBLE), 6)
                       AS mh_or,
                   CAST(floor(ln(CAST(num AS DOUBLE)
                                 / CAST(den AS DOUBLE)) * 1e6)
                        AS BIGINT) / 1e6 AS log_mh_or
            FROM t
        """,
        "ansari_bradley": """
            WITH s AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events
                       WHERE event_type IN ('purchase', 'view')),
            c AS (SELECT cv,
                         CAST(sum(CASE WHEN event_type = 'purchase'
                                       THEN 1 ELSE 0 END) AS BIGINT)
                             AS a,
                         CAST(sum(CASE WHEN event_type = 'view'
                                       THEN 1 ELSE 0 END) AS BIGINT)
                             AS b
                  FROM s GROUP BY 1),
            t AS (SELECT CAST(sum(a) AS BIGINT) AS n,
                         CAST(sum(b) AS BIGINT) AS m FROM c),
            k AS (SELECT a, a + b AS w,
                         sum(a + b) OVER (ORDER BY cv) AS pos
                  FROM c),
            sc AS (SELECT a, w, pos, t.n + t.m AS nn,
                          (t.n + t.m + 1) // 2 AS half
                   FROM k CROSS JOIN t),
            blocks AS (SELECT a, w,
                (CASE WHEN pos <= half THEN pos * (pos + 1) // 2
                      ELSE half * (half + 1) // 2
                           + ((nn - half) + (nn + 1 - pos))
                             * (pos - half) // 2 END)
                - (CASE WHEN pos - w <= half
                        THEN (pos - w) * (pos - w + 1) // 2
                        ELSE half * (half + 1) // 2
                             + ((nn - half) + (nn + 1 - (pos - w)))
                               * ((pos - w) - half) // 2 END) AS sb
                FROM sc),
            ab AS (SELECT CAST(sum(a * CAST(floor(
                              CAST(sb AS DOUBLE) / CAST(w AS DOUBLE)
                              * 1e6) AS BIGINT)) AS BIGINT) AS ab2
                   FROM blocks)
            SELECT t.n AS n_purchase, t.m AS n_view,
                   round(CAST(ab.ab2 AS DOUBLE) / 1e6, 6) AS ab_stat,
                   round(CASE WHEN (t.n + t.m) % 2 = 0 THEN
                       (CAST(ab.ab2 AS DOUBLE) / 1e6
                        - CAST(t.n * (t.n + t.m + 2) AS DOUBLE) / 4.0)
                       / sqrt(CAST(CAST(t.n AS HUGEINT) * t.m
                                   * (t.n + t.m + 2) * (t.n + t.m - 2)
                                   AS DOUBLE)
                              / (48.0 * CAST(t.n + t.m - 1 AS DOUBLE)))
                   ELSE
                       (CAST(ab.ab2 AS DOUBLE) / 1e6
                        - CAST(t.n * (t.n + t.m + 1) * (t.n + t.m + 1)
                               AS DOUBLE)
                          / (4.0 * CAST(t.n + t.m AS DOUBLE)))
                       / sqrt(CAST(CAST(t.n AS HUGEINT) * t.m
                                   * (t.n + t.m + 1)
                                   * (3 + (t.n + t.m) * (t.n + t.m))
                                   AS DOUBLE)
                              / (48.0 * CAST(t.n + t.m AS DOUBLE)
                                 * CAST(t.n + t.m AS DOUBLE)))
                   END, 6) AS z
            FROM ab CROSS JOIN t
        """,
        "cohens_h": """
            WITH s AS (SELECT CASE WHEN ((epoch_ms(ts) // 86400000) + 3)
                                        % 7 >= 5
                                   THEN 1 ELSE 0 END AS w,
                              CASE WHEN event_type = 'purchase'
                                   THEN 1 ELSE 0 END AS p
                       FROM events),
            c AS (SELECT CAST(sum(CASE WHEN w = 1 AND p = 1
                                       THEN 1 ELSE 0 END) AS BIGINT)
                             AS pw,
                         CAST(sum(CASE WHEN w = 1 THEN 1 ELSE 0 END)
                              AS BIGINT) AS nw,
                         CAST(sum(CASE WHEN w = 0 AND p = 1
                                       THEN 1 ELSE 0 END) AS BIGINT)
                             AS pd,
                         CAST(sum(CASE WHEN w = 0 THEN 1 ELSE 0 END)
                              AS BIGINT) AS nd
                  FROM s)
            SELECT nw AS n_weekend, nd AS n_weekday,
                   round(2.0 * (CAST(CAST(floor(asin(sqrt(
                                  CAST(pw AS DOUBLE)
                                  / CAST(nw AS DOUBLE))) * 1e6)
                                  AS BIGINT) AS DOUBLE)
                                - CAST(CAST(floor(asin(sqrt(
                                  CAST(pd AS DOUBLE)
                                  / CAST(nd AS DOUBLE))) * 1e6)
                                  AS BIGINT) AS DOUBLE)) / 1e6, 6)
                       AS cohens_h
            FROM c
        """,
    }
)

# Session-12 wave 18 (pipelines/stats3.py): ordinal association family,
# intraclass correlation.
from .stats3 import (  # noqa: E402
    q_icc,
    q_ordinal_assoc,
)

QUERIES.update({
    "ordinal_assoc": q_ordinal_assoc,
    "icc": q_icc,
})

ORACLE_SQL.update(
    {
        "ordinal_assoc": """
            WITH s AS (SELECT (epoch_ms(ts) // 3600000) % 24 AS hod,
                              CAST(round(value * 100) AS BIGINT) // 5000
                                  AS vb
                       FROM events),
            cs AS (SELECT hod, vb, CAST(count(*) AS BIGINT) AS n
                   FROM s GROUP BY 1, 2),
            t AS (SELECT CAST(sum(n) AS BIGINT) AS nt FROM cs),
            cd AS (SELECT
                CAST(sum(CASE WHEN b.hod > a.hod AND b.vb > a.vb
                              THEN a.n * b.n ELSE 0 END) AS BIGINT)
                    AS conc,
                CAST(sum(CASE WHEN b.hod > a.hod AND b.vb < a.vb
                              THEN a.n * b.n ELSE 0 END) AS BIGINT)
                    AS disc
                FROM cs a JOIN cs b ON TRUE),
            ties AS (SELECT
                (SELECT CAST(sum(rn * (rn - 1) / 2) AS BIGINT)
                 FROM (SELECT sum(n) AS rn FROM cs GROUP BY hod))
                    AS trow,
                (SELECT CAST(sum(cn * (cn - 1) / 2) AS BIGINT)
                 FROM (SELECT sum(n) AS cn FROM cs GROUP BY vb))
                    AS tcol,
                (SELECT CAST(sum(n * (n - 1) / 2) AS BIGINT) FROM cs)
                    AS tcell),
            mm AS (SELECT least(
                       (SELECT count(DISTINCT hod) FROM cs),
                       (SELECT count(DISTINCT vb) FROM cs)) AS m)
            SELECT t.nt AS n, cd.conc, cd.disc,
                   round(CAST(cd.conc - cd.disc AS DOUBLE)
                         / CAST(cd.conc + cd.disc AS DOUBLE), 6)
                       AS gamma,
                   round(CAST(cd.conc - cd.disc AS DOUBLE)
                         / CAST(cd.conc + cd.disc
                                + (ties.tcol - ties.tcell)
                                AS DOUBLE), 6) AS somers_dyx,
                   round(CAST(cd.conc - cd.disc AS DOUBLE)
                         / CAST(cd.conc + cd.disc
                                + (ties.trow - ties.tcell)
                                AS DOUBLE), 6) AS somers_dxy,
                   round(CAST(2 * mm.m * (cd.conc - cd.disc) AS DOUBLE)
                         / CAST(t.nt * t.nt * (mm.m - 1) AS DOUBLE), 6)
                       AS tau_c
            FROM cd CROSS JOIN t CROSS JOIN ties CROSS JOIN mm
        """,
        "icc": _DENSE_GRID_CTE + """
            , nd AS (SELECT hh // 24 AS n_days FROM hh),
            dc AS (SELECT d.event_type, (d.hr - b.lo) // 24 AS day,
                          CAST(sum(d.c) AS BIGINT) AS x
                   FROM d CROSS JOIN bounds b CROSS JOIN nd
                   WHERE (d.hr - b.lo) // 24 < nd.n_days
                   GROUP BY 1, 2),
            kk AS (SELECT CAST(count(DISTINCT event_type) AS BIGINT)
                              AS k
                   FROM dc),
            vals AS (SELECT CAST(sum(x * x) AS BIGINT) AS ssall,
                            CAST(sum(x) AS BIGINT) AS tt
                     FROM dc),
            rs AS (SELECT day, CAST(sum(x) AS BIGINT) AS r
                   FROM dc GROUP BY 1),
            sr AS (SELECT CAST(sum(r * r) AS BIGINT) AS sr2 FROM rs),
            csum AS (SELECT event_type, CAST(sum(x) AS BIGINT) AS c
                     FROM dc GROUP BY 1),
            sc AS (SELECT CAST(sum(c * c) AS BIGINT) AS sc2 FROM csum),
            ms AS (SELECT
                (CAST(sr.sr2 AS DOUBLE) / CAST(kk.k AS DOUBLE)
                 - CAST(vals.tt * vals.tt AS DOUBLE)
                   / CAST(nd.n_days * kk.k AS DOUBLE))
                / CAST(nd.n_days - 1 AS DOUBLE) AS msr,
                (CAST(sc.sc2 AS DOUBLE) / CAST(nd.n_days AS DOUBLE)
                 - CAST(vals.tt * vals.tt AS DOUBLE)
                   / CAST(nd.n_days * kk.k AS DOUBLE))
                / CAST(kk.k - 1 AS DOUBLE) AS msc,
                ((CAST(vals.ssall AS DOUBLE)
                  - CAST(vals.tt * vals.tt AS DOUBLE)
                    / CAST(nd.n_days * kk.k AS DOUBLE))
                 - (CAST(sr.sr2 AS DOUBLE) / CAST(kk.k AS DOUBLE)
                    - CAST(vals.tt * vals.tt AS DOUBLE)
                      / CAST(nd.n_days * kk.k AS DOUBLE))
                 - (CAST(sc.sc2 AS DOUBLE) / CAST(nd.n_days AS DOUBLE)
                    - CAST(vals.tt * vals.tt AS DOUBLE)
                      / CAST(nd.n_days * kk.k AS DOUBLE)))
                / CAST((nd.n_days - 1) * (kk.k - 1) AS DOUBLE) AS mse,
                nd.n_days AS d, kk.k AS k
                FROM sr CROSS JOIN sc CROSS JOIN vals
                     CROSS JOIN nd CROSS JOIN kk)
            SELECT CAST(d AS BIGINT) AS n_days, CAST(k AS BIGINT)
                       AS k_raters,
                   round((msr - mse)
                         / (msr + CAST(k - 1 AS DOUBLE) * mse
                            + CAST(k AS DOUBLE) * (msc - mse)
                              / CAST(d AS DOUBLE)), 6) AS icc2_1
            FROM ms
        """,
    }
)


# Round-3: guaranteed-recall SimHash pairs (stages/dedup.py
# simhash_pairs_from_hashes — the pigeonhole (h+1)-block index).  The
# oracle is the DEFINITION itself: a quadratic self-join of the
# independently-generated simhash fixture on bit_count(xor) <= 3 — so a
# green row proves EXACT recall, not just agreement with a blocking
# heuristic (round 2's single-prefix oracle matched its own blind spot).
def q_simhash_pairs(sf_dir: str):
    from ..stages.dedup import simhash_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return simhash_dedup(ds, max_hamming=3, concurrency=(1, 4))


QUERIES.update({"simhash_pairs": q_simhash_pairs})

ORACLE_SQL.update(
    {
        "simhash_pairs": f"""
            WITH h AS (SELECT doc_id, simhash
                       FROM read_parquet(
                           '{_FIXTURE_DIR}/oracle_simhash.parquet')
                       WHERE corpus_key = {_CORPUS_KEY})
            SELECT x.doc_id AS a, y.doc_id AS b,
                   CAST(bit_count(xor(x.simhash, y.simhash)) AS BIGINT)
                       AS hamming
            FROM h x JOIN h y ON x.doc_id < y.doc_id
            WHERE bit_count(xor(x.simhash, y.simhash)) <= 3
        """,
    }
)


# Round-3 statistics wave (pipelines/stats4.py): lexical richness over
# the frequency-of-frequencies census + classical sequence tests over
# the dense hourly grid.
from .stats4 import (  # noqa: E402
    q_cochran_armitage,
    q_cox_stuart,
    q_durbin_watson,
    q_good_turing,
    q_guiraud_r,
    q_herdan_c,
    q_honore_h,
    q_kpss_level,
    q_ks_uniform_hod,
    q_moran_lag1,
    q_sichel_s,
    q_simpson_lexical,
    q_yule_k,
)

QUERIES.update({
    "yule_k": q_yule_k,
    "simpson_lexical": q_simpson_lexical,
    "good_turing": q_good_turing,
    "sichel_s": q_sichel_s,
    "herdan_c": q_herdan_c,
    "guiraud_r": q_guiraud_r,
    "honore_h": q_honore_h,
    "durbin_watson": q_durbin_watson,
    "moran_lag1": q_moran_lag1,
    "cox_stuart": q_cox_stuart,
    "kpss_level": q_kpss_level,
    "ks_uniform_hod": q_ks_uniform_hod,
    "cochran_armitage": q_cochran_armitage,
})

_FF_CTE = """
    WITH tok AS (SELECT lower(term) AS term
                 FROM (SELECT unnest(regexp_extract_all(text,
                              '[A-Za-z]+')) AS term
                       FROM documents)),
    cs AS (SELECT term, CAST(count(*) AS BIGINT) AS m FROM tok GROUP BY 1),
    agg AS (SELECT CAST(sum(m) AS BIGINT) AS n,
                   CAST(count(*) AS BIGINT) AS v,
                   CAST(sum(CASE WHEN m = 1 THEN 1 ELSE 0 END)
                        AS BIGINT) AS v1,
                   CAST(sum(CASE WHEN m = 2 THEN 1 ELSE 0 END)
                        AS BIGINT) AS v2,
                   CAST(sum(m * m) AS BIGINT) AS s2
            FROM cs)
"""

ORACLE_SQL.update(
    {
        "yule_k": _FF_CTE + """
            SELECT n AS n_tokens, v AS vocab,
                   round(CASE WHEN n = 0 THEN 0.0
                              ELSE 1e4 * CAST(s2 - n AS DOUBLE)
                                   / CAST(CAST(n AS HUGEINT) * n
                                          AS DOUBLE) END, 6) AS yule_k
            FROM agg
        """,
        "simpson_lexical": _FF_CTE + """
            SELECT n AS n_tokens,
                   round(CASE WHEN n < 2 THEN 0.0
                              ELSE CAST(s2 - n AS DOUBLE)
                                   / CAST(CAST(n AS HUGEINT) * (n - 1)
                                          AS DOUBLE) END, 6) AS simpson_d
            FROM agg
        """,
        "good_turing": _FF_CTE + """
            SELECT n AS n_tokens, v1 AS n_hapax,
                   round(CASE WHEN n = 0 THEN 0.0
                              ELSE 1.0 - CAST(v1 AS DOUBLE)
                                         / CAST(n AS DOUBLE) END,
                         6) AS coverage
            FROM agg
        """,
        "sichel_s": _FF_CTE + """
            SELECT v AS vocab, v2 AS n_dis,
                   round(CASE WHEN v = 0 THEN 0.0
                              ELSE CAST(v2 AS DOUBLE)
                                   / CAST(v AS DOUBLE) END, 6) AS sichel_s
            FROM agg
        """,
        "herdan_c": _FF_CTE + """
            SELECT n AS n_tokens, v AS vocab,
                   round(CASE WHEN n <= 1 OR v <= 1 THEN 0.0
                              ELSE CAST(CAST(floor(ln(CAST(v AS DOUBLE))
                                                   * 1e6) AS BIGINT)
                                        AS DOUBLE)
                                   / CAST(CAST(floor(ln(CAST(n AS DOUBLE))
                                                     * 1e6) AS BIGINT)
                                          AS DOUBLE) END, 6) AS herdan_c
            FROM agg
        """,
        "guiraud_r": _FF_CTE + """
            SELECT n AS n_tokens, v AS vocab,
                   round(CASE WHEN n = 0 THEN 0.0
                              ELSE CAST(v AS DOUBLE)
                                   / sqrt(CAST(n AS DOUBLE)) END,
                         6) AS guiraud_r
            FROM agg
        """,
        "honore_h": _FF_CTE + """
            SELECT v AS vocab, v1 AS n_hapax,
                   round(CASE WHEN n <= 1 OR v = v1 THEN 0.0
                              ELSE 100.0
                                   * (CAST(floor(ln(CAST(n AS DOUBLE))
                                                 * 1e6) AS BIGINT) / 1e6)
                                   * CAST(v AS DOUBLE)
                                   / CAST(v - v1 AS DOUBLE) END,
                         6) AS honore_h
            FROM agg
        """,
        "durbin_watson": _DENSE_GRID_CTE + """
            , dif AS (SELECT event_type,
                             c - lag(c) OVER (PARTITION BY event_type
                                              ORDER BY hr) AS dd
                      FROM d),
            nm AS (SELECT event_type, CAST(sum(dd * dd) AS BIGINT) AS num
                   FROM dif WHERE dd IS NOT NULL GROUP BY 1),
            mm AS (SELECT event_type, CAST(sum(c) AS BIGINT) AS s1,
                          CAST(sum(c * c) AS BIGINT) AS s2
                   FROM d GROUP BY 1)
            SELECT mm.event_type,
                   round(CASE WHEN hh.hh * mm.s2 - mm.s1 * mm.s1 = 0
                              THEN 0.0
                              ELSE CAST(hh.hh * COALESCE(nm.num, 0)
                                        AS DOUBLE)
                                   / CAST(hh.hh * mm.s2 - mm.s1 * mm.s1
                                          AS DOUBLE) END, 6) AS dw
            FROM mm LEFT JOIN nm USING (event_type) CROSS JOIN hh
            ORDER BY 1
        """,
        "moran_lag1": _DENSE_GRID_CTE + """
            , mm AS (SELECT event_type, CAST(sum(c) AS BIGINT) AS s1
                     FROM d GROUP BY 1),
            dd AS (SELECT d.event_type, d.hr,
                          CAST(hh.hh * d.c - mm.s1 AS BIGINT) AS dv
                   FROM d JOIN mm USING (event_type) CROSS JOIN hh),
            lg AS (SELECT event_type, dv,
                          lag(dv) OVER (PARTITION BY event_type
                                        ORDER BY hr) AS pv
                   FROM dd),
            cr AS (SELECT event_type,
                          CAST(sum(CAST(dv AS HUGEINT) * pv) AS HUGEINT)
                              AS crs
                   FROM lg WHERE pv IS NOT NULL GROUP BY 1),
            dn AS (SELECT event_type,
                          CAST(sum(CAST(dv AS HUGEINT) * dv) AS HUGEINT)
                              AS den
                   FROM dd GROUP BY 1)
            SELECT dn.event_type,
                   round(CASE WHEN dn.den = 0 THEN 0.0
                              ELSE CAST(hh.hh * COALESCE(cr.crs, 0)
                                        AS DOUBLE)
                                   / CAST((hh.hh - 1) * dn.den
                                          AS DOUBLE) END, 6) AS moran_i
            FROM dn LEFT JOIN cr USING (event_type) CROSS JOIN hh
            ORDER BY 1
        """,
        "cox_stuart": _DENSE_GRID_CTE + """
            , p AS (SELECT a.event_type,
                           CAST(sum(CASE WHEN b.c > a.c THEN 1 ELSE 0 END)
                                AS BIGINT) AS up,
                           CAST(sum(CASE WHEN b.c < a.c THEN 1 ELSE 0 END)
                                AS BIGINT) AS dwn
                    FROM d a CROSS JOIN hh CROSS JOIN bounds bo
                    JOIN d b ON b.event_type = a.event_type
                            AND b.hr = a.hr + (hh.hh - hh.hh // 2)
                    WHERE a.hr - bo.lo < hh.hh // 2
                    GROUP BY 1)
            SELECT event_type, up AS n_up, dwn AS n_down,
                   round(CASE WHEN up + dwn = 0 THEN 0.0
                              ELSE (2.0 * CAST(up AS DOUBLE)
                                    - CAST(up + dwn AS DOUBLE))
                                   / sqrt(CAST(up + dwn AS DOUBLE)) END,
                         6) AS z
            FROM p ORDER BY 1
        """,
        "kpss_level": _DENSE_GRID_CTE + """
            , mm AS (SELECT event_type, CAST(sum(c) AS BIGINT) AS s1
                     FROM d GROUP BY 1),
            dd AS (SELECT d.event_type, d.hr,
                          CAST(hh.hh * d.c - mm.s1 AS BIGINT) AS dv
                   FROM d JOIN mm USING (event_type) CROSS JOIN hh),
            cm AS (SELECT event_type,
                          CAST(sum(dv) OVER (PARTITION BY event_type
                                             ORDER BY hr) AS HUGEINT)
                              AS sv
                   FROM dd),
            nm AS (SELECT event_type, CAST(sum(sv * sv) AS HUGEINT) AS num
                   FROM cm GROUP BY 1),
            dn AS (SELECT event_type,
                          CAST(sum(CAST(dv AS HUGEINT) * dv) AS HUGEINT)
                              AS den
                   FROM dd GROUP BY 1)
            SELECT dn.event_type,
                   round(CASE WHEN dn.den = 0 THEN 0.0
                              ELSE CAST(nm.num AS DOUBLE)
                                   / CAST(hh.hh * dn.den AS DOUBLE) END,
                         6) AS kpss
            FROM dn JOIN nm USING (event_type) CROSS JOIN hh ORDER BY 1
        """,
        "ks_uniform_hod": """
            WITH s AS (SELECT event_type,
                              (epoch_ms(ts) // 3600000) % 24 AS hod
                       FROM events),
            cs AS (SELECT event_type, hod, CAST(count(*) AS BIGINT) AS n
                   FROM s GROUP BY 1, 2),
            types AS (SELECT DISTINCT event_type FROM events),
            grid AS (SELECT t.event_type, h.hod, COALESCE(cs.n, 0) AS n
                     FROM types t
                     CROSS JOIN (SELECT unnest(generate_series(0, 23))
                                     AS hod) h
                     LEFT JOIN cs ON cs.event_type = t.event_type
                                 AND cs.hod = h.hod),
            cum AS (SELECT event_type, hod,
                           sum(n) OVER (PARTITION BY event_type
                                        ORDER BY hod) AS k,
                           sum(n) OVER (PARTITION BY event_type) AS tot
                    FROM grid),
            mx AS (SELECT event_type,
                          CAST(max(abs(24 * k - tot * (hod + 1)))
                               AS BIGINT) AS dmax,
                          CAST(max(tot) AS BIGINT) AS n
                   FROM cum GROUP BY 1)
            SELECT event_type, n,
                   round(CASE WHEN n = 0 THEN 0.0
                              ELSE CAST(dmax AS DOUBLE)
                                   / CAST(24 * n AS DOUBLE) END,
                         6) AS ks_d
            FROM mx ORDER BY 1
        """,
        "cochran_armitage": """
            WITH s AS (SELECT ((epoch_ms(ts) // 3600000) % 24) // 4
                                  AS part,
                              CASE WHEN event_type = 'purchase'
                                   THEN 1 ELSE 0 END AS p
                       FROM events),
            g AS (SELECT part, CAST(sum(p) AS BIGINT) AS r,
                         CAST(count(*) AS BIGINT) AS n
                  FROM s GROUP BY 1),
            agg AS (SELECT CAST(sum(n) AS BIGINT) AS nn,
                           CAST(sum(r) AS BIGINT) AS rr,
                           CAST(sum(part * r) AS BIGINT) AS sr,
                           CAST(sum(part * n) AS BIGINT) AS sn,
                           CAST(sum(part * part * n) AS BIGINT) AS s2n
                    FROM g),
            tv AS (SELECT nn, rr,
                          CAST(nn AS HUGEINT) * sr
                              - CAST(rr AS HUGEINT) * sn AS tp,
                          CAST(rr AS HUGEINT) * (nn - rr)
                              * (CAST(nn AS HUGEINT) * s2n
                                 - CAST(sn AS HUGEINT) * sn) AS vp
                   FROM agg)
            SELECT nn AS n_events, rr AS n_purchases,
                   round(CASE WHEN vp <= 0 THEN 0.0
                              ELSE CAST(tp AS DOUBLE)
                                   * sqrt(CAST(nn AS DOUBLE))
                                   / sqrt(CAST(vp AS DOUBLE)) END,
                         6) AS z
            FROM tv
        """,
    }
)


# Round-3: TPC-H Q13 (the one remaining numbered query; Q1 is
# pricing_summary).
from .relational import q_tpch_q13  # noqa: E402

QUERIES.update({"tpch_q13": q_tpch_q13})

ORACLE_SQL.update(
    {
        "tpch_q13": """
            WITH oc AS (SELECT c.c_custkey,
                               CAST(count(o.o_orderkey) AS BIGINT)
                                   AS c_count
                        FROM customer c
                        LEFT JOIN orders o ON o.o_custkey = c.c_custkey
                             AND o.o_orderpriority != '1-URGENT'
                        GROUP BY 1)
            SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
            FROM oc GROUP BY 1
            ORDER BY custdist DESC, c_count DESC
        """,
    }
)


# Round-3 wave 2 (pipelines/stats4.py): distribution comparison,
# normality, and the Misra-Gries exact heavy hitters.
from .stats4 import (  # noqa: E402
    q_anderson_darling,
    q_heavy_hitters,
    q_hodges_lehmann,
    q_jarque_bera,
)

QUERIES.update({
    "anderson_darling": q_anderson_darling,
    "hodges_lehmann": q_hodges_lehmann,
    "jarque_bera": q_jarque_bera,
    "heavy_hitters": q_heavy_hitters,
})

ORACLE_SQL.update(
    {
        "anderson_darling": """
            WITH s AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events
                       WHERE event_type IN ('purchase', 'view')),
            cs AS (SELECT cv,
                          CAST(sum(CASE WHEN event_type = 'purchase'
                                        THEN 1 ELSE 0 END) AS BIGINT) AS a,
                          CAST(sum(CASE WHEN event_type = 'view'
                                        THEN 1 ELSE 0 END) AS BIGINT) AS b
                   FROM s GROUP BY 1),
            tot AS (SELECT CAST(sum(a) AS BIGINT) AS n,
                           CAST(sum(b) AS BIGINT) AS m FROM cs),
            cum AS (SELECT cv, a, b,
                           sum(a) OVER (ORDER BY cv) AS ca,
                           sum(a + b) OVER (ORDER BY cv) AS cb
                    FROM cs),
            terms AS (SELECT CAST(sum(
                          (1000000 * CAST(cum.a + cum.b AS HUGEINT)
                           * (CAST(cum.ca AS HUGEINT) * (tot.n + tot.m)
                              - tot.n * cum.cb)
                           * (CAST(cum.ca AS HUGEINT) * (tot.n + tot.m)
                              - tot.n * cum.cb))
                          // (CAST(cum.cb AS HUGEINT)
                              * (tot.n + tot.m - cum.cb))) AS HUGEINT)
                          AS tt
                      FROM cum CROSS JOIN tot
                      WHERE cum.cb > 0 AND cum.cb < tot.n + tot.m)
            SELECT tot.n AS n_purchase, tot.m AS n_view,
                   round(CASE WHEN tot.n = 0 OR tot.m = 0 THEN 0.0
                              ELSE CAST(terms.tt AS DOUBLE)
                                   / CAST(CAST(tot.n AS HUGEINT) * tot.m
                                          * 1000000 AS DOUBLE) END,
                         6) AS ad_a2
            FROM terms CROSS JOIN tot
        """,
        "hodges_lehmann": """
            WITH s AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events),
            cs AS (SELECT event_type, cv, CAST(count(*) AS BIGINT) AS c
                   FROM s GROUP BY 1, 2),
            tot AS (SELECT event_type, CAST(sum(c) AS BIGINT) AS n
                    FROM cs GROUP BY 1),
            pr AS (SELECT a.event_type AS ta, b.event_type AS tb,
                          a.cv - b.cv AS d,
                          CAST(sum(CAST(a.c AS HUGEINT) * b.c) AS HUGEINT)
                              AS w
                   FROM cs a JOIN cs b ON a.event_type < b.event_type
                   GROUP BY 1, 2, 3),
            cum AS (SELECT ta, tb, d,
                           sum(w) OVER (PARTITION BY ta, tb ORDER BY d)
                               AS cw
                    FROM pr),
            kk AS (SELECT x.event_type AS ta, y.event_type AS tb,
                          (CAST(x.n AS HUGEINT) * y.n + 1) // 2 AS k
                   FROM tot x JOIN tot y
                        ON x.event_type < y.event_type)
            SELECT cum.ta AS type_a, cum.tb AS type_b,
                   CAST(min(cum.d) AS BIGINT) AS hl_cents,
                   round(CAST(min(cum.d) AS DOUBLE) / 100.0, 6) AS hl
            FROM cum JOIN kk ON kk.ta = cum.ta AND kk.tb = cum.tb
            WHERE cum.cw >= kk.k
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "jarque_bera": """
            WITH s AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events),
            cs AS (SELECT event_type, cv, CAST(count(*) AS BIGINT) AS c
                   FROM s GROUP BY 1, 2),
            mo AS (SELECT event_type,
                          CAST(sum(c) AS BIGINT) AS n,
                          CAST(sum(CAST(c AS HUGEINT) * cv) AS HUGEINT)
                              AS s1,
                          CAST(sum(CAST(c AS HUGEINT) * cv * cv)
                               AS HUGEINT) AS s2,
                          CAST(sum(CAST(c AS HUGEINT) * cv * cv * cv)
                               AS HUGEINT) AS s3,
                          CAST(sum(CAST(c AS HUGEINT) * cv * cv * cv * cv)
                               AS HUGEINT) AS s4
                   FROM cs GROUP BY 1),
            f AS (SELECT event_type, n, CAST(n AS DOUBLE) AS fn,
                         CAST(s1 AS DOUBLE) AS f1,
                         CAST(s2 AS DOUBLE) AS f2,
                         CAST(s3 AS DOUBLE) AS f3,
                         CAST(s4 AS DOUBLE) AS f4
                  FROM mo),
            g AS (SELECT event_type, n, fn,
                         fn * f2 - f1 * f1 AS a2,
                         fn * fn * f3 - 3.0 * fn * f1 * f2
                             + 2.0 * f1 * f1 * f1 AS a3,
                         fn * fn * fn * f4 - 4.0 * fn * fn * f1 * f3
                             + 6.0 * fn * f1 * f1 * f2
                             - 3.0 * f1 * f1 * f1 * f1 AS a4
                  FROM f),
            h AS (SELECT event_type,
                         a3 / (a2 * sqrt(a2)) AS skew,
                         a4 / (a2 * a2) - 3.0 AS kurt
                  FROM g WHERE a2 > 0)
            SELECT g.event_type, g.n,
                   round(CASE WHEN g.a2 <= 0 THEN 0.0
                              ELSE g.fn * (h.skew * h.skew / 6.0
                                           + h.kurt * h.kurt / 24.0) END,
                         6) AS jb
            FROM g LEFT JOIN h USING (event_type) ORDER BY 1
        """,
        "heavy_hitters": """
            WITH tok AS (SELECT lower(term) AS term
                         FROM (SELECT unnest(regexp_extract_all(text,
                                      '[A-Za-z]+')) AS term
                               FROM documents)),
            cs AS (SELECT term, CAST(count(*) AS BIGINT) AS n
                   FROM tok GROUP BY 1),
            tot AS (SELECT CAST(sum(n) AS BIGINT) AS nn FROM cs)
            SELECT term, n FROM cs CROSS JOIN tot
            WHERE n * 64 > nn ORDER BY term
        """,
    }
)


# Round-3 wave 3 (pipelines/stats4.py): CCNet perplexity bucketing
# (composes the already-oracled unigram LM) + GE(2) inequality.
from .stats4 import q_ccnet_buckets, q_ge2_index  # noqa: E402

QUERIES.update({
    "ccnet_buckets": q_ccnet_buckets,
    "ge2_index": q_ge2_index,
})

ORACLE_SQL.update(
    {
        # the unigram LM subquery is the EXISTING oracled definition,
        # nested verbatim — the bucketing rides on a green base
        "ccnet_buckets": "WITH nl AS (" + ORACLE_SQL["unigram_logprob"]
        + """),
            bb AS (SELECT CAST(floor(nll * 100) AS BIGINT) AS b FROM nl),
            cs AS (SELECT b, CAST(count(*) AS BIGINT) AS c
                   FROM bb GROUP BY 1),
            tot AS (SELECT CAST(sum(c) AS BIGINT) AS n FROM cs),
            cum AS (SELECT b, sum(c) OVER (ORDER BY b) AS cum FROM cs),
            th AS (SELECT (SELECT min(b) FROM cum CROSS JOIN tot
                           WHERE 3 * cum >= tot.n) AS t1,
                          (SELECT min(b) FROM cum CROSS JOIN tot
                           WHERE 3 * cum >= 2 * tot.n) AS t2,
                          (SELECT max(b) FROM cs) AS tmax),
            cnts AS (SELECT
                CAST(sum(CASE WHEN b <= th.t1 THEN 1 ELSE 0 END)
                     AS BIGINT) AS nh,
                CAST(sum(CASE WHEN b > th.t1 AND b <= th.t2
                              THEN 1 ELSE 0 END) AS BIGINT) AS nm,
                CAST(sum(CASE WHEN b > th.t2 THEN 1 ELSE 0 END)
                     AS BIGINT) AS nt
                FROM bb CROSS JOIN th)
            SELECT * FROM (
                SELECT 'head' AS bucket, cnts.nh AS n_docs,
                       th.t1 AS thr_centinll
                FROM cnts CROSS JOIN th
                UNION ALL
                SELECT 'middle', cnts.nm, th.t2 FROM cnts CROSS JOIN th
                UNION ALL
                SELECT 'tail', cnts.nt, th.tmax FROM cnts CROSS JOIN th)
            ORDER BY bucket
        """,
        "ge2_index": """
            WITH s AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events),
            g AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(cv) AS BIGINT) AS s1,
                         CAST(sum(CAST(cv AS HUGEINT) * cv) AS HUGEINT)
                             AS s2
                  FROM s GROUP BY 1)
            SELECT event_type, n,
                   round(CASE WHEN s1 = 0 THEN 0.0
                              ELSE (CAST(n * s2 AS DOUBLE)
                                    / CAST(CAST(s1 AS HUGEINT) * s1
                                           AS DOUBLE) - 1.0) / 2.0 END,
                         6) AS ge2
            FROM g ORDER BY 1
        """,
    }
)


# Round-3 wave 4 (pipelines/stats4.py): G-test, Pielou evenness,
# Dixon gap statistics.
from .stats4 import q_dixon_q, q_g_test, q_pielou_j  # noqa: E402

QUERIES.update({
    "g_test": q_g_test,
    "pielou_j": q_pielou_j,
    "dixon_q": q_dixon_q,
})

ORACLE_SQL.update(
    {
        "g_test": """
            WITH s AS (SELECT event_type,
                              ((epoch_ms(ts) // 86400000) + 3) % 7 AS dow
                       FROM events),
            cs AS (SELECT event_type, dow, CAST(count(*) AS BIGINT) AS n
                   FROM s GROUP BY 1, 2),
            r AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS rn
                  FROM cs GROUP BY 1),
            c AS (SELECT dow, CAST(sum(n) AS BIGINT) AS cn
                  FROM cs GROUP BY 1),
            tot AS (SELECT CAST(sum(n) AS BIGINT) AS nn FROM cs),
            terms AS (SELECT CAST(sum(CAST(cs.n AS HUGEINT)
                          * CAST(floor(ln(CAST(cs.n * tot.nn AS DOUBLE)
                                          / CAST(r.rn * c.cn AS DOUBLE))
                                       * 1e6) AS BIGINT)) AS HUGEINT)
                          AS tt
                      FROM cs JOIN r USING (event_type)
                              JOIN c USING (dow) CROSS JOIN tot
                      WHERE cs.n > 0)
            SELECT tot.nn AS n,
                   round(2.0 * CAST(terms.tt AS DOUBLE) / 1e6, 6)
                       AS g_stat
            FROM terms CROSS JOIN tot
        """,
        "pielou_j": """
            WITH cs AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n
                        FROM events GROUP BY 1),
            kk AS (SELECT CAST(count(*) AS BIGINT) AS k,
                          CAST(sum(n) AS BIGINT) AS nn
                   FROM cs),
            tt AS (SELECT CAST(-sum(CAST(cs.n AS HUGEINT)
                           * CAST(floor(ln(CAST(cs.n AS DOUBLE)
                                           / CAST(kk.nn AS DOUBLE))
                                        * 1e6) AS BIGINT)) AS HUGEINT)
                          AS tot
                   FROM cs CROSS JOIN kk WHERE cs.n > 0)
            SELECT kk.k AS k_types, kk.nn AS n,
                   round(CASE WHEN kk.k <= 1 OR kk.nn = 0 THEN 0.0
                              ELSE CAST(tt.tot AS DOUBLE)
                                   / CAST(kk.nn
                                          * CAST(floor(ln(CAST(kk.k
                                                AS DOUBLE)) * 1e6)
                                                AS BIGINT)
                                          AS DOUBLE) END,
                         6) AS pielou_j
            FROM kk CROSS JOIN tt
        """,
        "dixon_q": """
            WITH s AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events),
            cs AS (SELECT DISTINCT event_type, cv FROM s),
            r AS (SELECT event_type,
                         min(cv) AS v1, max(cv) AS vn,
                         CAST(count(*) AS BIGINT) AS nd
                  FROM cs GROUP BY 1),
            lo AS (SELECT cs.event_type, min(cs.cv) AS v2
                   FROM cs JOIN r USING (event_type)
                   WHERE cs.cv > r.v1 GROUP BY 1),
            hi AS (SELECT cs.event_type, max(cs.cv) AS vn1
                   FROM cs JOIN r USING (event_type)
                   WHERE cs.cv < r.vn GROUP BY 1)
            SELECT r.event_type,
                   round(CASE WHEN r.nd < 2 OR r.vn = r.v1 THEN 0.0
                              ELSE CAST(lo.v2 - r.v1 AS DOUBLE)
                                   / CAST(r.vn - r.v1 AS DOUBLE) END,
                         6) AS q_low,
                   round(CASE WHEN r.nd < 2 OR r.vn = r.v1 THEN 0.0
                              ELSE CAST(r.vn - hi.vn1 AS DOUBLE)
                                   / CAST(r.vn - r.v1 AS DOUBLE) END,
                         6) AS q_high
            FROM r LEFT JOIN lo USING (event_type)
                   LEFT JOIN hi USING (event_type)
            ORDER BY 1
        """,
    }
)


# Round-3 wave 5 (pipelines/stats4.py): uncertainty coefficient +
# Bowker symmetry.
from .stats4 import q_bowker, q_theil_u  # noqa: E402

QUERIES.update({
    "theil_u": q_theil_u,
    "bowker": q_bowker,
})

ORACLE_SQL.update(
    {
        "theil_u": """
            WITH s AS (SELECT event_type,
                              ((epoch_ms(ts) // 86400000) + 3) % 7 AS dow
                       FROM events),
            cs AS (SELECT event_type, dow, CAST(count(*) AS BIGINT) AS n
                   FROM s GROUP BY 1, 2),
            r AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS rn
                  FROM cs GROUP BY 1),
            c AS (SELECT dow, CAST(sum(n) AS BIGINT) AS cn
                  FROM cs GROUP BY 1),
            tot AS (SELECT CAST(sum(n) AS BIGINT) AS nn FROM cs),
            t1 AS (SELECT CAST(-sum(CAST(r.rn AS HUGEINT)
                        * CAST(floor(ln(CAST(r.rn AS DOUBLE)
                                        / CAST(tot.nn AS DOUBLE)) * 1e6)
                               AS BIGINT)) AS HUGEINT) AS v
                   FROM r CROSS JOIN tot WHERE r.rn > 0),
            t2 AS (SELECT CAST(-sum(CAST(cs.n AS HUGEINT)
                        * CAST(floor(ln(CAST(cs.n AS DOUBLE)
                                        / CAST(c.cn AS DOUBLE)) * 1e6)
                               AS BIGINT)) AS HUGEINT) AS v
                   FROM cs JOIN c USING (dow) WHERE cs.n > 0)
            SELECT tot.nn AS n,
                   round(CASE WHEN t1.v = 0 THEN 0.0
                              ELSE CAST(t1.v - t2.v AS DOUBLE)
                                   / CAST(t1.v AS DOUBLE) END,
                         6) AS theil_u
            FROM tot CROSS JOIN t1 CROSS JOIN t2
        """,
        "bowker": """
            WITH p AS (SELECT user_id, event_type,
                              epoch_ms(ts) // 86400000 AS day
                       FROM events),
            g AS (SELECT CAST((min(day) + max(day) + 1) // 2 AS BIGINT)
                             AS mid
                  FROM p),
            hc AS (SELECT user_id,
                          CASE WHEN p.day >= g.mid THEN 1 ELSE 0 END
                              AS half,
                          event_type, count(*) AS n
                   FROM p CROSS JOIN g GROUP BY 1, 2, 3),
            md AS (SELECT user_id, half, event_type,
                          row_number() OVER (PARTITION BY user_id, half
                                             ORDER BY n DESC, event_type)
                              AS rk
                   FROM hc),
            m AS (SELECT user_id, half, event_type FROM md WHERE rk = 1),
            pairs AS (SELECT e.event_type AS ta, l.event_type AS tb,
                             CAST(count(*) AS BIGINT) AS n
                      FROM m e JOIN m l ON l.user_id = e.user_id
                                       AND e.half = 0 AND l.half = 1
                      GROUP BY 1, 2),
            cells AS (SELECT x.ta AS a, x.tb AS b,
                             CAST(x.n AS BIGINT) AS nij,
                             CAST(COALESCE(y.n, 0) AS BIGINT) AS nji
                      FROM pairs x LEFT JOIN pairs y
                           ON y.ta = x.tb AND y.tb = x.ta
                      WHERE x.ta < x.tb
                      UNION ALL
                      SELECT y.tb AS a, y.ta AS b,
                             CAST(0 AS BIGINT) AS nij,
                             CAST(y.n AS BIGINT) AS nji
                      FROM pairs y LEFT JOIN pairs x
                           ON x.ta = y.tb AND x.tb = y.ta
                      WHERE y.ta > y.tb AND x.ta IS NULL),
            agg AS (SELECT CAST(count(*) AS BIGINT) AS df,
                           CAST(sum((1000000 * (nij - nji) * (nij - nji))
                                    // (nij + nji)) AS BIGINT) AS tot
                    FROM cells WHERE nij + nji > 0)
            SELECT (SELECT mid FROM g) AS mid_day,
                   COALESCE(agg.df, 0) AS df,
                   round(CAST(COALESCE(agg.tot, 0) AS DOUBLE) / 1e6, 6)
                       AS bowker_chi2
            FROM agg
        """,
    }
)


# Round-3 wave 6 (pipelines/stats4.py): richness estimation + cross-
# language vocabulary set geometry.
from .stats4 import (  # noqa: E402
    q_chao1,
    q_lang_vocab_overlap,
    q_whittaker_beta,
)

QUERIES.update({
    "chao1": q_chao1,
    "lang_vocab_overlap": q_lang_vocab_overlap,
    "whittaker_beta": q_whittaker_beta,
})

_LANG_VOCAB_CTE = """
    WITH tok AS (SELECT lang, lower(term) AS term
                 FROM (SELECT lang, unnest(regexp_extract_all(text,
                              '[A-Za-z]+')) AS term
                       FROM documents)),
    lt AS (SELECT DISTINCT lang, term FROM tok),
    lv AS (SELECT lang, CAST(count(*) AS BIGINT) AS v FROM lt GROUP BY 1)
"""

