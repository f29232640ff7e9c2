"""query battery chunk 4."""
from __future__ import annotations  # noqa: F401

from .qsubstrate import (  # noqa: F401
    ORACLE_SQL,
    QUERIES,
)
from .queries_w3 import (  # noqa: F401
    _CENT_CENSUS_CTE,
    _DENSE_GRID_CTE,
    _FF_CTE,
    _LANG_VOCAB_CTE,
    _TRIG24_VALUES,
)

ORACLE_SQL.update(
    {
        "chao1": _FF_CTE + """
            SELECT v AS vocab, v1 AS n_hapax,
                   round(CASE WHEN v2 > 0
                              THEN CAST(v AS DOUBLE)
                                   + CAST(v1 * v1 AS DOUBLE)
                                     / CAST(2 * v2 AS DOUBLE)
                              ELSE CAST(v AS DOUBLE)
                                   + CAST(v1 * (v1 - 1) AS DOUBLE)
                                     / 2.0 END, 6) AS chao1
            FROM agg
        """,
        "lang_vocab_overlap": _LANG_VOCAB_CTE + """
            , pairs AS (SELECT a.lang AS la, b.lang AS lb,
                               CAST(count(*) AS BIGINT) AS inter
                        FROM lt a JOIN lt b ON a.term = b.term
                                           AND a.lang < b.lang
                        GROUP BY 1, 2),
            f AS (SELECT x.lang AS la, y.lang AS lb, x.v AS va, y.v AS vb,
                         COALESCE(p.inter, 0) AS inter
                  FROM lv x JOIN lv y ON x.lang < y.lang
                  LEFT JOIN pairs p ON p.la = x.lang AND p.lb = y.lang)
            SELECT la AS lang_a, lb AS lang_b,
                   inter AS n_inter, va + vb - inter AS n_union,
                   round(CASE WHEN va + vb - inter = 0 THEN 0.0
                              ELSE CAST(inter AS DOUBLE)
                                   / CAST(va + vb - inter AS DOUBLE) END,
                         6) AS jaccard,
                   round(CASE WHEN least(va, vb) = 0 THEN 0.0
                              ELSE CAST(inter AS DOUBLE)
                                   / CAST(least(va, vb) AS DOUBLE) END,
                         6) AS overlap,
                   round(CASE WHEN va + vb = 0 THEN 0.0
                              ELSE CAST(2 * inter AS DOUBLE)
                                   / CAST(va + vb AS DOUBLE) END,
                         6) AS dice
            FROM f ORDER BY 1, 2
        """,
        "whittaker_beta": _LANG_VOCAB_CTE + """
            , g AS (SELECT CAST(count(DISTINCT term) AS BIGINT) AS gamma
                    FROM lt),
            k AS (SELECT CAST(count(*) AS BIGINT) AS k,
                         CAST(sum(v) AS BIGINT) AS asum
                  FROM lv)
            SELECT k.k AS k_langs, g.gamma AS gamma_vocab,
                   round(CASE WHEN k.asum = 0 THEN 0.0
                              ELSE CAST(k.k * g.gamma AS DOUBLE)
                                   / CAST(k.asum AS DOUBLE) - 1.0 END,
                         6) AS whittaker_beta
            FROM k CROSS JOIN g
        """,
    }
)


# Round-3 wave 7 (pipelines/stats4.py): Hill diversity profile +
# classical richness/dominance indices.
from .stats4 import (  # noqa: E402
    q_hill_numbers,
    q_margalef,
    q_mcintosh_d,
)

QUERIES.update({
    "hill_numbers": q_hill_numbers,
    "mcintosh_d": q_mcintosh_d,
    "margalef": q_margalef,
})

ORACLE_SQL.update(
    {
        "hill_numbers": _FF_CTE + """
            , h AS (SELECT CAST(-sum(CAST(m AS HUGEINT)
                         * CAST(floor(ln(CAST(m AS DOUBLE)
                                         / CAST(agg.n AS DOUBLE)) * 1e6)
                                AS BIGINT)) AS HUGEINT) AS ht
                    FROM cs CROSS JOIN agg)
            SELECT agg.v AS hill_q0,
                   round(CASE WHEN agg.n = 0 THEN 0.0
                              ELSE CAST(h.ht AS DOUBLE)
                                   / CAST(agg.n AS DOUBLE) END,
                         6) AS h1_micronats,
                   round(CASE WHEN agg.s2 = 0 THEN 0.0
                              ELSE CAST(CAST(agg.n AS HUGEINT) * agg.n
                                        AS DOUBLE)
                                   / CAST(agg.s2 AS DOUBLE) END,
                         6) AS hill_q2
            FROM agg CROSS JOIN h
        """,
        "mcintosh_d": _FF_CTE + """
            SELECT n AS n_tokens,
                   round(CASE WHEN n <= 1 THEN 0.0
                              ELSE (CAST(n AS DOUBLE)
                                    - sqrt(CAST(s2 AS DOUBLE)))
                                   / (CAST(n AS DOUBLE)
                                      - sqrt(CAST(n AS DOUBLE))) END,
                         6) AS mcintosh_d
            FROM agg
        """,
        "margalef": _FF_CTE + """
            , mx AS (SELECT CAST(max(m) AS BIGINT) AS mx FROM cs)
            SELECT agg.v AS vocab, agg.n AS n_tokens,
                   round(CASE WHEN agg.n <= 1 THEN 0.0
                              ELSE CAST((agg.v - 1) * 1000000 AS DOUBLE)
                                   / CAST(CAST(floor(ln(CAST(agg.n
                                          AS DOUBLE)) * 1e6) AS BIGINT)
                                          AS DOUBLE) END,
                         6) AS margalef_r,
                   round(CASE WHEN agg.n = 0 THEN 0.0
                              ELSE CAST(mx.mx AS DOUBLE)
                                   / CAST(agg.n AS DOUBLE) END,
                         6) AS berger_parker
            FROM agg CROSS JOIN mx
        """,
    }
)


# Round-3 wave 8 (pipelines/stats4.py): ACE richness, lexical Gini,
# difference-sign runs, Bartels rank von Neumann.
from .stats4 import (  # noqa: E402
    q_ace_richness,
    q_bartels_rvn,
    q_lexical_gini,
    q_runs_updown,
)

QUERIES.update({
    "ace_richness": q_ace_richness,
    "lexical_gini": q_lexical_gini,
    "runs_updown": q_runs_updown,
    "bartels_rvn": q_bartels_rvn,
})

ORACLE_SQL.update(
    {
        "ace_richness": _FF_CTE + """
            , rr AS (SELECT
                CAST(sum(CASE WHEN m <= 10 THEN 1 ELSE 0 END) AS BIGINT)
                    AS s_rare,
                CAST(sum(CASE WHEN m > 10 THEN 1 ELSE 0 END) AS BIGINT)
                    AS s_abund,
                CAST(sum(CASE WHEN m <= 10 THEN m ELSE 0 END) AS BIGINT)
                    AS n_rare,
                CAST(sum(CASE WHEN m = 1 THEN 1 ELSE 0 END) AS BIGINT)
                    AS f1,
                CAST(sum(CASE WHEN m <= 10 THEN m * (m - 1) ELSE 0 END)
                     AS BIGINT) AS sumi
                FROM cs),
            st AS (SELECT *, 1.0 - CAST(f1 AS DOUBLE)
                              / CAST(n_rare AS DOUBLE) AS c
                   FROM rr
                   WHERE n_rare >= 2 AND n_rare != f1),
            g AS (SELECT *,
                         greatest(CAST(s_rare AS DOUBLE)
                                  * CAST(sumi AS DOUBLE)
                                  / (c * CAST(n_rare AS DOUBLE)
                                     * CAST(n_rare - 1 AS DOUBLE)) - 1.0,
                                  0.0) AS g2
                  FROM st)
            SELECT rr.s_rare, rr.s_abund,
                   round(COALESCE(CAST(g.s_abund AS DOUBLE)
                                  + CAST(g.s_rare AS DOUBLE) / g.c
                                  + CAST(g.f1 AS DOUBLE) / g.c * g.g2,
                                  CAST(rr.s_abund + rr.s_rare
                                       AS DOUBLE)), 6) AS ace
            FROM rr LEFT JOIN g ON true
        """,
        "lexical_gini": _FF_CTE + """
            , ffq AS (SELECT m, CAST(count(*) AS BIGINT) AS vm
                      FROM cs GROUP BY 1),
            w AS (SELECT m, vm,
                         COALESCE(sum(vm) OVER (ORDER BY m
                             ROWS BETWEEN UNBOUNDED PRECEDING
                                      AND 1 PRECEDING), 0) AS a
                  FROM ffq),
            rs AS (SELECT CAST(sum(CAST(w.m AS HUGEINT) * w.vm
                                   * (2 * w.a + w.vm - agg.v))
                               AS HUGEINT) AS ranksum
                   FROM w CROSS JOIN agg)
            SELECT agg.v AS vocab, agg.n AS n_tokens,
                   round(CASE WHEN agg.v = 0 OR agg.n = 0 THEN 0.0
                              ELSE CAST(rs.ranksum AS DOUBLE)
                                   / CAST(CAST(agg.v AS HUGEINT) * agg.n
                                          AS DOUBLE) END,
                         6) AS lexical_gini
            FROM agg CROSS JOIN rs
        """,
        "runs_updown": _DENSE_GRID_CTE + """
            , dif AS (SELECT event_type, hr,
                             c - lag(c) OVER (PARTITION BY event_type
                                              ORDER BY hr) AS dd
                      FROM d),
            sg AS (SELECT event_type, hr,
                          CASE WHEN dd > 0 THEN 1 ELSE -1 END AS s
                   FROM dif WHERE dd IS NOT NULL AND dd != 0),
            ch AS (SELECT event_type, s,
                          lag(s) OVER (PARTITION BY event_type
                                       ORDER BY hr) AS ps
                   FROM sg),
            ag AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                          CAST(1 + sum(CASE WHEN ps IS NOT NULL
                                            AND s != ps
                                            THEN 1 ELSE 0 END)
                               AS BIGINT) AS r
                   FROM ch GROUP BY 1),
            tt AS (SELECT DISTINCT event_type FROM d)
            SELECT tt.event_type,
                   COALESCE(ag.n, 0) AS n_signs,
                   COALESCE(ag.r, 0) AS n_runs,
                   round(CASE WHEN COALESCE(ag.n, 0) = 0 THEN 0.0
                              ELSE (3.0 * CAST(ag.r AS DOUBLE)
                                    - CAST(2 * ag.n + 1 AS DOUBLE))
                                   / (3.0 * sqrt(CAST(16 * ag.n - 13
                                                      AS DOUBLE)
                                                 / 90.0)) END,
                         6) AS z
            FROM tt LEFT JOIN ag USING (event_type) ORDER BY 1
        """,
        "bartels_rvn": _DENSE_GRID_CTE + """
            , rk AS (SELECT event_type, hr,
                            2 * (rank() OVER (PARTITION BY event_type
                                              ORDER BY c) - 1)
                            + count(*) OVER (PARTITION BY event_type, c)
                            + 1 AS r2
                     FROM d),
            df AS (SELECT event_type,
                          r2 - lag(r2) OVER (PARTITION BY event_type
                                             ORDER BY hr) AS dd
                   FROM rk),
            nm AS (SELECT event_type,
                          CAST(sum(CAST(dd AS HUGEINT) * dd) AS HUGEINT)
                              AS num
                   FROM df WHERE dd IS NOT NULL GROUP BY 1),
            mm AS (SELECT event_type, CAST(sum(r2) AS BIGINT) AS s1,
                          CAST(sum(CAST(r2 AS HUGEINT) * r2) AS HUGEINT)
                              AS s2
                   FROM rk GROUP BY 1)
            SELECT mm.event_type,
                   round(CASE WHEN hh.hh * mm.s2
                                   - CAST(mm.s1 AS HUGEINT) * mm.s1 = 0
                              THEN 0.0
                              ELSE CAST(hh.hh * COALESCE(nm.num, 0)
                                        AS DOUBLE)
                                   / CAST(hh.hh * mm.s2
                                          - CAST(mm.s1 AS HUGEINT)
                                            * mm.s1 AS DOUBLE) END,
                         6) AS rvn
            FROM mm LEFT JOIN nm USING (event_type) CROSS JOIN hh
            ORDER BY 1
        """,
    }
)


# Round-3 wave 9 (pipelines/stats4.py): seasonal Mann-Kendall.
from .stats4 import q_seasonal_mk  # noqa: E402

QUERIES.update({"seasonal_mk": q_seasonal_mk})

ORACLE_SQL.update(
    {
        "seasonal_mk": _DENSE_GRID_CTE + """
            , s AS (SELECT a.event_type,
                           CAST(sum(CASE WHEN b.c > a.c THEN 1
                                         WHEN b.c < a.c THEN -1
                                         ELSE 0 END) AS BIGINT) AS s_stat
                    FROM d a JOIN d b ON b.event_type = a.event_type
                                     AND b.hr > a.hr
                                     AND (b.hr % 24) = (a.hr % 24)
                    GROUP BY 1),
            grp AS (SELECT event_type, hr % 24 AS hod,
                           CAST(count(*) AS BIGINT) AS nh
                    FROM d GROUP BY 1, 2),
            base AS (SELECT event_type,
                            CAST(sum(CASE WHEN nh >= 2
                                     THEN nh * (nh - 1) * (2 * nh + 5)
                                     ELSE 0 END) AS BIGINT) AS b
                     FROM grp GROUP BY 1),
            ties AS (SELECT event_type,
                            CAST(sum(t * (t - 1) * (2 * t + 5))
                                 AS BIGINT) AS tie_sum
                     FROM (SELECT event_type, hr % 24 AS hod, c,
                                  count(*) AS t
                           FROM d GROUP BY 1, 2, 3
                           HAVING count(*) >= 1)
                     GROUP BY 1),
            v AS (SELECT base.event_type, s.s_stat,
                         base.b - ties.tie_sum AS var_num
                  FROM base JOIN s USING (event_type)
                            JOIN ties USING (event_type))
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
    }
)

# ---------------------------------------------------------------------------
# Round-3 wave 10 (pipelines/stats5.py): serial/spatial autocorrelation
# counterpart, ecological dispersion indices, inequality and variance-
# homogeneity families over the established censuses.
from .stats5 import (  # noqa: E402
    q_dispersion_indices,
    q_geary_c,
    q_hoover_index,
    q_variance_homogeneity,
)

QUERIES.update({
    "geary_c": q_geary_c,
    "dispersion_indices": q_dispersion_indices,
    "hoover_index": q_hoover_index,
    "variance_homogeneity": q_variance_homogeneity,
})

ORACLE_SQL.update(
    {
        "geary_c": _DENSE_GRID_CTE + """
            , ag AS (SELECT event_type, CAST(sum(c) AS BIGINT) AS s1,
                            CAST(sum(c * c) AS BIGINT) AS s2
                     FROM d GROUP BY 1),
            df AS (SELECT event_type,
                          c - lag(c) OVER (PARTITION BY event_type
                                           ORDER BY hr) AS dd
                   FROM d),
            sd AS (SELECT event_type,
                          CAST(sum(dd * dd) AS BIGINT) AS sd2
                   FROM df WHERE dd IS NOT NULL GROUP BY 1)
            SELECT ag.event_type,
                   round(CASE WHEN 2 * (hh.hh * ag.s2
                                        - ag.s1 * ag.s1) = 0 THEN 0.0
                              ELSE CAST(hh.hh * sd.sd2 AS DOUBLE)
                                   / CAST(2 * (hh.hh * ag.s2
                                               - ag.s1 * ag.s1)
                                          AS DOUBLE) END, 6) AS geary_c
            FROM ag JOIN sd USING (event_type) CROSS JOIN hh ORDER BY 1
        """,
        "dispersion_indices": _DENSE_GRID_CTE + """
            , ag AS (SELECT event_type, CAST(sum(c) AS BIGINT) AS s1,
                            CAST(sum(c * c) AS BIGINT) AS s2
                     FROM d GROUP BY 1)
            SELECT event_type,
                   round(CASE WHEN s1 * s1 - s1 = 0 THEN 0.0
                              ELSE CAST(hh.hh * (s2 - s1) AS DOUBLE)
                                   / CAST(s1 * s1 - s1 AS DOUBLE)
                         END, 6) AS morisita,
                   round(CASE WHEN s1 = 0 THEN 0.0
                              ELSE CAST(hh.hh * (s2 - s1) AS DOUBLE)
                                   / CAST(s1 * s1 AS DOUBLE)
                         END, 6) AS patchiness,
                   round(CASE WHEN hh.hh * (hh.hh * s2 - s1 * s1
                                            - (hh.hh - 1) * s1) <= 0
                              THEN 0.0
                              ELSE CAST(s1 * s1 * (hh.hh - 1) AS DOUBLE)
                                   / CAST(hh.hh * (hh.hh * s2 - s1 * s1
                                          - (hh.hh - 1) * s1)
                                          AS DOUBLE) END, 6) AS nb_k
            FROM ag CROSS JOIN hh ORDER BY 1
        """,
        "hoover_index": """
            WITH u AS (SELECT user_id,
                              CAST(sum(CAST(round(value * 100) AS BIGINT))
                                   AS BIGINT) AS x
                       FROM events GROUP BY 1),
            sn AS (SELECT CAST(sum(x) AS BIGINT) AS s,
                          CAST(count(*) AS BIGINT) AS n FROM u)
            SELECT sn.n AS n_users,
                   round(CASE WHEN 2 * sn.n * sn.s = 0 THEN 0.0
                              ELSE CAST(sum(abs(sn.n * u.x - sn.s))
                                        AS DOUBLE)
                                   / CAST(2 * sn.n * sn.s AS DOUBLE)
                         END, 6) AS hoover
            FROM u CROSS JOIN sn GROUP BY sn.n, sn.s
        """,
        "variance_homogeneity": _DENSE_GRID_CTE + """
            , ag AS (SELECT event_type,
                            CAST(hh.hh * sum(c * c) - sum(c) * sum(c)
                                 AS BIGINT) AS nu
                     FROM d CROSS JOIN hh GROUP BY event_type, hh.hh),
            mx AS (SELECT max(nu) AS mx, min(nu) AS mn,
                          CAST(sum(nu) AS BIGINT) AS tot,
                          CAST(count(*) AS BIGINT) AS k FROM ag),
            mt AS (SELECT ag.event_type FROM ag CROSS JOIN mx
                   WHERE ag.nu = mx.mx ORDER BY ag.event_type LIMIT 1)
            SELECT mx.k AS k_groups, mt.event_type AS max_type,
                   round(CASE WHEN mx.mn = 0 THEN 0.0
                              ELSE CAST(mx.mx AS DOUBLE)
                                   / CAST(mx.mn AS DOUBLE) END, 6)
                       AS fmax,
                   round(CASE WHEN mx.tot = 0 THEN 0.0
                              ELSE CAST(mx.mx AS DOUBLE)
                                   / CAST(mx.tot AS DOUBLE) END, 6)
                       AS cochran_c
            FROM mx CROSS JOIN mt
        """,
    }
)

# Round-3 wave 11 (pipelines/stats5.py): Chatterjee's xi dependence
# coefficient, CUSUM-of-squares scan, records test, Buishand range.
from .stats5 import (  # noqa: E402
    q_buishand_range,
    q_chatterjee_xi,
    q_cusum_squares,
    q_records_count,
)

QUERIES.update({
    "chatterjee_xi": q_chatterjee_xi,
    "cusum_squares": q_cusum_squares,
    "records_count": q_records_count,
    "buishand_range": q_buishand_range,
})

ORACLE_SQL.update(
    {
        "chatterjee_xi": _DENSE_GRID_CTE + """
            , rk AS (SELECT event_type, hr,
                            rank() OVER (PARTITION BY event_type
                                         ORDER BY c) AS rnk,
                            count(*) OVER (PARTITION BY event_type, c)
                                AS eq
                     FROM d),
            rr AS (SELECT event_type, hr,
                          CAST(rnk - 1 + eq AS BIGINT) AS r,
                          CAST(hh.hh - (rnk - 1) AS BIGINT) AS l
                   FROM rk CROSS JOIN hh),
            df AS (SELECT event_type,
                          r - lag(r) OVER (PARTITION BY event_type
                                           ORDER BY hr) AS dr
                   FROM rr),
            nm AS (SELECT event_type, CAST(sum(abs(dr)) AS BIGINT) AS num
                   FROM df WHERE dr IS NOT NULL GROUP BY 1),
            dn AS (SELECT event_type,
                          CAST(sum(l * (hh.hh - l)) AS BIGINT) AS den
                   FROM rr CROSS JOIN hh GROUP BY 1)
            SELECT nm.event_type,
                   round(CASE WHEN 2 * dn.den = 0 THEN 0.0
                              ELSE 1.0 - CAST(hh.hh * nm.num AS DOUBLE)
                                         / CAST(2 * dn.den AS DOUBLE)
                         END, 6) AS xi
            FROM nm JOIN dn USING (event_type) CROSS JOIN hh ORDER BY 1
        """,
        "cusum_squares": _DENSE_GRID_CTE + """
            , cs2 AS (SELECT event_type, hr,
                             CAST(sum(c * c) OVER (
                                  PARTITION BY event_type ORDER BY hr)
                                  AS BIGINT) AS c2,
                             row_number() OVER (PARTITION BY event_type
                                                ORDER BY hr) AS t
                      FROM d),
            tot AS (SELECT event_type, CAST(max(c2) AS BIGINT) AS sh
                    FROM cs2 GROUP BY 1),
            dd AS (SELECT cs2.event_type, cs2.t,
                          abs(hh.hh * cs2.c2 - cs2.t * tot.sh) AS dv
                   FROM cs2 JOIN tot USING (event_type) CROSS JOIN hh
                   WHERE cs2.t < hh.hh),
            best AS (SELECT event_type, t, dv,
                            row_number() OVER (PARTITION BY event_type
                                               ORDER BY dv DESC, t ASC)
                                AS rn
                     FROM dd)
            SELECT b.event_type,
                   CAST(CASE WHEN tot.sh = 0 THEN 0 ELSE b.t END
                        AS BIGINT) AS at_pos,
                   round(CASE WHEN tot.sh = 0 THEN 0.0
                              ELSE CAST(b.dv AS DOUBLE)
                                   / CAST(hh.hh * tot.sh AS DOUBLE)
                         END, 6) AS stat
            FROM best b JOIN tot USING (event_type) CROSS JOIN hh
            WHERE b.rn = 1 ORDER BY 1
        """,
        "records_count": _DENSE_GRID_CTE + """
            , w AS (SELECT event_type, hr, c,
                           max(c) OVER (PARTITION BY event_type
                                        ORDER BY hr
                                        ROWS BETWEEN UNBOUNDED PRECEDING
                                        AND 1 PRECEDING) AS pm,
                           row_number() OVER (PARTITION BY event_type
                                              ORDER BY hr) AS t
                    FROM d)
            SELECT event_type,
                   CAST(sum(CASE WHEN pm IS NULL OR c > pm
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_records,
                   CAST(max(CASE WHEN pm IS NULL OR c > pm THEN t END)
                        AS BIGINT) AS last_record_pos
            FROM w GROUP BY 1 ORDER BY 1
        """,
        "buishand_range": _DENSE_GRID_CTE + """
            , ag AS (SELECT event_type, CAST(sum(c) AS BIGINT) AS s1,
                            CAST(sum(c * c) AS BIGINT) AS s2
                     FROM d GROUP BY 1),
            cu AS (SELECT d.event_type,
                          CAST(hh.hh * sum(d.c) OVER (
                                   PARTITION BY d.event_type
                                   ORDER BY d.hr)
                               - (row_number() OVER (
                                      PARTITION BY d.event_type
                                      ORDER BY d.hr)) * ag.s1
                               AS BIGINT) AS a
                   FROM d JOIN ag USING (event_type) CROSS JOIN hh),
            rr AS (SELECT event_type,
                          CAST(greatest(max(a), 0) - least(min(a), 0)
                               AS BIGINT) AS rh
                   FROM cu GROUP BY 1)
            SELECT ag.event_type, rr.rh AS r_scaled,
                   round(CASE WHEN hh.hh * ag.s2 - ag.s1 * ag.s1 <= 0
                              THEN 0.0
                              ELSE (CAST(rr.rh AS DOUBLE)
                                    / CAST(hh.hh AS DOUBLE))
                                   / (sqrt(CAST(hh.hh * ag.s2
                                                - ag.s1 * ag.s1
                                                AS DOUBLE)
                                           / CAST(hh.hh * (hh.hh - 1)
                                                  AS DOUBLE))
                                      * sqrt(CAST(hh.hh AS DOUBLE)))
                         END, 6) AS q
            FROM ag JOIN rr USING (event_type) CROSS JOIN hh ORDER BY 1
        """,
    }
)

# Round-3 wave 12 (pipelines/stats5.py): distribution distances over the
# cent-value census (merged-support cumulative identities).
from .stats5 import q_emd_cents, q_energy_distance  # noqa: E402

QUERIES.update({
    "emd_cents": q_emd_cents,
    "energy_distance": q_energy_distance,
})

ORACLE_SQL.update(
    {
        "emd_cents": _CENT_CENSUS_CTE + """
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
            cums AS (SELECT ta, tb, na, nb, cv,
                            sum(an) OVER w AS cca, sum(bn) OVER w AS ccb,
                            lead(cv) OVER w AS nxt
                     FROM sup
                     WINDOW w AS (PARTITION BY ta, tb ORDER BY cv)),
            agg AS (SELECT ta, tb, na, nb,
                           CAST(sum(CAST(abs(nb * cca - na * ccb)
                                         AS HUGEINT) * (nxt - cv))
                                AS HUGEINT) AS num
                    FROM cums WHERE nxt IS NOT NULL GROUP BY 1, 2, 3, 4)
            SELECT p.ta AS type_a, p.tb AS type_b,
                   round(CASE WHEN p.na * p.nb = 0 THEN 0.0
                              ELSE CAST(COALESCE(agg.num, 0) AS DOUBLE)
                                   / CAST(p.na * p.nb AS DOUBLE)
                         END, 6) AS w1_cents
            FROM pairs p LEFT JOIN agg ON agg.ta = p.ta
                                      AND agg.tb = p.tb
            ORDER BY 1, 2
        """,
        "energy_distance": _CENT_CENSUS_CTE + """
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
            cums AS (SELECT ta, tb, na, nb, cv, an, bn,
                            sum(an) OVER w - an AS walt,
                            sum(bn) OVER w - bn AS wblt,
                            sum(an * cv) OVER w - an * cv AS salt,
                            sum(bn * cv) OVER w - bn * cv AS sblt
                     FROM sup
                     WINDOW w AS (PARTITION BY ta, tb ORDER BY cv)),
            agg AS (SELECT ta, tb, na, nb,
                           CAST(sum(CAST(bn AS HUGEINT)
                                    * (cv * walt - salt)
                                    + CAST(an AS HUGEINT)
                                      * (cv * wblt - sblt))
                                AS HUGEINT) AS gab,
                           CAST(sum(CAST(an AS HUGEINT)
                                    * (cv * walt - salt))
                                AS HUGEINT) AS gaa,
                           CAST(sum(CAST(bn AS HUGEINT)
                                    * (cv * wblt - sblt))
                                AS HUGEINT) AS gbb
                    FROM cums GROUP BY 1, 2, 3, 4)
            SELECT ta AS type_a, tb AS type_b,
                   round(CASE WHEN na = 0 OR nb = 0 THEN 0.0
                              ELSE CAST(2 * (gab * na * nb
                                        - gaa * CAST(nb AS HUGEINT) * nb
                                        - gbb * CAST(na AS HUGEINT) * na)
                                        AS DOUBLE)
                                   / CAST(CAST(na AS HUGEINT) * na
                                          * nb * nb AS DOUBLE)
                         END, 6) AS energy_cents
            FROM agg ORDER BY 1, 2
        """,
    }
)

# Round-3 wave 13 (pipelines/stats5.py): blocked / grouped variance
# homogeneity tests (Quade, mean-centered Levene, Bartlett).
from .stats5 import q_bartlett, q_levene_mean, q_quade_test  # noqa: E402

QUERIES.update({
    "quade_test": q_quade_test,
    "levene_mean": q_levene_mean,
    "bartlett": q_bartlett,
})

ORACLE_SQL.update(
    {
        "quade_test": _DENSE_GRID_CTE + """
            , rk AS (SELECT hr, event_type,
                            2 * (rank() OVER (PARTITION BY hr
                                              ORDER BY c) - 1)
                            + count(*) OVER (PARTITION BY hr, c) + 1
                                AS r2
                     FROM d),
            br AS (SELECT hr, max(c) - min(c) AS rng FROM d GROUP BY 1),
            qr AS (SELECT hr,
                          2 * (rank() OVER (ORDER BY rng) - 1)
                          + count(*) OVER (PARTITION BY rng) + 1 AS q2
                   FROM br),
            tk AS (SELECT CAST(count(DISTINCT event_type) AS BIGINT)
                       AS k FROM d),
            cells AS (SELECT rk.event_type,
                             CAST(qr.q2 * (rk.r2 - (tk.k + 1))
                                  AS BIGINT) AS s2
                      FROM rk JOIN qr USING (hr) CROSS JOIN tk),
            sj AS (SELECT event_type, CAST(sum(s2) AS BIGINT) AS sjv
                   FROM cells GROUP BY 1),
            ag AS (SELECT CAST(sum(CAST(sjv AS HUGEINT) * sjv)
                               AS HUGEINT) AS sum_sj2 FROM sj),
            a2 AS (SELECT CAST(sum(CAST(s2 AS HUGEINT) * s2)
                               AS HUGEINT) AS a2s
                   FROM cells)
            SELECT tk.k AS k_types, CAST(hh.hh AS BIGINT) AS n_blocks,
                   round(CASE WHEN hh.hh * a2.a2s - ag.sum_sj2 = 0
                              THEN 0.0
                              ELSE CAST((hh.hh - 1) * ag.sum_sj2
                                        AS DOUBLE)
                                   / CAST(hh.hh * a2.a2s - ag.sum_sj2
                                          AS DOUBLE) END, 6) AS t_stat
            FROM ag CROSS JOIN a2 CROSS JOIN hh CROSS JOIN tk
        """,
        "levene_mean": _DENSE_GRID_CTE + """
            , ag AS (SELECT event_type, CAST(sum(c) AS BIGINT) AS s1
                     FROM d GROUP BY 1),
            z AS (SELECT d.event_type,
                         CAST(abs(hh.hh * d.c - ag.s1) AS BIGINT) AS zz
                  FROM d JOIN ag USING (event_type) CROSS JOIN hh),
            uj AS (SELECT event_type, CAST(sum(zz) AS BIGINT) AS u
                   FROM z GROUP BY 1),
            n2 AS (SELECT CAST(sum((CAST(hh.hh AS HUGEINT) * z.zz
                                    - uj.u)
                                   * (CAST(hh.hh AS HUGEINT) * z.zz
                                      - uj.u)) AS HUGEINT) AS num2
                   FROM z JOIN uj USING (event_type) CROSS JOIN hh),
            n1 AS (SELECT CAST(sum((tk.k * CAST(uj.u AS HUGEINT)
                                    - tu.u)
                                   * (tk.k * CAST(uj.u AS HUGEINT)
                                      - tu.u)) AS HUGEINT) AS num1,
                          max(tk.k) AS k
                   FROM uj
                   CROSS JOIN (SELECT CAST(sum(u) AS HUGEINT) AS u
                               FROM uj) tu
                   CROSS JOIN (SELECT CAST(count(*) AS BIGINT) AS k
                               FROM uj) tk)
            SELECT n1.k AS k_groups,
                   CAST(n1.k * hh.hh AS BIGINT) AS n,
                   round(CASE WHEN (n1.k - 1) * n1.k * n1.k * n2.num2
                                   = 0 THEN 0.0
                              ELSE CAST((n1.k * hh.hh - n1.k) * hh.hh
                                        * n1.num1 AS DOUBLE)
                                   / CAST((n1.k - 1) * n1.k * n1.k
                                          * n2.num2 AS DOUBLE)
                         END, 6) AS w_stat
            FROM n1 CROSS JOIN n2 CROSS JOIN hh
        """,
        "bartlett": _DENSE_GRID_CTE + """
            , ag AS (SELECT event_type,
                            CAST(hh.hh * sum(c * c) - sum(c) * sum(c)
                                 AS BIGINT) AS nu
                     FROM d CROSS JOIN hh GROUP BY event_type, hh.hh),
            st AS (SELECT CAST(count(*) AS BIGINT) AS k,
                          min(nu) AS mn,
                          CAST(sum(nu) AS BIGINT) AS tot,
                          CAST(sum(floor(ln(CAST(nu AS DOUBLE)
                                            / CAST(hh.hh * (hh.hh - 1)
                                                   AS DOUBLE)) * 1e6))
                               FILTER (WHERE nu > 0) AS BIGINT) AS sfl,
                          CAST(max(hh.hh) AS BIGINT) AS h
                   FROM ag CROSS JOIN hh)
            SELECT st.k AS k_groups, st.h AS n_per_group,
                   round(CASE WHEN st.mn <= 0 OR st.h < 2 OR st.k < 2
                              THEN 0.0
                              ELSE (CAST((st.h - 1)
                                    * (st.k
                                       * floor(ln(
                                           CAST(greatest(st.tot, 1)
                                                AS DOUBLE)
                                           / CAST(st.k * st.h
                                                  * (st.h - 1)
                                                  AS DOUBLE)) * 1e6)
                                       - st.sfl) AS DOUBLE) / 1e6)
                                   * CAST(3 * st.k * (st.h - 1)
                                          AS DOUBLE)
                                   / CAST(3 * st.k * (st.h - 1)
                                          + st.k + 1 AS DOUBLE)
                         END, 6) AS chi2
            FROM st
        """,
    }
)

# Round-3 wave 14 (pipelines/stats5.py): association / agreement /
# concordance (Goodman-Kruskal lambda, Scott pi + Gwet AC1, Lin CCC).
from .stats5 import q_agreement_coefs, q_gk_lambda, q_lins_ccc  # noqa: E402

QUERIES.update({
    "gk_lambda": q_gk_lambda,
    "agreement_coefs": q_agreement_coefs,
    "lins_ccc": q_lins_ccc,
})

ORACLE_SQL.update(
    {
        "gk_lambda": """
            WITH s AS (SELECT event_type,
                              ((epoch_ms(ts) // 86400000) + 3) % 7
                                  AS dow,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY 1, 2),
            rmax AS (SELECT event_type, max(n) AS m FROM s GROUP BY 1),
            cmax AS (SELECT dow, max(n) AS m FROM s GROUP BY 1),
            rtot AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS t
                     FROM s GROUP BY 1),
            ctot AS (SELECT dow, CAST(sum(n) AS BIGINT) AS t
                     FROM s GROUP BY 1),
            agg AS (SELECT
                      (SELECT CAST(sum(n) AS BIGINT) FROM s) AS n,
                      (SELECT CAST(sum(m) AS BIGINT) FROM rmax) AS srm,
                      (SELECT CAST(sum(m) AS BIGINT) FROM cmax) AS scm,
                      (SELECT CAST(max(t) AS BIGINT) FROM ctot) AS mct,
                      (SELECT CAST(max(t) AS BIGINT) FROM rtot) AS mrt)
            SELECT n,
                   round(CASE WHEN n = mct THEN 0.0
                              ELSE CAST(srm - mct AS DOUBLE)
                                   / CAST(n - mct AS DOUBLE) END, 6)
                       AS lambda_c_given_r,
                   round(CASE WHEN n = mrt THEN 0.0
                              ELSE CAST(scm - mrt AS DOUBLE)
                                   / CAST(n - mrt AS DOUBLE) END, 6)
                       AS lambda_r_given_c,
                   round(CASE WHEN 2 * n - mct - mrt = 0 THEN 0.0
                              ELSE CAST(srm + scm - mct - mrt AS DOUBLE)
                                   / CAST(2 * n - mct - mrt AS DOUBLE)
                         END, 6) AS lambda_sym
            FROM agg
        """,
        "agreement_coefs": _DENSE_GRID_CTE + """
            , tots AS (SELECT event_type, CAST(sum(c) AS BIGINT) AS s1
                       FROM d GROUP BY 1),
            bits AS (SELECT d.event_type, d.hr,
                            CASE WHEN d.c * hh.hh > t.s1
                                 THEN 1 ELSE 0 END AS b
                     FROM d JOIN tots t USING (event_type) CROSS JOIN hh),
            p AS (SELECT x.event_type AS ta, y.event_type AS tb,
                         CAST(sum(CASE WHEN x.b = y.b THEN 1 ELSE 0 END)
                              AS HUGEINT) AS agree,
                         CAST(sum(x.b) + sum(y.b) AS HUGEINT) AS q1
                  FROM bits x JOIN bits y ON y.hr = x.hr
                                         AND x.event_type < y.event_type
                  GROUP BY 1, 2)
            SELECT ta AS type_a, tb AS type_b,
                   round(CASE WHEN 4 * hh.hh * hh.hh - q1 * q1
                                   - (2 * hh.hh - q1) * (2 * hh.hh - q1)
                                   = 0 THEN 0.0
                              ELSE CAST(4 * hh.hh * agree - q1 * q1
                                        - (2 * hh.hh - q1)
                                          * (2 * hh.hh - q1) AS DOUBLE)
                                   / CAST(4 * hh.hh * hh.hh - q1 * q1
                                          - (2 * hh.hh - q1)
                                            * (2 * hh.hh - q1)
                                          AS DOUBLE) END, 6) AS scott_pi,
                   round(CASE WHEN 4 * hh.hh * hh.hh
                                   - 2 * q1 * (2 * hh.hh - q1) = 0
                              THEN 0.0
                              ELSE CAST(4 * hh.hh * agree
                                        - 2 * q1 * (2 * hh.hh - q1)
                                        AS DOUBLE)
                                   / CAST(4 * hh.hh * hh.hh
                                          - 2 * q1 * (2 * hh.hh - q1)
                                          AS DOUBLE) END, 6) AS gwet_ac1
            FROM p CROSS JOIN hh ORDER BY 1, 2
        """,
        "lins_ccc": _DENSE_GRID_CTE + """
            , p AS (SELECT x.event_type AS ta, y.event_type AS tb,
                           CAST(sum(CAST(x.c AS HUGEINT) * y.c)
                                AS HUGEINT) AS sxy,
                           CAST(sum(CAST(x.c AS HUGEINT) * x.c)
                                AS HUGEINT) AS sxx,
                           CAST(sum(CAST(y.c AS HUGEINT) * y.c)
                                AS HUGEINT) AS syy,
                           CAST(sum(x.c) AS HUGEINT) AS sx,
                           CAST(sum(y.c) AS HUGEINT) AS sy
                    FROM d x JOIN d y ON y.hr = x.hr
                                     AND x.event_type < y.event_type
                    GROUP BY 1, 2)
            SELECT ta AS type_a, tb AS type_b,
                   round(CASE WHEN hh.hh * sxx - sx * sx
                                   + hh.hh * syy - sy * sy
                                   + (sx - sy) * (sx - sy) = 0 THEN 0.0
                              ELSE CAST(2 * (hh.hh * sxy - sx * sy)
                                        AS DOUBLE)
                                   / CAST(hh.hh * sxx - sx * sx
                                          + hh.hh * syy - sy * sy
                                          + (sx - sy) * (sx - sy)
                                          AS DOUBLE) END, 6) AS ccc
            FROM p CROSS JOIN hh ORDER BY 1, 2
        """,
    }
)

# Round-3 wave 15 (pipelines/stats5.py): two-sample distribution tests
# between type pairs over the cent-value census (merged-support
# cumulative identities; doubled midranks for the rank test).
from .stats5 import (  # noqa: E402
    q_cucconi,
    q_cvm_two_sample,
    q_ks_two_sample,
    q_kuiper_two_sample,
)

QUERIES.update({
    "ks_two_sample": q_ks_two_sample,
    "kuiper_two_sample": q_kuiper_two_sample,
    "cvm_two_sample": q_cvm_two_sample,
    "cucconi": q_cucconi,
})

# Shared pair-support CTE: per type pair, the merged cent support with
# inclusive cumulative counts (cca/ccb) and the strictly-below pooled
# count (wlt) for doubled midranks.
_PAIR_CUMS_CTE = _CENT_CENSUS_CTE + """
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
            cums AS (SELECT ta, tb, na, nb, cv, an, bn,
                            sum(an) OVER w AS cca, sum(bn) OVER w AS ccb,
                            sum(an + bn) OVER w - (an + bn) AS wlt
                     FROM sup
                     WINDOW w AS (PARTITION BY ta, tb ORDER BY cv))
"""

ORACLE_SQL.update(
    {
        "ks_two_sample": _PAIR_CUMS_CTE + """
            , dif AS (SELECT ta, tb, na, nb, cv,
                             abs(nb * cca - na * ccb) AS ad
                      FROM cums),
            mx AS (SELECT ta, tb, na, nb, max(ad) AS m
                   FROM dif GROUP BY 1, 2, 3, 4),
            loc AS (SELECT d.ta, d.tb, d.na, d.nb, m.m,
                           min(d.cv) AS at_cv
                    FROM dif d JOIN mx m ON m.ta = d.ta AND m.tb = d.tb
                                        AND d.ad = m.m
                    GROUP BY 1, 2, 3, 4, 5)
            SELECT ta AS type_a, tb AS type_b,
                   round(CASE WHEN na * nb = 0 THEN 0.0
                              ELSE CAST(m AS DOUBLE)
                                   / CAST(na * nb AS DOUBLE) END,
                         6) AS d_stat,
                   at_cv
            FROM loc ORDER BY 1, 2
        """,
        "kuiper_two_sample": _PAIR_CUMS_CTE + """
            , dif AS (SELECT ta, tb, na, nb,
                             nb * cca - na * ccb AS df
                      FROM cums),
            ag AS (SELECT ta, tb, na, nb,
                          greatest(max(df), 0) AS dp,
                          greatest(max(-df), 0) AS dm
                   FROM dif GROUP BY 1, 2, 3, 4)
            SELECT ta AS type_a, tb AS type_b,
                   round(CASE WHEN na * nb = 0 THEN 0.0
                              ELSE CAST(dp + dm AS DOUBLE)
                                   / CAST(na * nb AS DOUBLE) END,
                         6) AS kuiper_v
            FROM ag ORDER BY 1, 2
        """,
        "cvm_two_sample": _PAIR_CUMS_CTE + """
            , ag AS (SELECT ta, tb, na, nb,
                            CAST(sum(CAST(an + bn AS HUGEINT)
                                     * (nb * cca - na * ccb)
                                     * (nb * cca - na * ccb))
                                 AS HUGEINT) AS num
                     FROM cums GROUP BY 1, 2, 3, 4)
            SELECT ta AS type_a, tb AS type_b,
                   round(CASE WHEN na = 0 OR nb = 0 THEN 0.0
                              ELSE CAST(num AS DOUBLE)
                                   / CAST(CAST(na + nb AS HUGEINT)
                                          * (na + nb) * na * nb
                                          AS DOUBLE) END, 6) AS cvm_t
            FROM ag ORDER BY 1, 2
        """,
        "cucconi": _PAIR_CUMS_CTE + """
            , dd AS (SELECT ta, tb, na, nb, an,
                            2 * wlt + (an + bn) + 1 AS d
                     FROM cums),
            ag AS (SELECT ta, tb, na, nb,
                          CAST(sum(CAST(an AS HUGEINT) * d)
                               AS HUGEINT) AS s1d,
                          CAST(sum(CAST(an AS HUGEINT) * d * d)
                               AS HUGEINT) AS s2d
                   FROM dd GROUP BY 1, 2, 3, 4),
            st AS (SELECT ta, tb, na, nb, na + nb AS nn, s1d, s2d
                   FROM ag),
            uv AS (SELECT ta, tb, na, nb, nn,
                          6 * s2d - 4 * CAST(na AS HUGEINT)
                            * (nn + 1) * (2 * nn + 1) AS num_u,
                          6 * (4 * CAST(nn + 1 AS HUGEINT) * (nn + 1) * na
                               - 4 * (nn + 1) * s1d + s2d)
                            - 4 * CAST(na AS HUGEINT)
                              * (nn + 1) * (2 * nn + 1) AS num_v,
                          16 * CAST(na AS HUGEINT) * nb * (nn + 1)
                            * (2 * nn + 1) * (8 * nn + 11) AS big_d
                   FROM st),
            fl AS (SELECT ta, tb, na, nb, nn,
                          CAST(num_u AS DOUBLE)
                            / sqrt(CAST(big_d AS DOUBLE) / 5.0) AS u,
                          CAST(num_v AS DOUBLE)
                            / sqrt(CAST(big_d AS DOUBLE) / 5.0) AS v,
                          CAST(2 * (CAST(nn AS HUGEINT) * nn - 4)
                               AS DOUBLE)
                            / CAST((2 * CAST(nn AS HUGEINT) + 1)
                                   * (8 * nn + 11) AS DOUBLE)
                            - 1.0 AS rho
                   FROM uv)
            SELECT ta AS type_a, tb AS type_b,
                   round(CASE WHEN na = 0 OR nb = 0 OR nn < 3 THEN 0.0
                              ELSE (u * u + v * v - 2.0 * rho * u * v)
                                   / (2.0 * (1.0 - rho * rho)) END,
                         6) AS cucconi_c
            FROM fl ORDER BY 1, 2
        """,
    }
)

# Round-3 wave 16 (pipelines/stats5.py): contingency-table effect sizes
# over the (type, day-of-week) census (pico-floored per-cell terms).
from .stats5 import q_cramers_v_dow, q_gk_tau, q_yule_coefs  # noqa: E402

QUERIES.update({
    "cramers_v_dow": q_cramers_v_dow,
    "gk_tau": q_gk_tau,
    "yule_coefs": q_yule_coefs,
})

_TYPE_DOW_CTE = """
            WITH c AS (SELECT event_type AS et,
                              ((epoch_ms(ts) // 86400000) + 3) % 7 AS dow,
                              count(*) AS n
                       FROM events GROUP BY 1, 2),
            rt AS (SELECT et, CAST(sum(n) AS BIGINT) AS r
                   FROM c GROUP BY 1),
            ct AS (SELECT dow, CAST(sum(n) AS BIGINT) AS cc
                   FROM c GROUP BY 1),
            tt AS (SELECT CAST(sum(n) AS BIGINT) AS n,
                          (SELECT count(*) FROM rt) AS r_cnt,
                          (SELECT count(*) FROM ct) AS c_cnt
                   FROM c)
"""

ORACLE_SQL.update(
    {
        "cramers_v_dow": _TYPE_DOW_CTE + """
            , cells AS (SELECT rt.r, ct.cc, COALESCE(c.n, 0) AS cell
                        FROM rt CROSS JOIN ct
                        LEFT JOIN c ON c.et = rt.et AND c.dow = ct.dow),
            terms AS (SELECT (CAST(tt.n * cell - r * cc AS HUGEINT)
                              * (tt.n * cell - r * cc)
                              * 1000000000000)
                             // (CAST(tt.n AS HUGEINT) * r * cc) AS t
                      FROM cells CROSS JOIN tt),
            ag AS (SELECT CAST(sum(t) AS HUGEINT) AS chi2_pico
                   FROM terms)
            SELECT tt.n,
                   round(CAST(chi2_pico AS DOUBLE) / 1e12, 6) AS chi2,
                   round(CASE WHEN tt.n * least(tt.r_cnt - 1,
                                                tt.c_cnt - 1) = 0
                              THEN 0.0
                              ELSE sqrt(CAST(chi2_pico AS DOUBLE)
                                        / (1e12 * CAST(tt.n
                                           * least(tt.r_cnt - 1,
                                                   tt.c_cnt - 1)
                                           AS DOUBLE))) END,
                         6) AS cramers_v,
                   round(CASE WHEN tt.n = 0
                                   OR (tt.r_cnt - 1) * (tt.c_cnt - 1) = 0
                              THEN 0.0
                              ELSE sqrt(CAST(chi2_pico AS DOUBLE)
                                        / (1e12 * CAST(tt.n AS DOUBLE)
                                           * sqrt(CAST((tt.r_cnt - 1)
                                                  * (tt.c_cnt - 1)
                                                  AS DOUBLE)))) END,
                         6) AS tschuprow_t,
                   round(sqrt(CAST(chi2_pico AS DOUBLE)
                              / CAST(chi2_pico
                                     + 1000000000000 *
                                       CAST(tt.n AS HUGEINT)
                                     AS DOUBLE)), 6) AS pearson_c
            FROM ag CROSS JOIN tt
        """,
        "gk_tau": _TYPE_DOW_CTE + """
            , srr AS (SELECT CAST(sum(CAST(r AS HUGEINT) * r)
                                  AS HUGEINT) AS srr FROM rt),
            scc AS (SELECT CAST(sum(CAST(cc AS HUGEINT) * cc)
                                AS HUGEINT) AS scc FROM ct),
            us AS (SELECT CAST(sum((1000000000000 *
                                    CAST(s2 AS HUGEINT)) // r)
                               AS HUGEINT) AS u_sum
                   FROM (SELECT rt.r,
                                (SELECT COALESCE(sum(CAST(c.n AS HUGEINT)
                                                     * c.n), 0)
                                 FROM c WHERE c.et = rt.et) AS s2
                         FROM rt WHERE rt.r > 0)),
            ts AS (SELECT CAST(sum((1000000000000 *
                                    CAST(s2 AS HUGEINT)) // cc)
                               AS HUGEINT) AS t_sum
                   FROM (SELECT ct.cc,
                                (SELECT COALESCE(sum(CAST(c.n AS HUGEINT)
                                                     * c.n), 0)
                                 FROM c WHERE c.dow = ct.dow) AS s2
                         FROM ct WHERE ct.cc > 0))
            SELECT tt.n,
                   round(CASE WHEN CAST(tt.n AS HUGEINT) * tt.n
                                   - scc.scc = 0 THEN 0.0
                              ELSE CAST(tt.n * us.u_sum
                                        - 1000000000000 * scc.scc
                                        AS DOUBLE)
                                   / CAST(1000000000000 *
                                          (CAST(tt.n AS HUGEINT) * tt.n
                                           - scc.scc) AS DOUBLE) END,
                         6) AS tau_c_given_r,
                   round(CASE WHEN CAST(tt.n AS HUGEINT) * tt.n
                                   - srr.srr = 0 THEN 0.0
                              ELSE CAST(tt.n * ts.t_sum
                                        - 1000000000000 * srr.srr
                                        AS DOUBLE)
                                   / CAST(1000000000000 *
                                          (CAST(tt.n AS HUGEINT) * tt.n
                                           - srr.srr) AS DOUBLE) END,
                         6) AS tau_r_given_c
            FROM tt CROSS JOIN srr CROSS JOIN scc
                    CROSS JOIN us CROSS JOIN ts
        """,
        "yule_coefs": """
            WITH f AS (SELECT CASE WHEN ((epoch_ms(ts) // 86400000) + 3)
                                        % 7 >= 5
                                   THEN 1 ELSE 0 END AS we,
                              CASE WHEN event_type = 'purchase'
                                   THEN 1 ELSE 0 END AS pu
                       FROM events),
            ag AS (SELECT CAST(sum(we * pu) AS BIGINT) AS a,
                          CAST(sum(we * (1 - pu)) AS BIGINT) AS b,
                          CAST(sum((1 - we) * pu) AS BIGINT) AS c,
                          CAST(sum((1 - we) * (1 - pu)) AS BIGINT) AS d
                   FROM f)
            SELECT round(CASE WHEN a * d + b * c = 0 THEN 0.0
                              ELSE CAST(a * d - b * c AS DOUBLE)
                                   / CAST(a * d + b * c AS DOUBLE) END,
                         6) AS yule_q,
                   round(CASE WHEN a * d + b * c = 0 THEN 0.0
                              ELSE (sqrt(CAST(a * d AS DOUBLE))
                                    - sqrt(CAST(b * c AS DOUBLE)))
                                   / (sqrt(CAST(a * d AS DOUBLE))
                                      + sqrt(CAST(b * c AS DOUBLE)))
                         END, 6) AS yule_y
            FROM ag
        """,
    }
)

# Round-3 wave 17 (pipelines/stats5.py): multi-rater agreement over the
# dense hourly grid (types rate hours by mean-binarization / quintiles).
from .stats5 import (  # noqa: E402
    q_fleiss_kappa,
    q_kripp_alpha,
    q_weighted_kappa,
)

QUERIES.update({
    "fleiss_kappa": q_fleiss_kappa,
    "kripp_alpha": q_kripp_alpha,
    "weighted_kappa": q_weighted_kappa,
})

_RATER_BITS_CTE = _DENSE_GRID_CTE + """
            , st AS (SELECT event_type, CAST(sum(c) AS BIGINT) AS s
                     FROM d GROUP BY 1),
            bits AS (SELECT d.hr,
                            CASE WHEN d.c * hh.hh > st.s
                                 THEN 1 ELSE 0 END AS bit
                     FROM d JOIN st USING (event_type) CROSS JOIN hh),
            u AS (SELECT hr, CAST(sum(bit) AS BIGINT) AS n1,
                         CAST(count(*) AS BIGINT) AS nr
                  FROM bits GROUP BY 1),
            ag AS (SELECT CAST(sum(CAST(n1 AS HUGEINT) * n1
                                   + CAST(nr - n1 AS HUGEINT)
                                     * (nr - n1)) AS HUGEINT) AS sq,
                          CAST(sum(n1) AS BIGINT) AS c1,
                          max(nr) AS nr,
                          CAST(count(*) AS BIGINT) AS h
                   FROM u)
"""

ORACLE_SQL.update(
    {
        "fleiss_kappa": _RATER_BITS_CTE + """
            , ag2 AS (SELECT nr, h,
                             sq - CAST(h AS HUGEINT) * nr AS a_sum,
                             CAST(c1 AS HUGEINT) * c1
                               + CAST(h * nr - c1 AS HUGEINT)
                                 * (h * nr - c1) AS b_sum
                      FROM ag)
            SELECT nr AS n_raters,
                   round(CASE WHEN nr < 2
                                   OR (nr - 1) * (CAST(h AS HUGEINT)
                                                  * h * nr * nr - b_sum)
                                      = 0 THEN 0.0
                              ELSE CAST(a_sum * h * nr
                                        - b_sum * (nr - 1) AS DOUBLE)
                                   / CAST((nr - 1)
                                          * (CAST(h AS HUGEINT)
                                             * h * nr * nr - b_sum)
                                          AS DOUBLE) END,
                         6) AS fleiss_kappa
            FROM ag2
        """,
        "kripp_alpha": _RATER_BITS_CTE + """
            , dg AS (SELECT CAST(sum(CAST(n1 AS HUGEINT) * (nr - n1))
                                 AS HUGEINT) AS disc
                     FROM u)
            SELECT round(CASE WHEN ag.nr < 2
                                   OR (ag.nr - 1)
                                      * CAST(ag.c1 AS HUGEINT)
                                      * (ag.h * ag.nr - ag.c1) = 0
                              THEN 0.0
                              ELSE 1.0 - CAST((CAST(ag.h AS HUGEINT)
                                               * ag.nr - 1) * dg.disc
                                              AS DOUBLE)
                                   / CAST((ag.nr - 1)
                                          * CAST(ag.c1 AS HUGEINT)
                                          * (ag.h * ag.nr - ag.c1)
                                          AS DOUBLE) END,
                         6) AS kripp_alpha
            FROM ag CROSS JOIN dg
        """,
        "weighted_kappa": _DENSE_GRID_CTE + """
            , b AS (SELECT event_type, hr,
                           CAST(ntile(5) OVER (PARTITION BY event_type
                                               ORDER BY c, hr)
                                AS BIGINT) AS q
                    FROM d),
            j AS (SELECT x.event_type AS ta, y.event_type AS tb,
                         x.q AS qa, y.q AS qb,
                         CAST(count(*) AS BIGINT) AS o
                  FROM b x JOIN b y ON y.hr = x.hr
                                   AND x.event_type < y.event_type
                  GROUP BY 1, 2, 3, 4),
            ra AS (SELECT ta, tb, qa, CAST(sum(o) AS BIGINT) AS r
                   FROM j GROUP BY 1, 2, 3),
            cb AS (SELECT ta, tb, qb, CAST(sum(o) AS BIGINT) AS cc
                   FROM j GROUP BY 1, 2, 3),
            obs AS (SELECT ta, tb,
                           CAST(sum(abs(qa - qb) * o) AS HUGEINT) AS ol,
                           CAST(sum((qa - qb) * (qa - qb) * o)
                                AS HUGEINT) AS oq
                    FROM j GROUP BY 1, 2),
            ex AS (SELECT r.ta, r.tb,
                          CAST(sum(abs(r.qa - c.qb)
                                   * CAST(r.r AS HUGEINT) * c.cc)
                               AS HUGEINT) AS el,
                          CAST(sum((r.qa - c.qb) * (r.qa - c.qb)
                                   * CAST(r.r AS HUGEINT) * c.cc)
                               AS HUGEINT) AS eq
                   FROM ra r JOIN cb c ON c.ta = r.ta AND c.tb = r.tb
                   GROUP BY 1, 2)
            SELECT obs.ta AS type_a, obs.tb AS type_b,
                   round(CASE WHEN ex.el = 0 THEN 0.0
                              ELSE 1.0 - CAST(hh.hh * obs.ol AS DOUBLE)
                                   / CAST(ex.el AS DOUBLE) END,
                         6) AS kappa_lin,
                   round(CASE WHEN ex.eq = 0 THEN 0.0
                              ELSE 1.0 - CAST(hh.hh * obs.oq AS DOUBLE)
                                   / CAST(ex.eq AS DOUBLE) END,
                         6) AS kappa_quad
            FROM obs JOIN ex ON ex.ta = obs.ta AND ex.tb = obs.tb
                     CROSS JOIN hh
            ORDER BY 1, 2
        """,
    }
)

# Round-3 wave 18 (pipelines/stats5.py): signal-complexity family over
# the dense hourly grid (Hjorth, SampEn, Katz FD, mean crossings).
from .stats5 import (  # noqa: E402
    q_hjorth_params,
    q_katz_fd,
    q_mean_crossings,
    q_sample_entropy,
)

QUERIES.update({
    "hjorth_params": q_hjorth_params,
    "sample_entropy": q_sample_entropy,
    "katz_fd": q_katz_fd,
    "mean_crossings": q_mean_crossings,
})

ORACLE_SQL.update(
    {
        "hjorth_params": _DENSE_GRID_CTE + """
            , dd AS (SELECT event_type, hr, c,
                            lead(c) OVER w - c AS dx,
                            lead(c, 2) OVER w - 2 * lead(c) OVER w
                              + c AS ddx
                     FROM d
                     WINDOW w AS (PARTITION BY event_type ORDER BY hr)),
            ag AS (SELECT event_type,
                          CAST(sum(CAST(c AS HUGEINT) * c)
                               AS HUGEINT) AS s2,
                          CAST(sum(c) AS HUGEINT) AS s1,
                          CAST(sum(CASE WHEN dx IS NULL THEN 0
                                        ELSE CAST(dx AS HUGEINT) * dx
                                   END) AS HUGEINT) AS s2d1,
                          CAST(sum(COALESCE(dx, 0)) AS HUGEINT) AS s1d1,
                          CAST(sum(CASE WHEN ddx IS NULL THEN 0
                                        ELSE CAST(ddx AS HUGEINT) * ddx
                                   END) AS HUGEINT) AS s2d2,
                          CAST(sum(COALESCE(ddx, 0)) AS HUGEINT) AS s1d2
                   FROM dd GROUP BY 1),
            nu AS (SELECT event_type, hh.hh AS h,
                          hh.hh * s2 - s1 * s1 AS nu0,
                          (hh.hh - 1) * s2d1 - s1d1 * s1d1 AS nu1,
                          (hh.hh - 2) * s2d2 - s1d2 * s1d2 AS nu2
                   FROM ag CROSS JOIN hh)
            SELECT event_type,
                   round(CAST(nu0 AS DOUBLE)
                         / CAST(CAST(h AS HUGEINT) * h AS DOUBLE),
                         6) AS activity,
                   round(CASE WHEN nu0 = 0 THEN 0.0
                              ELSE sqrt(CAST(nu1 * h * h AS DOUBLE)
                                        / CAST(nu0 * (h - 1) * (h - 1)
                                               AS DOUBLE)) END,
                         6) AS mobility,
                   round(CASE WHEN nu0 = 0 OR nu1 = 0 THEN 0.0
                              ELSE sqrt(CAST(nu2 * (h - 1) * (h - 1)
                                             AS DOUBLE)
                                        / CAST(nu1 * (h - 2) * (h - 2)
                                               AS DOUBLE))
                                   / sqrt(CAST(nu1 * h * h AS DOUBLE)
                                          / CAST(nu0 * (h - 1) * (h - 1)
                                                 AS DOUBLE)) END,
                         6) AS complexity
            FROM nu ORDER BY 1
        """,
        "sample_entropy": _DENSE_GRID_CTE + """
            , dif AS (SELECT event_type,
                             abs(lead(c) OVER w - c) AS ad
                      FROM d
                      WINDOW w AS (PARTITION BY event_type
                                   ORDER BY hr)),
            rt AS (SELECT event_type,
                          CAST(quantile_disc(ad, 0.5) AS BIGINT) AS r
                   FROM dif WHERE ad IS NOT NULL GROUP BY 1),
            tpl AS (SELECT event_type, hr, c AS c0,
                           lead(c) OVER w AS c1,
                           lead(c, 2) OVER w AS c2
                    FROM d
                    WINDOW w AS (PARTITION BY event_type ORDER BY hr)),
            t3 AS (SELECT * FROM tpl WHERE c2 IS NOT NULL),
            j AS (SELECT a.event_type,
                         CASE WHEN abs(a.c0 - b.c0) <= rt.r
                                   AND abs(a.c1 - b.c1) <= rt.r
                              THEN 1 ELSE 0 END AS mb,
                         CASE WHEN abs(a.c0 - b.c0) <= rt.r
                                   AND abs(a.c1 - b.c1) <= rt.r
                                   AND abs(a.c2 - b.c2) <= rt.r
                              THEN 1 ELSE 0 END AS ma
                  FROM t3 a
                  JOIN t3 b ON b.event_type = a.event_type
                           AND b.hr > a.hr
                  JOIN rt ON rt.event_type = a.event_type),
            ag AS (SELECT event_type, CAST(sum(mb) AS BIGINT) AS b,
                          CAST(sum(ma) AS BIGINT) AS a
                   FROM j GROUP BY 1)
            SELECT rt.event_type, rt.r AS r_tol, ag.b AS b_cnt,
                   ag.a AS a_cnt,
                   round(CASE WHEN ag.a = 0 OR ag.b = 0 THEN 0.0
                              ELSE (CAST(floor(1e6 * ln(CAST(ag.b
                                              AS DOUBLE))) AS BIGINT)
                                    - CAST(floor(1e6 * ln(CAST(ag.a
                                              AS DOUBLE))) AS BIGINT))
                                   / 1e6 END, 6) AS sampen
            FROM rt JOIN ag USING (event_type) ORDER BY 1
        """,
        "katz_fd": _DENSE_GRID_CTE + """
            , dd AS (SELECT event_type, c,
                            first_value(c) OVER w AS c0,
                            lead(c) OVER w - c AS dx
                     FROM d
                     WINDOW w AS (PARTITION BY event_type ORDER BY hr)),
            ag AS (SELECT event_type,
                          CAST(sum(abs(COALESCE(dx, 0))) AS BIGINT)
                            AS l,
                          CAST(max(abs(c - c0)) AS BIGINT) AS ext
                   FROM dd GROUP BY 1),
            ln3 AS (SELECT ag.event_type, ag.l, ag.ext,
                           CAST(floor(1e6 * ln(CAST(hh.hh - 1
                                    AS DOUBLE))) AS BIGINT) AS ln_n,
                           CASE WHEN ag.ext = 0 THEN 0
                                ELSE CAST(floor(1e6 * ln(CAST(ag.ext
                                     AS DOUBLE))) AS BIGINT) END AS ln_d,
                           CASE WHEN ag.l = 0 THEN 0
                                ELSE CAST(floor(1e6 * ln(CAST(ag.l
                                     AS DOUBLE))) AS BIGINT) END AS ln_l
                    FROM ag CROSS JOIN hh WHERE hh.hh >= 2)
            SELECT event_type,
                   round(CASE WHEN l = 0 OR ext = 0
                                   OR ln_n + ln_d - ln_l = 0 THEN 0.0
                              ELSE CAST(ln_n AS DOUBLE)
                                   / CAST(ln_n + ln_d - ln_l
                                          AS DOUBLE) END,
                         6) AS katz_fd
            FROM ln3 ORDER BY 1
        """,
        "mean_crossings": _DENSE_GRID_CTE + """
            , st AS (SELECT event_type, CAST(sum(c) AS BIGINT) AS s1
                     FROM d GROUP BY 1),
            sg AS (SELECT d.event_type, d.hr,
                          sign(hh.hh * d.c - st.s1) AS s
                   FROM d JOIN st USING (event_type) CROSS JOIN hh),
            pr AS (SELECT event_type, s,
                          lead(s) OVER (PARTITION BY event_type
                                        ORDER BY hr) AS s2
                   FROM sg),
            ag AS (SELECT event_type,
                          CAST(sum(CASE WHEN s * s2 < 0
                                        THEN 1 ELSE 0 END)
                               AS BIGINT) AS cr
                   FROM pr WHERE s2 IS NOT NULL GROUP BY 1)
            SELECT ag.event_type, ag.cr AS crossings,
                   round(CASE WHEN hh.hh < 2 THEN 0.0
                              ELSE CAST(ag.cr AS DOUBLE)
                                   / CAST(hh.hh - 1 AS DOUBLE) END,
                         6) AS rate
            FROM ag CROSS JOIN hh ORDER BY 1
        """,
    }
)

# Round-3 wave 19 (pipelines/stats5.py): robust scale estimators over
# the cent-value census.
from .stats5 import q_gini_mean_diff, q_qn_scale, q_robust_spread  # noqa: E402

QUERIES.update({
    "gini_mean_diff": q_gini_mean_diff,
    "robust_spread": q_robust_spread,
    "qn_scale": q_qn_scale,
})

ORACLE_SQL.update(
    {
        "gini_mean_diff": _CENT_CENSUS_CTE + """
            , cums AS (SELECT event_type, cv, n,
                              sum(n) OVER w - n AS walt,
                              sum(n * cv) OVER w - n * cv AS salt
                       FROM cs
                       WINDOW w AS (PARTITION BY event_type
                                    ORDER BY cv)),
            ag AS (SELECT event_type,
                          CAST(sum(CAST(n AS HUGEINT)
                                   * (cv * walt - salt))
                               AS HUGEINT) AS gaa
                   FROM cums GROUP BY 1),
            tot AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS nn,
                           CAST(sum(n * cv) AS HUGEINT) AS s1
                    FROM cs GROUP BY 1)
            SELECT tot.event_type,
                   round(CASE WHEN nn < 2 THEN 0.0
                              ELSE CAST(2 * gaa AS DOUBLE)
                                   / CAST(CAST(nn AS HUGEINT)
                                          * (nn - 1) AS DOUBLE) END,
                         6) AS gmd_cents,
                   round(CASE WHEN nn < 2 OR s1 = 0 THEN 0.0
                              ELSE CAST(2 * gaa AS DOUBLE)
                                   / CAST((nn - 1) * s1 AS DOUBLE) END,
                         6) AS gmd_rel
            FROM tot JOIN ag USING (event_type) ORDER BY 1
        """,
        "robust_spread": """
            WITH s AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events),
            m AS (SELECT event_type,
                         CAST(quantile_disc(cv, 0.5) AS BIGINT) AS med,
                         CAST(quantile_disc(cv, 0.25) AS BIGINT) AS q1,
                         CAST(quantile_disc(cv, 0.75) AS BIGINT) AS q3
                  FROM s GROUP BY 1),
            md AS (SELECT s.event_type,
                          CAST(quantile_disc(abs(s.cv - m.med), 0.5)
                               AS BIGINT) AS mad
                   FROM s JOIN m USING (event_type) GROUP BY 1)
            SELECT m.event_type, m.med AS med_cents, md.mad AS mad_cents,
                   m.q1 AS q1_cents, m.q3 AS q3_cents,
                   m.q3 - m.q1 AS iqr_cents,
                   round(CASE WHEN m.q3 + m.q1 = 0 THEN 0.0
                              ELSE CAST(m.q3 - m.q1 AS DOUBLE)
                                   / CAST(m.q3 + m.q1 AS DOUBLE) END,
                         6) AS qcd
            FROM m JOIN md USING (event_type) ORDER BY 1
        """,
        "qn_scale": _CENT_CENSUS_CTE + """
            , z AS (SELECT event_type,
                           CAST(sum(n * (n - 1) / 2) AS HUGEINT) AS w0
                    FROM cs GROUP BY 1),
            pj AS (SELECT a.event_type, b.cv - a.cv AS dif,
                          CAST(a.n AS HUGEINT) * b.n AS w
                   FROM cs a JOIN cs b ON b.event_type = a.event_type
                                      AND b.cv > a.cv),
            allw AS (SELECT event_type, dif,
                            CAST(sum(w) AS HUGEINT) AS w
                     FROM pj GROUP BY 1, 2
                     UNION ALL
                     SELECT event_type, 0 AS dif, w0 AS w
                     FROM z WHERE w0 > 0),
            cum AS (SELECT event_type, dif,
                           sum(w) OVER (PARTITION BY event_type
                                        ORDER BY dif) AS cw
                    FROM allw),
            nn AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS n
                   FROM cs GROUP BY 1),
            kk AS (SELECT event_type, n,
                          CAST(n // 2 + 1 AS HUGEINT) * (n // 2) / 2
                            AS k
                   FROM nn),
            sel AS (SELECT c.event_type, min(c.dif) AS qn
                    FROM cum c JOIN kk ON kk.event_type = c.event_type
                                      AND c.cw >= kk.k
                    GROUP BY 1)
            SELECT kk.event_type, kk.n,
                   CASE WHEN kk.n < 2 THEN 0
                        ELSE COALESCE(sel.qn, 0) END AS qn_cents
            FROM kk LEFT JOIN sel USING (event_type) ORDER BY 1
        """,
    }
)

# Round-3 wave 20 (pipelines/stats5.py): vocabulary richness estimators
# over the freq-of-freq census.
from .stats5 import (  # noqa: E402
    q_brillouin_index,
    q_jackknife_richness,
    q_menhinick_dugast,
)

QUERIES.update({
    "jackknife_richness": q_jackknife_richness,
    "menhinick_dugast": q_menhinick_dugast,
    "brillouin_index": q_brillouin_index,
})

ORACLE_SQL.update(
    {
        "jackknife_richness": _FF_CTE + """
            SELECT v AS vocab,
                   round(CASE WHEN n < 2 THEN CAST(v AS DOUBLE)
                              ELSE CAST(v AS DOUBLE)
                                   + CAST(v1 * (n - 1) AS DOUBLE)
                                     / CAST(n AS DOUBLE) END,
                         6) AS jack1,
                   round(CASE WHEN n < 2 THEN CAST(v AS DOUBLE)
                              ELSE CAST(v AS DOUBLE)
                                   + CAST(v1 * (2 * n - 3) AS DOUBLE)
                                     / CAST(n AS DOUBLE)
                                   - CAST(v2 * (n - 2) * (n - 2)
                                          AS DOUBLE)
                                     / CAST(n * (n - 1) AS DOUBLE) END,
                         6) AS jack2
            FROM agg
        """,
        "menhinick_dugast": _FF_CTE + """
            , lns AS (SELECT n, v,
                             CAST(floor(1e6 * ln(CAST(n AS DOUBLE)))
                                  AS BIGINT) AS ln_n,
                             CAST(floor(1e6 * ln(CAST(greatest(v, 1)
                                      AS DOUBLE))) AS BIGINT) AS ln_v
                      FROM agg)
            SELECT v AS vocab,
                   round(CASE WHEN n = 0 THEN 0.0
                              ELSE CAST(v AS DOUBLE)
                                   / sqrt(CAST(n AS DOUBLE)) END,
                         6) AS menhinick,
                   round(CASE WHEN n < 2 OR v < 2 OR v = n
                                   OR ln_n = ln_v THEN 0.0
                              ELSE CAST(ln_n * ln_n AS DOUBLE)
                                   / CAST(1000000 * (ln_n - ln_v)
                                          AS DOUBLE) END,
                         6) AS dugast_uber
            FROM lns
        """,
        "brillouin_index": _FF_CTE + """
            , ls AS (SELECT i,
                            CAST(floor(1e6 * ln(CAST(i AS DOUBLE)))
                                 AS BIGINT) AS l
                     FROM (SELECT unnest(generate_series(2,
                                  (SELECT n FROM agg))) AS i)),
            lfc AS (SELECT i, CAST(sum(l) OVER (ORDER BY i)
                                   AS HUGEINT) AS lf
                    FROM ls),
            lfn AS (SELECT lf FROM lfc
                    WHERE i = (SELECT n FROM agg)),
            st AS (SELECT CAST(COALESCE(sum(lfc.lf), 0) AS HUGEINT) AS s
                   FROM cs JOIN lfc ON lfc.i = cs.m)
            SELECT agg.n AS n_tokens,
                   round(CASE WHEN agg.n < 2 THEN 0.0
                              ELSE CAST(lfn.lf - st.s AS DOUBLE)
                                   / CAST(1000000 *
                                          CAST(agg.n AS HUGEINT)
                                          AS DOUBLE) END,
                         6) AS brillouin
            FROM agg CROSS JOIN lfn CROSS JOIN st
        """,
    }
)

# Round-3 wave 21 (pipelines/stats5.py): bivariate dependence between
# aligned hourly type pairs (Hoeffding D, Blomqvist beta, dCor).
from .stats5 import q_blomqvist_beta, q_dcor, q_hoeffding_d  # noqa: E402

QUERIES.update({
    "hoeffding_d": q_hoeffding_d,
    "blomqvist_beta": q_blomqvist_beta,
    "dcor": q_dcor,
})

_PAIR_HOURS_CTE = _DENSE_GRID_CTE + """
            , p AS (SELECT a.event_type AS ta, b.event_type AS tb,
                           a.hr, a.c AS x, b.c AS y
                    FROM d a JOIN d b ON b.hr = a.hr
                                     AND a.event_type < b.event_type)
"""

ORACLE_SQL.update(
    {
        "hoeffding_d": _PAIR_HOURS_CTE + """
            , rk AS (SELECT ta, tb, hr,
                            2 * (rank() OVER (PARTITION BY ta, tb
                                              ORDER BY x) - 1)
                              + count(*) OVER (PARTITION BY ta, tb, x)
                              + 1 AS r2,
                            2 * (rank() OVER (PARTITION BY ta, tb
                                              ORDER BY y) - 1)
                              + count(*) OVER (PARTITION BY ta, tb, y)
                              + 1 AS s2
                     FROM p),
            qc AS (SELECT a.ta, a.tb, a.hr,
                          4 + CAST(sum(CASE
                                WHEN b.x < a.x AND b.y < a.y THEN 4
                                WHEN b.x = a.x AND b.y < a.y
                                     AND b.hr <> a.hr THEN 2
                                WHEN b.x < a.x AND b.y = a.y THEN 2
                                WHEN b.x = a.x AND b.y = a.y
                                     AND b.hr <> a.hr THEN 1
                                ELSE 0 END) AS BIGINT) AS q4
                   FROM p a JOIN p b ON b.ta = a.ta AND b.tb = a.tb
                   GROUP BY 1, 2, 3),
            ag AS (SELECT rk.ta, rk.tb,
                          CAST(sum(CAST(q.q4 - 4 AS HUGEINT)
                                   * (q.q4 - 8)) AS HUGEINT) AS a1,
                          CAST(sum(CAST(rk.r2 - 2 AS HUGEINT)
                                   * (rk.r2 - 4) * (rk.s2 - 2)
                                   * (rk.s2 - 4)) AS HUGEINT) AS a2,
                          CAST(sum(CAST(rk.r2 - 4 AS HUGEINT)
                                   * (rk.s2 - 4) * (q.q4 - 4))
                               AS HUGEINT) AS a3
                   FROM rk JOIN qc q ON q.ta = rk.ta AND q.tb = rk.tb
                                    AND q.hr = rk.hr
                   GROUP BY 1, 2)
            SELECT ta AS type_a, tb AS type_b,
                   round(CASE WHEN hh.hh < 5 THEN 0.0
                              ELSE CAST(30 * ((hh.hh - 2) * (hh.hh - 3)
                                              * a1 + a2
                                              - 2 * (hh.hh - 2) * a3)
                                        AS DOUBLE)
                                   / CAST(16 * CAST(hh.hh AS HUGEINT)
                                          * (hh.hh - 1) * (hh.hh - 2)
                                          * (hh.hh - 3) * (hh.hh - 4)
                                          AS DOUBLE) END,
                         6) AS hoeffding_d
            FROM ag CROSS JOIN hh ORDER BY 1, 2
        """,
        "blomqvist_beta": _PAIR_HOURS_CTE + """
            , md AS (SELECT event_type,
                            CAST(quantile_disc(c, 0.5) AS BIGINT) AS med
                     FROM d GROUP BY 1),
            ag AS (SELECT p.ta, p.tb,
                          CAST(sum(CASE WHEN (p.x > ma.med
                                              AND p.y > mb.med)
                                             OR (p.x < ma.med
                                                 AND p.y < mb.med)
                                        THEN 1 ELSE 0 END)
                               AS BIGINT) AS n1,
                          CAST(sum(CASE WHEN (p.x > ma.med
                                              AND p.y < mb.med)
                                             OR (p.x < ma.med
                                                 AND p.y > mb.med)
                                        THEN 1 ELSE 0 END)
                               AS BIGINT) AS n2
                   FROM p JOIN md ma ON ma.event_type = p.ta
                          JOIN md mb ON mb.event_type = p.tb
                   GROUP BY 1, 2)
            SELECT ta AS type_a, tb AS type_b,
                   round(CASE WHEN n1 + n2 = 0 THEN 0.0
                              ELSE CAST(n1 - n2 AS DOUBLE)
                                   / CAST(n1 + n2 AS DOUBLE) END,
                         6) AS blomqvist_beta
            FROM ag ORDER BY 1, 2
        """,
        "dcor": _PAIR_HOURS_CTE + """
            , per_i AS (SELECT a.ta, a.tb, a.hr,
                               CAST(sum(abs(a.x - b.x)) AS BIGINT)
                                 AS ra,
                               CAST(sum(abs(a.y - b.y)) AS BIGINT)
                                 AS rb,
                               CAST(sum(abs(a.x - b.x)
                                        * abs(a.y - b.y)) AS BIGINT)
                                 AS pab,
                               CAST(sum(abs(a.x - b.x)
                                        * abs(a.x - b.x)) AS BIGINT)
                                 AS paa,
                               CAST(sum(abs(a.y - b.y)
                                        * abs(a.y - b.y)) AS BIGINT)
                                 AS pbb
                        FROM p a JOIN p b ON b.ta = a.ta
                                         AND b.tb = a.tb
                        GROUP BY 1, 2, 3),
            ag AS (SELECT ta, tb,
                          CAST(sum(pab) AS HUGEINT) AS pp,
                          CAST(sum(paa) AS HUGEINT) AS px,
                          CAST(sum(pbb) AS HUGEINT) AS py,
                          CAST(sum(ra) AS HUGEINT) AS sa,
                          CAST(sum(rb) AS HUGEINT) AS sb,
                          CAST(sum(CAST(ra AS HUGEINT) * rb)
                               AS HUGEINT) AS qab,
                          CAST(sum(CAST(ra AS HUGEINT) * ra)
                               AS HUGEINT) AS qaa,
                          CAST(sum(CAST(rb AS HUGEINT) * rb)
                               AS HUGEINT) AS qbb
                   FROM per_i GROUP BY 1, 2),
            fin AS (SELECT ta, tb,
                           CAST(hh.hh AS HUGEINT) * hh.hh * pp
                             + sa * sb - 2 * hh.hh * qab AS nc,
                           CAST(hh.hh AS HUGEINT) * hh.hh * px
                             + sa * sa - 2 * hh.hh * qaa AS vx,
                           CAST(hh.hh AS HUGEINT) * hh.hh * py
                             + sb * sb - 2 * hh.hh * qbb AS vy
                    FROM ag CROSS JOIN hh)
            SELECT ta AS type_a, tb AS type_b,
                   round(CASE WHEN vx <= 0 OR vy <= 0 OR nc <= 0
                              THEN 0.0
                              ELSE sqrt(CAST(nc AS DOUBLE)
                                        / sqrt(CAST(vx AS DOUBLE)
                                               * CAST(vy AS DOUBLE)))
                         END, 6) AS dcor
            FROM fin ORDER BY 1, 2
        """,
    }
)

# Round-3 wave 22 (pipelines/stats5.py): homogeneity / records /
# long-memory extras over the dense hourly grid.
from .stats5 import q_foster_stuart, q_rs_hurst, q_snht  # noqa: E402

QUERIES.update({
    "snht": q_snht,
    "foster_stuart": q_foster_stuart,
    "rs_hurst": q_rs_hurst,
})

ORACLE_SQL.update(
    {
        "snht": _DENSE_GRID_CTE + """
            , base AS (SELECT event_type, hr, c,
                              row_number() OVER (PARTITION BY event_type
                                                 ORDER BY hr) AS k,
                              sum(c) OVER (PARTITION BY event_type
                                           ORDER BY hr) AS cum
                       FROM d),
            st AS (SELECT event_type, CAST(sum(c) AS BIGINT) AS s1,
                          CAST(sum(c * c) AS BIGINT) AS s2
                   FROM d GROUP BY 1),
            dk AS (SELECT b.event_type, b.k,
                          CAST(hh.hh * b.cum - b.k * st.s1
                               AS HUGEINT) AS dv
                   FROM base b JOIN st USING (event_type)
                        CROSS JOIN hh
                   WHERE b.k < hh.hh),
            uk AS (SELECT dk.event_type, dk.k, dk.dv,
                          CAST(dv * dv AS DOUBLE)
                            / CAST(dk.k * (hh.hh - dk.k) AS DOUBLE)
                            AS u
                   FROM dk CROSS JOIN hh),
            best AS (SELECT event_type, k, dv,
                            row_number() OVER (PARTITION BY event_type
                                               ORDER BY u DESC, k ASC)
                                AS rn
                     FROM uk)
            SELECT b.event_type,
                   CAST(CASE WHEN hh.hh * st.s2 - st.s1 * st.s1 = 0
                             THEN 0 ELSE b.k END AS BIGINT) AS at_k,
                   round(CASE WHEN hh.hh * st.s2 - st.s1 * st.s1 = 0
                              THEN 0.0
                              ELSE CAST(b.dv * b.dv * hh.hh AS DOUBLE)
                                   / CAST(CAST(hh.hh * st.s2
                                               - st.s1 * st.s1
                                               AS HUGEINT)
                                          * b.k * (hh.hh - b.k)
                                          AS DOUBLE) END,
                         6) AS t_max
            FROM best b JOIN st USING (event_type) CROSS JOIN hh
            WHERE b.rn = 1 ORDER BY 1
        """,
        "foster_stuart": _DENSE_GRID_CTE + """
            , w AS (SELECT event_type, hr, c,
                           max(c) OVER (PARTITION BY event_type
                                        ORDER BY hr
                                        ROWS BETWEEN UNBOUNDED PRECEDING
                                        AND 1 PRECEDING) AS pm,
                           min(c) OVER (PARTITION BY event_type
                                        ORDER BY hr
                                        ROWS BETWEEN UNBOUNDED PRECEDING
                                        AND 1 PRECEDING) AS pn
                    FROM d),
            ag AS (SELECT event_type,
                          CAST(sum(CASE WHEN pm IS NOT NULL AND c > pm
                                        THEN 1 ELSE 0 END)
                               AS BIGINT) AS n_upper,
                          CAST(sum(CASE WHEN pn IS NOT NULL AND c < pn
                                        THEN 1 ELSE 0 END)
                               AS BIGINT) AS n_lower
                   FROM w GROUP BY 1)
            SELECT event_type, n_upper, n_lower,
                   n_upper - n_lower AS fs_d,
                   n_upper + n_lower AS fs_s
            FROM ag ORDER BY 1
        """,
        "rs_hurst": _DENSE_GRID_CTE + """
            , base AS (SELECT event_type, c,
                              row_number() OVER (PARTITION BY event_type
                                                 ORDER BY hr) - 1 AS t
                       FROM d),
            win AS (SELECT b.event_type, ws.w, b.t // ws.w AS j,
                           b.t % ws.w AS i, b.c
                    FROM base b
                    CROSS JOIN (VALUES (64), (256)) AS ws(w)
                    CROSS JOIN hh
                    WHERE b.t // ws.w < hh.hh // ws.w),
            ws1 AS (SELECT event_type, w, j,
                           CAST(sum(c) AS BIGINT) AS s1,
                           CAST(sum(c * c) AS BIGINT) AS s2
                    FROM win GROUP BY 1, 2, 3),
            pre AS (SELECT event_type, w, j, i,
                           sum(c) OVER (PARTITION BY event_type, w, j
                                        ORDER BY i) AS cum
                    FROM win),
            dev AS (SELECT p.event_type, p.w, p.j,
                           CAST(max(p.w * p.cum - (p.i + 1) * s.s1)
                                AS BIGINT) AS mx,
                           CAST(min(p.w * p.cum - (p.i + 1) * s.s1)
                                AS BIGINT) AS mn
                    FROM pre p JOIN ws1 s ON s.event_type = p.event_type
                                         AND s.w = p.w AND s.j = p.j
                    GROUP BY 1, 2, 3),
            d2 AS (SELECT dev.event_type, dev.w,
                          dev.mx - dev.mn AS rng,
                          CAST(dev.w AS HUGEINT) * s.s2
                            - CAST(s.s1 AS HUGEINT) * s.s1 AS nu
                   FROM dev JOIN ws1 s ON s.event_type = dev.event_type
                                      AND s.w = dev.w AND s.j = dev.j),
            rsw AS (SELECT event_type, w,
                           CASE WHEN nu > 0 AND rng > 0
                                THEN CAST(floor(1e6 *
                                     ((CAST(rng AS DOUBLE)
                                       / CAST(w AS DOUBLE))
                                      / sqrt(CAST(nu AS DOUBLE)
                                             / CAST(w * (w - 1)
                                                    AS DOUBLE))))
                                     AS BIGINT)
                                ELSE NULL END AS rsm
                    FROM d2),
            ag AS (SELECT event_type, w,
                          CAST(COALESCE(sum(rsm), 0) AS HUGEINT) AS s,
                          CAST(count(rsm) AS BIGINT) AS n
                   FROM rsw GROUP BY 1, 2),
            pv AS (SELECT a64.event_type, a64.s AS s64, a64.n AS n64,
                          a256.s AS s256, a256.n AS n256
                   FROM ag a64 JOIN ag a256
                     ON a256.event_type = a64.event_type
                    AND a64.w = 64 AND a256.w = 256)
            SELECT event_type,
                   round(CASE WHEN n64 = 0 THEN 0.0
                              ELSE CAST(s64 AS DOUBLE)
                                   / CAST(1000000 * n64 AS DOUBLE) END,
                         6) AS rs64,
                   round(CASE WHEN n256 = 0 THEN 0.0
                              ELSE CAST(s256 AS DOUBLE)
                                   / CAST(1000000 * n256 AS DOUBLE) END,
                         6) AS rs256,
                   round(CASE WHEN s64 <= 0 OR s256 <= 0 THEN 0.0
                              ELSE CAST(CAST(floor(1e6 *
                                        ln(CAST(s256 * n64 AS DOUBLE)))
                                        AS BIGINT)
                                        - CAST(floor(1e6 *
                                          ln(CAST(s64 * n256
                                                  AS DOUBLE)))
                                          AS BIGINT) AS DOUBLE)
                                   / CAST(1386294 AS DOUBLE) END,
                         6) AS hurst_rs
            FROM pv ORDER BY 1
        """,
    }
)

# Round-3 wave 23 (pipelines/stats5.py): two-sample score tests with
# exact permutation-moment standardization.
from .stats5 import (  # noqa: E402
    q_fligner_policello,
    q_mood_squared_ranks,
    q_savage_scores,
)

QUERIES.update({
    "mood_squared_ranks": q_mood_squared_ranks,
    "savage_scores": q_savage_scores,
    "fligner_policello": q_fligner_policello,
})

ORACLE_SQL.update(
    {
        "mood_squared_ranks": _PAIR_CUMS_CTE + """
            , sc AS (SELECT ta, tb, na, nb, an,
                            an + bn AS tv,
                            CAST(2 * wlt + (an + bn) + 1
                                 - (na + nb + 1) AS BIGINT) AS dev
                     FROM cums),
            ag AS (SELECT ta, tb, na, nb,
                          CAST(sum(CAST(an AS HUGEINT)
                                   * (dev * dev)) AS HUGEINT) AS t,
                          CAST(sum(CAST(tv AS HUGEINT)
                                   * (dev * dev)) AS HUGEINT) AS s1,
                          CAST(sum(CAST(tv AS HUGEINT)
                                   * (CAST(dev * dev AS HUGEINT)
                                      * (dev * dev))) AS HUGEINT) AS s2
                   FROM sc GROUP BY 1, 2, 3, 4)
            SELECT ta AS type_a, tb AS type_b,
                   -- variance numerator as TWO doubles multiplied in IEEE
                   -- (mirrors stats5._perm_z): the exact triple product
                   -- overflows INT128 at sf1 for 4th-moment score tests
                   round(CASE WHEN na + nb < 2 OR na * nb = 0
                                   OR (na + nb) * s2 - s1 * s1
                                      <= 0 THEN 0.0
                              ELSE CAST((na + nb) * t - na * s1
                                        AS DOUBLE)
                                   / sqrt(CAST(CAST(na AS HUGEINT) * nb
                                               AS DOUBLE)
                                          * CAST((na + nb) * s2
                                                 - s1 * s1 AS DOUBLE)
                                          / CAST(na + nb - 1
                                                 AS DOUBLE)) END,
                         6) AS mood_z
            FROM ag ORDER BY 1, 2
        """,
        "savage_scores": _PAIR_CUMS_CTE + """
            , hsr AS (SELECT ta, tb,
                             unnest(generate_series(1, na + nb)) AS k
                      FROM pairs),
            hsc AS (SELECT h.ta, h.tb, h.k,
                           sum(100000000 // (p.na + p.nb - h.k + 1))
                               OVER (PARTITION BY h.ta, h.tb
                                     ORDER BY h.k) AS hs
                    FROM hsr h JOIN pairs p ON p.ta = h.ta
                                           AND p.tb = h.tb),
            blk AS (SELECT c.ta, c.tb, c.na, c.nb, c.an,
                           c.an + c.bn AS tv,
                           (COALESCE(hi.hs, 0) - COALESCE(lo.hs, 0))
                             // (c.an + c.bn) AS sv
                    FROM cums c
                    LEFT JOIN hsc hi ON hi.ta = c.ta AND hi.tb = c.tb
                                    AND hi.k = c.wlt + c.an + c.bn
                    LEFT JOIN hsc lo ON lo.ta = c.ta AND lo.tb = c.tb
                                    AND lo.k = c.wlt
                    WHERE c.an + c.bn > 0),
            ag AS (SELECT ta, tb, na, nb,
                          CAST(sum(CAST(an AS HUGEINT) * sv)
                               AS HUGEINT) AS t,
                          CAST(sum(CAST(tv AS HUGEINT) * sv)
                               AS HUGEINT) AS s1,
                          CAST(sum(CAST(tv AS HUGEINT) * sv * sv)
                               AS HUGEINT) AS s2
                   FROM blk GROUP BY 1, 2, 3, 4)
            SELECT ta AS type_a, tb AS type_b,
                   -- variance numerator as TWO doubles multiplied in IEEE
                   -- (mirrors stats5._perm_z): the exact triple product
                   -- overflows INT128 at sf1 for 4th-moment score tests
                   round(CASE WHEN na + nb < 2 OR na * nb = 0
                                   OR (na + nb) * s2 - s1 * s1
                                      <= 0 THEN 0.0
                              ELSE CAST((na + nb) * t - na * s1
                                        AS DOUBLE)
                                   / sqrt(CAST(CAST(na AS HUGEINT) * nb
                                               AS DOUBLE)
                                          * CAST((na + nb) * s2
                                                 - s1 * s1 AS DOUBLE)
                                          / CAST(na + nb - 1
                                                 AS DOUBLE)) END,
                         6) AS savage_z
            FROM ag ORDER BY 1, 2
        """,
        "fligner_policello": _PAIR_CUMS_CTE + """
            , pq AS (SELECT ta, tb, na, nb, an, bn,
                            2 * ccb - bn AS p,
                            2 * cca - an AS q
                     FROM cums),
            ag AS (SELECT ta, tb, na, nb,
                          CAST(sum(CAST(an AS HUGEINT) * p)
                               AS HUGEINT) AS sp,
                          CAST(sum(CAST(bn AS HUGEINT) * q)
                               AS HUGEINT) AS sq,
                          CAST(sum(CAST(an AS HUGEINT) * p * p)
                               AS HUGEINT) AS spp,
                          CAST(sum(CAST(bn AS HUGEINT) * q * q)
                               AS HUGEINT) AS sqq
                   FROM pq GROUP BY 1, 2, 3, 4)
            SELECT ta AS type_a, tb AS type_b,
                   round(CASE WHEN na = 0 OR nb = 0
                                   OR nb * (na * spp - sp * sp)
                                      + na * (nb * sqq - sq * sq)
                                      + sp * sq <= 0 THEN 0.0
                              ELSE CAST(sp - sq AS DOUBLE)
                                   / (2.0 * sqrt(
                                        CAST(nb * (na * spp - sp * sp)
                                             + na * (nb * sqq
                                                     - sq * sq)
                                             + sp * sq AS DOUBLE)
                                        / CAST(na * nb AS DOUBLE)))
                         END, 6) AS fp_z
            FROM ag ORDER BY 1, 2
        """,
    }
)

# Round-3 wave 24 (pipelines/stats5.py): k-sample AD + contingency
# goodness-of-fit variants.
from .stats5 import (  # noqa: E402
    q_ad_ksample,
    q_freeman_tukey,
    q_neyman_chi2,
)

QUERIES.update({
    "ad_ksample": q_ad_ksample,
    "freeman_tukey": q_freeman_tukey,
    "neyman_chi2": q_neyman_chi2,
})

ORACLE_SQL.update(
    {
        "ad_ksample": _CENT_CENSUS_CTE + """
            , sup5 AS (SELECT t.event_type, v.cv,
                              COALESCE(cs.n, 0) AS f
                       FROM (SELECT DISTINCT event_type FROM cs) t
                       CROSS JOIN (SELECT DISTINCT cv FROM cs) v
                       LEFT JOIN cs ON cs.event_type = t.event_type
                                   AND cs.cv = v.cv),
            pl AS (SELECT cv, CAST(sum(n) AS BIGINT) AS l
                   FROM cs GROUP BY 1),
            pcm AS (SELECT cv, l,
                           CAST(2 * sum(l) OVER (ORDER BY cv) - l
                                AS BIGINT) AS db
                    FROM pl),
            tt AS (SELECT CAST(sum(n) AS BIGINT) AS n,
                          count(DISTINCT event_type) AS k
                   FROM cs),
            ti AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS ni
                   FROM cs GROUP BY 1),
            cm AS (SELECT s.event_type, s.cv,
                          CAST(2 * sum(s.f) OVER (PARTITION BY
                               s.event_type ORDER BY s.cv) - s.f
                               AS BIGINT) AS m2
                   FROM sup5 s),
            terms AS (SELECT (1000000000000
                              * CAST(p.l AS HUGEINT)
                              * (tt.n * cm.m2 - ti.ni * p.db)
                              * (tt.n * cm.m2 - ti.ni * p.db))
                             // (CAST(ti.ni AS HUGEINT) * tt.n
                                 * (CAST(p.db AS HUGEINT)
                                    * (2 * tt.n - p.db)
                                    - tt.n * p.l)) AS t
                      FROM cm
                      JOIN pcm p ON p.cv = cm.cv
                      JOIN ti ON ti.event_type = cm.event_type
                      CROSS JOIN tt
                      WHERE p.l > 0 AND ti.ni > 0
                        AND CAST(p.db AS HUGEINT) * (2 * tt.n - p.db)
                            - tt.n * p.l > 0),
            ag AS (SELECT CAST(sum(t) AS HUGEINT) AS s FROM terms)
            SELECT tt.k AS k_samples, tt.n AS n_pooled,
                   round(CASE WHEN tt.n < 2 THEN 0.0
                              ELSE CAST((tt.n - 1) * ag.s AS DOUBLE)
                                   / CAST(tt.n *
                                          CAST(1000000000000
                                               AS HUGEINT)
                                          AS DOUBLE) END,
                         6) AS a2_akn
            FROM tt CROSS JOIN ag
        """,
        "freeman_tukey": _TYPE_DOW_CTE + """
            , cells AS (SELECT rt.r, ct.cc, COALESCE(c.n, 0) AS cell
                        FROM rt CROSS JOIN ct
                        LEFT JOIN c ON c.et = rt.et AND c.dow = ct.dow),
            ag AS (SELECT CAST(sum(CAST(floor(1e6 * sqrt(
                               -- exact 128-bit product, then ONE rounding:
                               -- matches Python's float(cell*r*cc*n) exactly;
                               -- the naive INT64 product overflows at sf1
                               CAST(CAST(cell AS HUGEINT) * r * cc * tt.n
                                    AS DOUBLE)))
                               AS BIGINT)) AS HUGEINT) AS s
                   FROM cells CROSS JOIN tt)
            SELECT tt.n,
                   round(CASE WHEN tt.n = 0 THEN 0.0
                              ELSE 8.0 * CAST(tt.n AS DOUBLE)
                                   - CAST(8 * ag.s AS DOUBLE)
                                     / CAST(1000000 *
                                            CAST(tt.n AS HUGEINT)
                                            AS DOUBLE) END,
                         6) AS freeman_tukey
            FROM ag CROSS JOIN tt
        """,
        "neyman_chi2": _TYPE_DOW_CTE + """
            , cells AS (SELECT rt.r, ct.cc, c.n AS cell
                        FROM rt CROSS JOIN ct
                        JOIN c ON c.et = rt.et AND c.dow = ct.dow
                        WHERE c.n > 0),
            ag AS (SELECT CAST(sum((1000000000000
                               * CAST(tt.n * cell - r * cc AS HUGEINT)
                               * (tt.n * cell - r * cc))
                               // (CAST(tt.n AS HUGEINT) * tt.n
                                   * cell)) AS HUGEINT) AS s
                   FROM cells CROSS JOIN tt)
            SELECT tt.n,
                   round(CASE WHEN tt.n = 0 THEN 0.0
                              ELSE CAST(ag.s AS DOUBLE) / 1e12 END,
                         6) AS neyman_chi2
            FROM ag CROSS JOIN tt
        """,
    }
)

# Round-3 wave 25 (pipelines/stats5.py): Lepage combined test + robust
# location estimators.
from .stats5 import (  # noqa: E402
    q_lepage,
    q_location_estimates,
    q_trimmed_means,
)

QUERIES.update({
    "lepage": q_lepage,
    "location_estimates": q_location_estimates,
    "trimmed_means": q_trimmed_means,
})

ORACLE_SQL.update(
    {
        "lepage": _PAIR_CUMS_CTE + """
            , sc AS (SELECT ta, tb, na, nb, an, an + bn AS tv,
                            CAST(2 * wlt + (an + bn) + 1
                                 AS BIGINT) AS d,
                            least(CAST(2 * wlt + (an + bn) + 1
                                       AS BIGINT),
                                  2 * (na + nb + 1)
                                  - (2 * wlt + (an + bn) + 1)) AS ab
                     FROM cums),
            ag AS (SELECT ta, tb, na, nb,
                          CAST(sum(CAST(an AS HUGEINT) * d)
                               AS HUGEINT) AS tw,
                          CAST(sum(CAST(tv AS HUGEINT) * d)
                               AS HUGEINT) AS s1w,
                          CAST(sum(CAST(tv AS HUGEINT) * d * d)
                               AS HUGEINT) AS s2w,
                          CAST(sum(CAST(an AS HUGEINT) * ab)
                               AS HUGEINT) AS tab,
                          CAST(sum(CAST(tv AS HUGEINT) * ab)
                               AS HUGEINT) AS s1ab,
                          CAST(sum(CAST(tv AS HUGEINT) * ab * ab)
                               AS HUGEINT) AS s2ab
                   FROM sc GROUP BY 1, 2, 3, 4),
            zz AS (SELECT ta, tb,
                          -- two-double variance product, mirrors _perm_z
                          CASE WHEN na + nb < 2 OR na * nb = 0
                                    OR (na + nb) * s2w - s1w * s1w
                                       <= 0 THEN 0.0
                               ELSE CAST((na + nb) * tw - na * s1w
                                         AS DOUBLE)
                                    / sqrt(CAST(CAST(na AS HUGEINT)
                                                * nb AS DOUBLE)
                                           * CAST((na + nb) * s2w
                                                  - s1w * s1w AS DOUBLE)
                                           / CAST(na + nb - 1
                                                  AS DOUBLE)) END
                              AS zw,
                          CASE WHEN na + nb < 2 OR na * nb = 0
                                    OR (na + nb) * s2ab
                                       - s1ab * s1ab
                                       <= 0 THEN 0.0
                               ELSE CAST((na + nb) * tab - na * s1ab
                                         AS DOUBLE)
                                    / sqrt(CAST(CAST(na AS HUGEINT)
                                                * nb AS DOUBLE)
                                           * CAST((na + nb) * s2ab
                                                  - s1ab * s1ab
                                                  AS DOUBLE)
                                           / CAST(na + nb - 1
                                                  AS DOUBLE)) END
                              AS zab
                   FROM ag)
            SELECT ta AS type_a, tb AS type_b,
                   round(zw * zw + zab * zab, 6) AS lepage_l
            FROM zz ORDER BY 1, 2
        """,
        "location_estimates": """
            WITH s AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events),
            r AS (SELECT event_type, cv,
                         row_number() OVER (PARTITION BY event_type
                                            ORDER BY cv) AS rn
                  FROM s),
            nn AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n
                   FROM s GROUP BY 1),
            px AS (SELECT r.event_type,
                          max(CASE WHEN rn = (n + 1) // 2
                                   THEN cv END) AS med,
                          max(CASE WHEN rn = (n + 3) // 4
                                   THEN cv END) AS q1,
                          max(CASE WHEN rn = (3 * n + 3) // 4
                                   THEN cv END) AS q3,
                          max(CASE WHEN rn = (n + 2) // 3
                                   THEN cv END) AS x33,
                          max(CASE WHEN rn = (2 * n + 2) // 3
                                   THEN cv END) AS x66
                   FROM r JOIN nn USING (event_type) GROUP BY 1)
            SELECT event_type,
                   round(CAST(q1 + 2 * med + q3 AS DOUBLE) / 4.0,
                         6) AS trimean,
                   round(CAST(3 * x33 + 4 * med + 3 * x66 AS DOUBLE)
                         / 10.0, 6) AS gastwirth,
                   round(CAST(q1 + q3 AS DOUBLE) / 2.0, 6) AS midhinge
            FROM px ORDER BY 1
        """,
        "trimmed_means": """
            WITH s AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events),
            r AS (SELECT event_type, cv,
                         row_number() OVER (PARTITION BY event_type
                                            ORDER BY cv) AS rn
                  FROM s),
            nn AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n
                   FROM s GROUP BY 1),
            tr AS (SELECT r.event_type,
                          CAST(sum(CASE WHEN rn > n // 10
                                             AND rn <= n - n // 10
                                        THEN cv ELSE 0 END)
                               AS HUGEINT) AS trim,
                          max(CASE WHEN rn = n // 10 + 1
                                   THEN cv END) AS xlo,
                          max(CASE WHEN rn = n - n // 10
                                   THEN cv END) AS xhi
                   FROM r JOIN nn USING (event_type) GROUP BY 1)
            SELECT tr.event_type,
                   round(CASE WHEN n - 2 * (n // 10) <= 0 THEN 0.0
                              ELSE CAST(trim AS DOUBLE)
                                   / CAST(n - 2 * (n // 10)
                                          AS DOUBLE) END,
                         6) AS trimmed_mean,
                   round(CASE WHEN n = 0 THEN 0.0
                              ELSE CAST(trim + (n // 10) * xlo
                                        + (n // 10) * xhi AS DOUBLE)
                                   / CAST(n AS DOUBLE) END,
                         6) AS winsor_mean
            FROM tr JOIN nn USING (event_type) ORDER BY 1
        """,
    }
)

# Round-3 wave 26 (pipelines/stats5.py): Benford digits, weekly
# harmonic, lagged cross-correlation.
from .stats5 import (  # noqa: E402
    _BENFORD_P,
    _FC168,
    _FS168,
    q_benford_first_digit,
    q_cross_corr_lags,
    q_weekly_harmonic,
)

QUERIES.update({
    "benford_first_digit": q_benford_first_digit,
    "weekly_harmonic": q_weekly_harmonic,
    "cross_corr_lags": q_cross_corr_lags,
})

_BENFORD_VALUES = ", ".join(
    f"({d + 1}, {p})" for d, p in enumerate(_BENFORD_P))
_W168_VALUES = ", ".join(
    f"({d}, {c}, {s})"
    for d, (c, s) in enumerate(zip(_FC168, _FS168)))

ORACLE_SQL.update(
    {
        "benford_first_digit": f"""
            WITH s AS (SELECT CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events),
            dg AS (SELECT CAST(substr(CAST(cv AS VARCHAR), 1, 1)
                               AS BIGINT) AS d
                   FROM s WHERE cv > 0),
            oc AS (SELECT d, CAST(count(*) AS BIGINT) AS o
                   FROM dg GROUP BY 1),
            bp AS (SELECT * FROM (VALUES {_BENFORD_VALUES})
                   AS t(d, p)),
            tt AS (SELECT CAST(sum(o) AS BIGINT) AS n FROM oc),
            terms AS (SELECT bp.d, COALESCE(oc.o, 0) AS o, bp.p,
                             1000000 * COALESCE(oc.o, 0)
                               - tt.n * bp.p AS diff
                      FROM bp LEFT JOIN oc ON oc.d = bp.d
                              CROSS JOIN tt),
            ag AS (SELECT CAST(sum((1000000000000
                               * CAST(diff AS HUGEINT) * diff)
                               // (1000000 * CAST(tt.n AS HUGEINT)
                                   * p)) AS HUGEINT) AS chi2_pico
                   FROM terms CROSS JOIN tt WHERE tt.n > 0),
            mx AS (SELECT d, abs(diff) AS dev,
                          row_number() OVER (ORDER BY abs(diff) DESC,
                                             d ASC) AS rn
                   FROM terms)
            SELECT tt.n,
                   round(CASE WHEN tt.n = 0 THEN 0.0
                              ELSE CAST(ag.chi2_pico AS DOUBLE)
                                   / CAST(1000000000000 AS DOUBLE)
                              END,
                         6) AS benford_chi2,
                   mx.d AS max_dev_digit,
                   round(CASE WHEN tt.n = 0 THEN 0.0
                              ELSE CAST(mx.dev AS DOUBLE)
                                   / CAST(1000000 *
                                          CAST(tt.n AS HUGEINT)
                                          AS DOUBLE) END,
                         6) AS max_dev
            FROM tt CROSS JOIN ag JOIN mx ON mx.rn = 1
        """,
        "weekly_harmonic": f"""
            WITH c AS (SELECT event_type,
                              (epoch_ms(ts) // 3600000) % 168 AS d,
                              CAST(count(*) AS BIGINT) AS t
                       FROM events GROUP BY 1, 2),
            w AS (SELECT * FROM (VALUES {_W168_VALUES})
                  AS t(d, fc, fs)),
            ag AS (SELECT c.event_type,
                          CAST(sum(c.t * w.fc) AS HUGEINT) AS a,
                          CAST(sum(c.t * w.fs) AS HUGEINT) AS b,
                          CAST(sum(c.t) AS BIGINT) AS n
                   FROM c JOIN w ON w.d = c.d GROUP BY 1)
            SELECT event_type, n,
                   round(CASE WHEN n = 0 THEN 0.0
                              ELSE sqrt(CAST(a * a + b * b AS DOUBLE))
                                   / CAST(1000000 *
                                          CAST(n AS HUGEINT)
                                          AS DOUBLE) END,
                         6) AS amp_ratio
            FROM ag ORDER BY 1
        """,
        "cross_corr_lags": _DENSE_GRID_CTE + """
            , lg AS (SELECT * FROM (VALUES (0), (1), (2), (3))
                     AS l(k)),
            j AS (SELECT a.event_type AS ta, b.event_type AS tb,
                         l.k, a.c AS x, b.c AS y
                  FROM d a JOIN lg l ON TRUE
                  JOIN d b ON b.hr = a.hr + l.k
                          AND a.event_type < b.event_type),
            ag AS (SELECT ta, tb, k,
                          CAST(count(*) AS BIGINT) AS n,
                          CAST(sum(x) AS BIGINT) AS sx,
                          CAST(sum(y) AS BIGINT) AS sy,
                          CAST(sum(CAST(x AS HUGEINT) * x)
                               AS HUGEINT) AS sxx,
                          CAST(sum(CAST(y AS HUGEINT) * y)
                               AS HUGEINT) AS syy,
                          CAST(sum(CAST(x AS HUGEINT) * y)
                               AS HUGEINT) AS sxy
                   FROM j GROUP BY 1, 2, 3)
            SELECT ta AS type_a, tb AS type_b, k AS lag,
                   round(CASE WHEN n < 2
                                   OR n * sxx - CAST(sx AS HUGEINT)
                                      * sx <= 0
                                   OR n * syy - CAST(sy AS HUGEINT)
                                      * sy <= 0 THEN 0.0
                              ELSE CAST(n * sxy - CAST(sx AS HUGEINT)
                                        * sy AS DOUBLE)
                                   / sqrt(CAST(n * sxx
                                               - CAST(sx AS HUGEINT)
                                                 * sx AS DOUBLE)
                                          * CAST(n * syy
                                                 - CAST(sy AS HUGEINT)
                                                   * sy AS DOUBLE))
                         END, 6) AS ccf
            FROM ag ORDER BY 1, 2, 3
        """,
    }
)

# Round-3 wave 27 (pipelines/stats5.py): token-length profile,
# Page-Hinkley detector, activity concentration.
from .stats5 import (  # noqa: E402
    q_activity_gini,
    q_page_hinkley,
    q_word_length_stats,
)

QUERIES.update({
    "word_length_stats": q_word_length_stats,
    "page_hinkley": q_page_hinkley,
    "activity_gini": q_activity_gini,
})

ORACLE_SQL.update(
    {
        "word_length_stats": """
            WITH tok AS (SELECT length(t) AS l
                         FROM (SELECT unnest(regexp_extract_all(text,
                                      '[A-Za-z]+')) AS t
                               FROM documents)),
            cs AS (SELECT l, CAST(count(*) AS BIGINT) AS c
                   FROM tok GROUP BY 1),
            ag AS (SELECT CAST(sum(c) AS BIGINT) AS n,
                          CAST(sum(l * c) AS BIGINT) AS s1,
                          CAST(sum(CAST(l AS HUGEINT) * l * c)
                               AS HUGEINT) AS s2,
                          CAST(sum(c * CAST(floor(1e6 *
                               ln(CAST(c AS DOUBLE))) AS BIGINT))
                               AS HUGEINT) AS s_ln
                   FROM cs)
            SELECT n AS n_tokens,
                   round(CASE WHEN n = 0 THEN 0.0
                              ELSE CAST(s1 AS DOUBLE)
                                   / CAST(n AS DOUBLE) END,
                         6) AS mean_len,
                   round(CASE WHEN n = 0 THEN 0.0
                              ELSE CAST(n * s2 - CAST(s1 AS HUGEINT)
                                        * s1 AS DOUBLE)
                                   / CAST(CAST(n AS HUGEINT) * n
                                          AS DOUBLE) END,
                         6) AS var_len,
                   round(CASE WHEN n < 2 THEN 0.0
                              ELSE CAST(n * CAST(floor(1e6 *
                                        ln(CAST(n AS DOUBLE)))
                                        AS BIGINT) - s_ln AS DOUBLE)
                                   / CAST(1000000 *
                                          CAST(n AS HUGEINT)
                                          AS DOUBLE) END,
                         6) AS len_entropy
            FROM ag
        """,
        "page_hinkley": _DENSE_GRID_CTE + """
            , st AS (SELECT event_type, CAST(sum(c) AS BIGINT) AS s1
                     FROM d GROUP BY 1),
            hs AS (SELECT d.event_type,
                          row_number() OVER w AS k,
                          CAST(hh.hh * sum(d.c) OVER w2
                               - row_number() OVER w * st.s1
                               AS BIGINT) AS v
                   FROM d JOIN st USING (event_type) CROSS JOIN hh
                   WINDOW w AS (PARTITION BY d.event_type
                                ORDER BY d.hr),
                          w2 AS (PARTITION BY d.event_type
                                 ORDER BY d.hr)),
            gp AS (SELECT event_type, k,
                          v - least(0, COALESCE(min(v) OVER (
                                PARTITION BY event_type ORDER BY k
                                ROWS BETWEEN UNBOUNDED PRECEDING
                                AND 1 PRECEDING), 0)) AS gap
                   FROM hs),
            best AS (SELECT event_type, k, gap,
                            row_number() OVER (PARTITION BY event_type
                                               ORDER BY gap DESC,
                                                        k ASC) AS rn
                     FROM gp)
            SELECT b.event_type,
                   round(CAST(b.gap AS DOUBLE)
                         / CAST(hh.hh AS DOUBLE), 6) AS ph_stat,
                   CAST(b.k AS BIGINT) AS at_k
            FROM best b CROSS JOIN hh WHERE b.rn = 1 ORDER BY 1
        """,
        "activity_gini": _DENSE_GRID_CTE + """
            , r AS (SELECT event_type, c,
                           row_number() OVER (PARTITION BY event_type
                                              ORDER BY c) AS i
                    FROM d),
            ag AS (SELECT r.event_type,
                          CAST(sum((2 * r.i - hh.hh - 1) * r.c)
                               AS HUGEINT) AS gaa,
                          CAST(sum(r.c) AS BIGINT) AS s1
                   FROM r CROSS JOIN hh GROUP BY 1)
            SELECT ag.event_type,
                   round(CASE WHEN s1 = 0 THEN 0.0
                              ELSE CAST(gaa AS DOUBLE)
                                   / CAST(hh.hh *
                                          CAST(s1 AS HUGEINT)
                                          AS DOUBLE) END,
                         6) AS activity_gini
            FROM ag CROSS JOIN hh ORDER BY 1
        """,
    }
)

# Round-3 wave 28 (pipelines/stats5.py): mode stats, generalized ESD,
# Tukey quick test.
from .stats5 import (  # noqa: E402
    q_generalized_esd,
    q_mode_stats,
    q_tukey_quick,
)

QUERIES.update({
    "mode_stats": q_mode_stats,
    "generalized_esd": q_generalized_esd,
    "tukey_quick": q_tukey_quick,
})

ORACLE_SQL.update(
    {
        "mode_stats": _CENT_CENSUS_CTE + """
            , mx AS (SELECT event_type, cv, n,
                            row_number() OVER (PARTITION BY event_type
                                               ORDER BY n DESC, cv ASC)
                                AS rn
                     FROM cs),
            tot AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS nn,
                           CAST(sum(n * cv) AS HUGEINT) AS s1,
                           CAST(sum(CAST(cv AS HUGEINT) * cv * n)
                                AS HUGEINT) AS s2
                    FROM cs GROUP BY 1),
            md AS (SELECT event_type,
                          CAST(quantile_disc(cv, 0.5) AS BIGINT) AS med
                   FROM s GROUP BY 1)
            SELECT mx.event_type, mx.cv AS mode_cents,
                   mx.n AS mode_count,
                   round(CASE WHEN tot.nn < 2
                                   OR tot.nn * tot.s2
                                      - tot.s1 * tot.s1 <= 0 THEN 0.0
                              ELSE 3.0 * CAST(tot.s1 - tot.nn * md.med
                                              AS DOUBLE)
                                   / (CAST(tot.nn AS DOUBLE)
                                      * sqrt(CAST(tot.nn * tot.s2
                                                  - tot.s1 * tot.s1
                                                  AS DOUBLE)
                                             / CAST(CAST(tot.nn
                                                    AS HUGEINT)
                                                    * (tot.nn - 1)
                                                    AS DOUBLE))) END,
                         6) AS pearson_skew2
            FROM mx JOIN tot USING (event_type)
                    JOIN md USING (event_type)
            WHERE mx.rn = 1 ORDER BY 1
        """,
        "generalized_esd": _CENT_CENSUS_CTE + """
            , s0 AS (SELECT event_type, cv, CAST(n AS BIGINT) AS n
                     FROM cs),
            t0 AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS n,
                          CAST(sum(n * cv) AS HUGEINT) AS s1,
                          CAST(sum(CAST(cv AS HUGEINT) * cv * n)
                               AS HUGEINT) AS s2
                   FROM s0 GROUP BY 1),
            e1 AS (SELECT s.event_type, s.cv,
                          abs(t.n * s.cv - t.s1) AS dev,
                          row_number() OVER (PARTITION BY s.event_type
                                ORDER BY abs(t.n * s.cv - t.s1) DESC,
                                         s.cv ASC) AS rn
                   FROM s0 s JOIN t0 t USING (event_type)
                   WHERE s.n > 0),
            r1 AS (SELECT e.event_type, e.cv AS at_cv, e.dev,
                          t.n, t.s1, t.s2
                   FROM e1 e JOIN t0 t USING (event_type)
                   WHERE e.rn = 1),
            s1t AS (SELECT s.event_type, s.cv,
                           s.n - CASE WHEN s.cv = r.at_cv
                                      THEN 1 ELSE 0 END AS n
                    FROM s0 s JOIN r1 r USING (event_type)),
            t1 AS (SELECT event_type, n - 1 AS n, s1 - at_cv AS s1,
                          s2 - CAST(at_cv AS HUGEINT) * at_cv AS s2
                   FROM r1),
            e2 AS (SELECT s.event_type, s.cv,
                          abs(t.n * s.cv - t.s1) AS dev,
                          row_number() OVER (PARTITION BY s.event_type
                                ORDER BY abs(t.n * s.cv - t.s1) DESC,
                                         s.cv ASC) AS rn
                   FROM s1t s JOIN t1 t USING (event_type)
                   WHERE s.n > 0),
            r2 AS (SELECT e.event_type, e.cv AS at_cv, e.dev,
                          t.n, t.s1, t.s2
                   FROM e2 e JOIN t1 t USING (event_type)
                   WHERE e.rn = 1),
            s2t AS (SELECT s.event_type, s.cv,
                           s.n - CASE WHEN s.cv = r.at_cv
                                      THEN 1 ELSE 0 END AS n
                    FROM s1t s JOIN r2 r USING (event_type)),
            t2 AS (SELECT event_type, n - 1 AS n, s1 - at_cv AS s1,
                          s2 - CAST(at_cv AS HUGEINT) * at_cv AS s2
                   FROM r2),
            e3 AS (SELECT s.event_type, s.cv,
                          abs(t.n * s.cv - t.s1) AS dev,
                          row_number() OVER (PARTITION BY s.event_type
                                ORDER BY abs(t.n * s.cv - t.s1) DESC,
                                         s.cv ASC) AS rn
                   FROM s2t s JOIN t2 t USING (event_type)
                   WHERE s.n > 0),
            r3 AS (SELECT e.event_type, e.cv AS at_cv, e.dev,
                          t.n, t.s1, t.s2
                   FROM e3 e JOIN t2 t USING (event_type)
                   WHERE e.rn = 1),
            uni AS (SELECT event_type, 1 AS round, at_cv, dev, n, s1,
                           s2 FROM r1
                    UNION ALL
                    SELECT event_type, 2, at_cv, dev, n, s1, s2
                    FROM r2
                    UNION ALL
                    SELECT event_type, 3, at_cv, dev, n, s1, s2
                    FROM r3)
            SELECT event_type, CAST(round AS BIGINT) AS round,
                   CASE WHEN n < 3 OR n * s2 - s1 * s1 <= 0
                        THEN 0 ELSE at_cv END AS at_cv,
                   round(CASE WHEN n < 3 OR n * s2 - s1 * s1 <= 0
                              THEN 0.0
                              ELSE CAST(dev AS DOUBLE)
                                   * sqrt(CAST(n - 1 AS DOUBLE)
                                          / CAST(n * (n * s2 - s1 * s1)
                                                 AS DOUBLE)) END,
                         6) AS r_stat
            FROM uni ORDER BY 1, 2
        """,
        "tukey_quick": _CENT_CENSUS_CTE + """
            , ext AS (SELECT event_type, min(cv) AS mn, max(cv) AS mx
                      FROM cs GROUP BY 1),
            j1 AS (SELECT ea.event_type AS ta, eb.event_type AS tb,
                          ea.mn AS amn, ea.mx AS amx,
                          eb.mn AS bmn, eb.mx AS bmx
                   FROM ext ea JOIN ext eb
                     ON ea.event_type < eb.event_type),
            ag AS (SELECT j.ta, j.tb,
                          CAST(sum(CASE WHEN c.event_type = j.ta
                                             AND c.cv > j.bmx
                                        THEN c.n ELSE 0 END)
                               + sum(CASE WHEN c.event_type = j.tb
                                               AND c.cv < j.amn
                                          THEN c.n ELSE 0 END)
                               AS BIGINT) AS t_ab,
                          CAST(sum(CASE WHEN c.event_type = j.tb
                                             AND c.cv > j.amx
                                        THEN c.n ELSE 0 END)
                               + sum(CASE WHEN c.event_type = j.ta
                                               AND c.cv < j.bmn
                                          THEN c.n ELSE 0 END)
                               AS BIGINT) AS t_ba
                   FROM j1 j JOIN cs c
                     ON c.event_type = j.ta OR c.event_type = j.tb
                   GROUP BY 1, 2)
            SELECT ta AS type_a, tb AS type_b, t_ab, t_ba
            FROM ag ORDER BY 1, 2
        """,
    }
)

# Round-3 wave 29 (pipelines/stats5.py): proportion / dispersion /
# circular quick tests.
from .stats5 import (  # noqa: E402
    q_coef_variation,
    q_poisson_dispersion,
    q_rayleigh_test,
    q_two_prop_z,
)

QUERIES.update({
    "two_prop_z": q_two_prop_z,
    "poisson_dispersion": q_poisson_dispersion,
    "coef_variation": q_coef_variation,
    "rayleigh_test": q_rayleigh_test,
})

ORACLE_SQL.update(
    {
        "two_prop_z": """
            WITH f AS (SELECT CASE WHEN ((epoch_ms(ts) // 86400000) + 3)
                                        % 7 >= 5
                                   THEN 1 ELSE 0 END AS we,
                              CASE WHEN event_type = 'purchase'
                                   THEN 1 ELSE 0 END AS pu
                       FROM events),
            ag AS (SELECT CAST(sum(we * pu) AS BIGINT) AS x1,
                          CAST(sum(we) AS BIGINT) AS n1,
                          CAST(sum((1 - we) * pu) AS BIGINT) AS x2,
                          CAST(sum(1 - we) AS BIGINT) AS n2
                   FROM f)
            SELECT n1 AS n_weekend, n2 AS n_weekday,
                   round(CASE WHEN n1 = 0 OR n2 = 0
                                   OR CAST(x1 + x2 AS HUGEINT)
                                      * (n1 + n2 - x1 - x2)
                                      * n1 * n2 = 0 THEN 0.0
                              ELSE CAST(x1 * n2 - x2 * n1 AS DOUBLE)
                                   / sqrt(CAST(CAST(x1 + x2 AS HUGEINT)
                                               * (n1 + n2 - x1 - x2)
                                               * n1 * n2 AS DOUBLE)
                                          / CAST(n1 + n2 AS DOUBLE))
                         END, 6) AS prop_z
            FROM ag
        """,
        "poisson_dispersion": _DENSE_GRID_CTE + """
            , ag AS (SELECT event_type, CAST(sum(c) AS BIGINT) AS s1,
                            CAST(sum(CAST(c AS HUGEINT) * c)
                                 AS HUGEINT) AS s2
                     FROM d GROUP BY 1)
            SELECT ag.event_type,
                   round(CASE WHEN s1 = 0 THEN 0.0
                              ELSE CAST(hh.hh * s2
                                        - CAST(s1 AS HUGEINT) * s1
                                        AS DOUBLE)
                                   / CAST(s1 AS DOUBLE) END,
                         6) AS disp_chi2,
                   round(CASE WHEN s1 = 0 THEN 0.0
                              ELSE CAST(hh.hh * s2
                                        - CAST(s1 AS HUGEINT) * s1
                                        AS DOUBLE)
                                   / CAST(hh.hh *
                                          CAST(s1 AS HUGEINT)
                                          AS DOUBLE) END,
                         6) AS vmr
            FROM ag CROSS JOIN hh ORDER BY 1
        """,
        "coef_variation": _CENT_CENSUS_CTE + """
            , tot AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS nn,
                             CAST(sum(n * cv) AS HUGEINT) AS s1,
                             CAST(sum(CAST(cv AS HUGEINT) * cv * n)
                                  AS HUGEINT) AS s2
                      FROM cs GROUP BY 1),
            qs AS (SELECT event_type,
                          CAST(quantile_disc(cv, 0.5) AS BIGINT)
                            AS med,
                          CAST(quantile_disc(cv, 0.25) AS BIGINT)
                            AS q1,
                          CAST(quantile_disc(cv, 0.75) AS BIGINT)
                            AS q3
                   FROM s GROUP BY 1)
            SELECT tot.event_type,
                   round(CASE WHEN tot.nn < 2 OR tot.s1 = 0
                                   OR tot.nn * tot.s2
                                      - tot.s1 * tot.s1 <= 0 THEN 0.0
                              ELSE CAST(tot.nn AS DOUBLE)
                                   * sqrt(CAST(tot.nn * tot.s2
                                               - tot.s1 * tot.s1
                                               AS DOUBLE)
                                          / CAST(CAST(tot.nn
                                                 AS HUGEINT)
                                                 * (tot.nn - 1)
                                                 AS DOUBLE))
                                   / CAST(tot.s1 AS DOUBLE) END,
                         6) AS cv,
                   round(CASE WHEN qs.med = 0 THEN 0.0
                              ELSE CAST(qs.q3 - qs.q1 AS DOUBLE)
                                   / CAST(qs.med AS DOUBLE) END,
                         6) AS cv_quartile
            FROM tot JOIN qs USING (event_type) ORDER BY 1
        """,
    }
)

ORACLE_SQL["rayleigh_test"] = f"""
            WITH c AS (SELECT event_type,
                              (epoch_ms(ts) // 3600000) % 24 AS d,
                              CAST(count(*) AS BIGINT) AS t
                       FROM events GROUP BY 1, 2),
            w AS (SELECT * FROM {_TRIG24_VALUES} AS t(d, fc, fs)),
            ag AS (SELECT c.event_type,
                          CAST(sum(c.t * w.fc) AS HUGEINT) AS a,
                          CAST(sum(c.t * w.fs) AS HUGEINT) AS b,
                          CAST(sum(c.t) AS BIGINT) AS n
                   FROM c JOIN w ON w.d = c.d GROUP BY 1)
            SELECT event_type,
                   round(CASE WHEN n = 0 THEN 0.0
                              ELSE CAST(a * a + b * b AS DOUBLE)
                                   / CAST(1000000000000 *
                                          CAST(n AS HUGEINT)
                                          AS DOUBLE) END,
                         6) AS rayleigh_z,
                   round(CASE WHEN n = 0 THEN 0.0
                              ELSE 1.0 - sqrt(CAST(a * a + b * b
                                                   AS DOUBLE))
                                   / CAST(1000000 *
                                          CAST(n AS HUGEINT)
                                          AS DOUBLE) END,
                         6) AS circ_var
            FROM ag ORDER BY 1
        """

# Round-3 wave 30 (pipelines/stats5.py): concentration / inequality
# analytics.
from .stats5 import (  # noqa: E402
    q_lorenz_points,
    q_topk_user_share,
    q_user_hhi,
)

QUERIES.update({
    "lorenz_points": q_lorenz_points,
    "user_hhi": q_user_hhi,
    "topk_user_share": q_topk_user_share,
})

ORACLE_SQL.update(
    {
        "lorenz_points": _CENT_CENSUS_CTE + """
            , r AS (SELECT event_type, cv,
                           row_number() OVER (PARTITION BY event_type
                                              ORDER BY cv) AS rn
                    FROM (SELECT event_type, cv FROM s)),
            nn AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                          CAST(sum(cv) AS HUGEINT) AS s1
                   FROM s GROUP BY 1),
            ps AS (SELECT * FROM (VALUES (10), (20), (30), (40), (50),
                                         (60), (70), (80), (90))
                   AS t(p)),
            ag AS (SELECT r.event_type, ps.p,
                          CAST(sum(CASE WHEN r.rn <=
                                    (ps.p * nn.n + 99) // 100
                                        THEN r.cv ELSE 0 END)
                               AS HUGEINT) AS bot
                   FROM r JOIN nn USING (event_type) CROSS JOIN ps
                   GROUP BY 1, 2)
            SELECT ag.event_type, CAST(ag.p AS BIGINT) AS p_pct,
                   round(CASE WHEN nn.s1 = 0 THEN 0.0
                              ELSE CAST(ag.bot AS DOUBLE)
                                   / CAST(nn.s1 AS DOUBLE) END,
                         6) AS lorenz
            FROM ag JOIN nn USING (event_type) ORDER BY 1, 2
        """,
        "user_hhi": """
            WITH u AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY 1),
            ag AS (SELECT CAST(sum(n) AS BIGINT) AS s1,
                          CAST(sum(CAST(n AS HUGEINT) * n)
                               AS HUGEINT) AS s2,
                          CAST(count(*) AS BIGINT) AS us
                   FROM u)
            SELECT us AS n_users,
                   round(CASE WHEN s1 = 0 THEN 0.0
                              ELSE CAST(s2 AS DOUBLE)
                                   / CAST(CAST(s1 AS HUGEINT) * s1
                                          AS DOUBLE) END,
                         6) AS hhi,
                   round(CASE WHEN s2 = 0 THEN 0.0
                              ELSE CAST(CAST(s1 AS HUGEINT) * s1
                                        AS DOUBLE)
                                   / CAST(s2 AS DOUBLE) END,
                         6) AS effective_users
            FROM ag
        """,
        "topk_user_share": """
            WITH u AS (SELECT CAST(user_id AS BIGINT) AS user_id,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY 1),
            tk AS (SELECT n FROM u
                   ORDER BY n DESC, user_id ASC LIMIT 10),
            ag AS (SELECT (SELECT CAST(sum(n) AS BIGINT) FROM u)
                              AS n_events,
                          CAST(sum(n) AS BIGINT) AS topk_sum
                   FROM tk)
            SELECT n_events, topk_sum,
                   round(CASE WHEN n_events = 0 THEN 0.0
                              ELSE CAST(topk_sum AS DOUBLE)
                                   / CAST(n_events AS DOUBLE) END,
                         6) AS topk_share
            FROM ag
        """,
    }
)

# Round-3 wave 31 (pipelines/stats5.py): temporal user-behavior
# analytics (sessions, burstiness, memory coefficient).
from .stats5 import (  # noqa: E402
    q_interevent_burstiness,
    q_interevent_memory,
    q_session_stats,
)

QUERIES.update({
    "session_stats": q_session_stats,
    "interevent_burstiness": q_interevent_burstiness,
    "interevent_memory": q_interevent_memory,
})

_USER_GAPS_CTE = """
            WITH e AS (SELECT CAST(user_id AS BIGINT) AS u,
                              epoch_ms(ts) AS tms, event_id
                       FROM events),
            base AS (SELECT u, tms, event_id,
                            tms - lag(tms) OVER (PARTITION BY u
                                  ORDER BY tms, event_id) AS gap,
                            (tms - lag(tms) OVER (PARTITION BY u
                                  ORDER BY tms, event_id)) // 1000
                                AS gap_s
                     FROM e)
"""

ORACLE_SQL.update(
    {
        "session_stats": _USER_GAPS_CTE + """
            , ag AS (SELECT CAST(count(*) AS BIGINT) AS n_events,
                            CAST(count(DISTINCT u) AS BIGINT)
                                AS n_users,
                            CAST(sum(CASE WHEN gap > 1800000
                                          THEN 1 ELSE 0 END)
                                 AS BIGINT) AS brk,
                            CAST(sum(CASE WHEN gap IS NOT NULL
                                               AND gap <= 1800000
                                          THEN gap ELSE 0 END)
                                 AS BIGINT) AS in_ms
                     FROM base)
            SELECT n_users + brk AS n_sessions,
                   round(CASE WHEN n_users + brk = 0 THEN 0.0
                              ELSE CAST(n_events AS DOUBLE)
                                   / CAST(n_users + brk AS DOUBLE)
                         END, 6) AS avg_events,
                   round(CASE WHEN n_users + brk = 0 THEN 0.0
                              ELSE CAST(in_ms AS DOUBLE)
                                   / CAST(1000 * (n_users + brk)
                                          AS DOUBLE) END,
                         6) AS avg_duration_s
            FROM ag
        """,
        "interevent_burstiness": _USER_GAPS_CTE + """
            , ag AS (SELECT CAST(count(gap_s) AS BIGINT) AS n,
                            CAST(sum(gap_s) AS BIGINT) AS s1,
                            CAST(sum(CAST(gap_s AS HUGEINT) * gap_s)
                                 AS HUGEINT) AS s2
                     FROM base WHERE gap_s IS NOT NULL)
            SELECT n AS n_gaps,
                   round(CASE WHEN n = 0
                                   OR (n * s2 - CAST(s1 AS HUGEINT)
                                       * s1 <= 0 AND s1 = 0)
                              THEN 0.0
                              ELSE (sqrt(CAST(n * s2
                                    - CAST(s1 AS HUGEINT) * s1
                                    AS DOUBLE)) - CAST(s1 AS DOUBLE))
                                   / (sqrt(CAST(n * s2
                                      - CAST(s1 AS HUGEINT) * s1
                                      AS DOUBLE))
                                      + CAST(s1 AS DOUBLE)) END,
                         6) AS burstiness
            FROM ag
        """,
        "interevent_memory": _USER_GAPS_CTE + """
            , pr AS (SELECT u, gap_s AS gx,
                            lead(gap_s) OVER (PARTITION BY u
                                  ORDER BY tms, event_id) AS gy
                     FROM base),
            ag AS (SELECT CAST(count(*) AS BIGINT) AS n,
                          CAST(sum(gx) AS BIGINT) AS sx,
                          CAST(sum(gy) AS BIGINT) AS sy,
                          CAST(sum(CAST(gx AS HUGEINT) * gx)
                               AS HUGEINT) AS sxx,
                          CAST(sum(CAST(gy AS HUGEINT) * gy)
                               AS HUGEINT) AS syy,
                          CAST(sum(CAST(gx AS HUGEINT) * gy)
                               AS HUGEINT) AS sxy
                   FROM pr WHERE gx IS NOT NULL AND gy IS NOT NULL)
            SELECT n AS n_pairs,
                   round(CASE WHEN n < 2
                                   OR n * sxx - CAST(sx AS HUGEINT)
                                      * sx <= 0
                                   OR n * syy - CAST(sy AS HUGEINT)
                                      * sy <= 0 THEN 0.0
                              ELSE CAST(n * sxy - CAST(sx AS HUGEINT)
                                        * sy AS DOUBLE)
                                   / sqrt(CAST(n * sxx
                                          - CAST(sx AS HUGEINT) * sx
                                          AS DOUBLE)
                                          * CAST(n * syy
                                            - CAST(sy AS HUGEINT) * sy
                                            AS DOUBLE)) END,
                         6) AS memory_coef
            FROM ag
        """,
    }
)

# Round-3 wave 32 (pipelines/stats5.py): gap / lifetime / per-user
# count distributions.
from .stats5 import (  # noqa: E402
    q_events_per_user,
    q_gap_quantiles,
    q_user_lifetimes,
)

QUERIES.update({
    "gap_quantiles": q_gap_quantiles,
    "user_lifetimes": q_user_lifetimes,
    "events_per_user": q_events_per_user,
})

ORACLE_SQL.update(
    {
        "gap_quantiles": _USER_GAPS_CTE + """
            , gs AS (SELECT gap_s FROM base WHERE gap_s IS NOT NULL)
            SELECT CAST(count(*) AS BIGINT) AS n_gaps,
                   CAST(COALESCE(quantile_disc(gap_s, 0.5), 0)
                        AS BIGINT) AS med_gap_s,
                   CAST(COALESCE(quantile_disc(gap_s, 0.9), 0)
                        AS BIGINT) AS p90_gap_s,
                   CAST(COALESCE(quantile_disc(gap_s, 0.99), 0)
                        AS BIGINT) AS p99_gap_s,
                   CAST(COALESCE(max(gap_s), 0) AS BIGINT) AS max_gap_s
            FROM gs
        """,
        "user_lifetimes": """
            WITH u AS (SELECT user_id,
                              (max(epoch_ms(ts)) - min(epoch_ms(ts)))
                                // 1000 AS span_s,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY 1),
            ag AS (SELECT CAST(count(*) AS BIGINT) AS users,
                          CAST(sum(CASE WHEN n = 1 THEN 1 ELSE 0 END)
                               AS BIGINT) AS single,
                          CAST(sum(span_s) AS BIGINT) AS span
                   FROM u)
            SELECT users AS n_users,
                   round(CASE WHEN users = 0 THEN 0.0
                              ELSE CAST(single AS DOUBLE)
                                   / CAST(users AS DOUBLE) END,
                         6) AS single_share,
                   round(CASE WHEN users = 0 THEN 0.0
                              ELSE CAST(span AS DOUBLE)
                                   / CAST(users AS DOUBLE) END,
                         6) AS avg_span_s
            FROM ag
        """,
        "events_per_user": """
            WITH u AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY 1),
            ag AS (SELECT CAST(count(*) AS BIGINT) AS u,
                          CAST(sum(n) AS BIGINT) AS s1,
                          CAST(sum(CAST(n AS HUGEINT) * n)
                               AS HUGEINT) AS s2
                   FROM u)
            SELECT u AS n_users,
                   round(CASE WHEN u = 0 THEN 0.0
                              ELSE CAST(s1 AS DOUBLE)
                                   / CAST(u AS DOUBLE) END,
                         6) AS mean_events,
                   round(CASE WHEN u = 0 THEN 0.0
                              ELSE CAST(u * s2 - CAST(s1 AS HUGEINT)
                                        * s1 AS DOUBLE)
                                   / CAST(CAST(u AS HUGEINT) * u
                                          AS DOUBLE) END,
                         6) AS var_events,
                   round(CASE WHEN s1 = 0 THEN 0.0
                              ELSE CAST(u * s2 - CAST(s1 AS HUGEINT)
                                        * s1 AS DOUBLE)
                                   / CAST(u * CAST(s1 AS HUGEINT)
                                          AS DOUBLE) END,
                         6) AS vmr_events
            FROM ag
        """,
    }
)

# Round-3 wave 33 (pipelines/stats5.py): corpus composition analytics.
from .stats5 import (  # noqa: E402
    q_doc_tokens_by_lang,
    q_lang_entropy,
    q_source_concentration,
)

QUERIES.update({
    "doc_tokens_by_lang": q_doc_tokens_by_lang,
    "source_concentration": q_source_concentration,
    "lang_entropy": q_lang_entropy,
})

ORACLE_SQL.update(
    {
        "doc_tokens_by_lang": """
            WITH dt AS (SELECT lang,
                               CAST(length(regexp_extract_all(text,
                                    '[A-Za-z]+')) AS BIGINT) AS tok
                        FROM documents),
            ag AS (SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
                          CAST(sum(tok) AS BIGINT) AS s1,
                          CAST(quantile_disc(tok, 0.5) AS BIGINT)
                              AS med,
                          CAST(quantile_disc(tok, 0.9) AS BIGINT)
                              AS p90
                   FROM dt GROUP BY 1)
            SELECT lang, n_docs,
                   round(CASE WHEN n_docs = 0 THEN 0.0
                              ELSE CAST(s1 AS DOUBLE)
                                   / CAST(n_docs AS DOUBLE) END,
                         6) AS mean_tokens,
                   med AS med_tokens, p90 AS p90_tokens
            FROM ag ORDER BY 1
        """,
        "source_concentration": """
            WITH c AS (SELECT source, CAST(count(*) AS BIGINT) AS n
                       FROM documents GROUP BY 1),
            tt AS (SELECT CAST(sum(n) AS BIGINT) AS n,
                          CAST(sum(CAST(n AS HUGEINT) * n)
                               AS HUGEINT) AS s2,
                          CAST(count(*) AS BIGINT) AS k
                   FROM c),
            top AS (SELECT source, n,
                           row_number() OVER (ORDER BY n DESC,
                                              source ASC) AS rn
                    FROM c)
            SELECT tt.k AS n_sources,
                   round(CASE WHEN tt.n = 0 THEN 0.0
                              ELSE CAST(tt.s2 AS DOUBLE)
                                   / CAST(CAST(tt.n AS HUGEINT) * tt.n
                                          AS DOUBLE) END,
                         6) AS hhi,
                   top.source AS top_source,
                   round(CASE WHEN tt.n = 0 THEN 0.0
                              ELSE CAST(top.n AS DOUBLE)
                                   / CAST(tt.n AS DOUBLE) END,
                         6) AS top_share
            FROM tt CROSS JOIN top WHERE top.rn = 1
        """,
        "lang_entropy": """
            WITH c AS (SELECT lang, CAST(count(*) AS BIGINT) AS n
                       FROM documents GROUP BY 1),
            ag AS (SELECT CAST(sum(n) AS BIGINT) AS n,
                          CAST(count(*) AS BIGINT) AS k,
                          CAST(sum(n * CAST(floor(1e6 *
                               ln(CAST(n AS DOUBLE))) AS BIGINT))
                               AS HUGEINT) AS s_ln
                   FROM c)
            SELECT k AS n_langs,
                   round(CASE WHEN n < 2 THEN 0.0
                              ELSE CAST(n * CAST(floor(1e6 *
                                        ln(CAST(n AS DOUBLE)))
                                        AS BIGINT) - s_ln AS DOUBLE)
                                   / CAST(1000000 *
                                          CAST(n AS HUGEINT)
                                          AS DOUBLE) END,
                         6) AS lang_entropy
            FROM ag
        """,
    }
)

# Round-3 wave 34 (pipelines/stats5.py): threshold exceedances +
# calendar profiles.
from .stats5 import (  # noqa: E402
    q_mean_excess,
    q_peak_hour_share,
    q_weekend_lift,
)

QUERIES.update({
    "mean_excess": q_mean_excess,
    "peak_hour_share": q_peak_hour_share,
    "weekend_lift": q_weekend_lift,
})

ORACLE_SQL.update(
    {
        "mean_excess": """
            WITH s AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events),
            th AS (SELECT event_type,
                          CAST(quantile_disc(cv, 0.95) AS BIGINT) AS u
                   FROM s GROUP BY 1),
            ag AS (SELECT s.event_type, th.u,
                          CAST(sum(CASE WHEN s.cv > th.u
                                        THEN 1 ELSE 0 END)
                               AS BIGINT) AS cnt,
                          CAST(sum(CASE WHEN s.cv > th.u
                                        THEN s.cv - th.u ELSE 0 END)
                               AS HUGEINT) AS tot
                   FROM s JOIN th USING (event_type) GROUP BY 1, 2)
            SELECT event_type, u AS threshold, cnt AS n_exceed,
                   round(CASE WHEN cnt = 0 THEN 0.0
                              ELSE CAST(tot AS DOUBLE)
                                   / CAST(cnt AS DOUBLE) END,
                         6) AS mean_excess
            FROM ag ORDER BY 1
        """,
        "peak_hour_share": """
            WITH c AS (SELECT event_type,
                              (epoch_ms(ts) // 3600000) % 24 AS d,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY 1, 2),
            tt AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS tot
                   FROM c GROUP BY 1),
            top AS (SELECT event_type, d, n,
                           row_number() OVER (PARTITION BY event_type
                                              ORDER BY n DESC, d ASC)
                               AS rn
                    FROM c)
            SELECT top.event_type, CAST(top.d AS BIGINT) AS peak_hod,
                   round(CASE WHEN tt.tot = 0 THEN 0.0
                              ELSE CAST(top.n AS DOUBLE)
                                   / CAST(tt.tot AS DOUBLE) END,
                         6) AS peak_share
            FROM top JOIN tt USING (event_type)
            WHERE top.rn = 1 ORDER BY 1
        """,
        "weekend_lift": """
            WITH e AS (SELECT event_type,
                              epoch_ms(ts) // 3600000 AS hr
                       FROM events),
            bounds AS (SELECT min(hr) AS lo, max(hr) AS hi FROM e),
            hours AS (SELECT unnest(generate_series(lo, hi)) AS hr
                      FROM bounds),
            hcal AS (SELECT CAST(sum(CASE WHEN ((hr // 24) + 3) % 7
                                               >= 5
                                          THEN 1 ELSE 0 END)
                                 AS BIGINT) AS we_h,
                            CAST(sum(CASE WHEN ((hr // 24) + 3) % 7
                                               >= 5
                                          THEN 0 ELSE 1 END)
                                 AS BIGINT) AS wd_h
                     FROM hours),
            ag AS (SELECT event_type,
                          CAST(sum(CASE WHEN ((hr // 24) + 3) % 7 >= 5
                                        THEN 1 ELSE 0 END)
                               AS BIGINT) AS a,
                          CAST(sum(CASE WHEN ((hr // 24) + 3) % 7 >= 5
                                        THEN 0 ELSE 1 END)
                               AS BIGINT) AS b
                   FROM e GROUP BY 1)
            SELECT ag.event_type,
                   round(CASE WHEN ag.b * hcal.we_h = 0 THEN 0.0
                              ELSE CAST(ag.a * hcal.wd_h AS DOUBLE)
                                   / CAST(ag.b * hcal.we_h AS DOUBLE)
                         END, 6) AS weekend_lift
            FROM ag CROSS JOIN hcal ORDER BY 1
        """,
    }
)

# Round-3 wave 35 (pipelines/stats5.py): OLS trend + Granger causality.
from .stats5 import q_granger_1lag, q_ols_trend  # noqa: E402

QUERIES.update({
    "ols_trend": q_ols_trend,
    "granger_1lag": q_granger_1lag,
})

ORACLE_SQL.update(
    {
        "ols_trend": _DENSE_GRID_CTE + """
            , base AS (SELECT event_type, c,
                              row_number() OVER (PARTITION BY
                                   event_type ORDER BY hr) - 1 AS t
                       FROM d),
            ag AS (SELECT event_type,
                          CAST(sum(c) AS HUGEINT) AS sy,
                          CAST(sum(CAST(c AS HUGEINT) * c)
                               AS HUGEINT) AS syy,
                          CAST(sum(CAST(t AS HUGEINT) * c)
                               AS HUGEINT) AS sty,
                          CAST(sum(t) AS HUGEINT) AS st,
                          CAST(sum(CAST(t AS HUGEINT) * t)
                               AS HUGEINT) AS stt
                   FROM base GROUP BY 1)
            SELECT ag.event_type,
                   round(CASE WHEN hh.hh * stt - st * st = 0 THEN 0.0
                              ELSE CAST(hh.hh * sty - st * sy
                                        AS DOUBLE)
                                   / CAST(hh.hh * stt - st * st
                                          AS DOUBLE) END,
                         6) AS slope_per_hour,
                   round(CASE WHEN hh.hh * stt - st * st = 0
                                   OR hh.hh * syy - sy * sy = 0
                              THEN 0.0
                              ELSE CAST((hh.hh * sty - st * sy)
                                        * (hh.hh * sty - st * sy)
                                        AS DOUBLE)
                                   / CAST((hh.hh * stt - st * st)
                                          * (hh.hh * syy - sy * sy)
                                          AS DOUBLE) END,
                         6) AS r2
            FROM ag CROSS JOIN hh ORDER BY 1
        """,
        "granger_1lag": _DENSE_GRID_CTE + """
            , j AS (SELECT ce.event_type AS cause,
                           ef.event_type AS effect,
                           efc.c AS y, ef.c AS x1, ce.c AS x2
                    FROM d ef
                    JOIN d efc ON efc.event_type = ef.event_type
                              AND efc.hr = ef.hr + 1
                    JOIN d ce ON ce.hr = ef.hr
                             AND ce.event_type <> ef.event_type),
            ag AS (SELECT cause, effect,
                          CAST(count(*) AS HUGEINT) AS n,
                          CAST(sum(y) AS HUGEINT) AS sy,
                          CAST(sum(x1) AS HUGEINT) AS s1,
                          CAST(sum(x2) AS HUGEINT) AS s2,
                          CAST(sum(CAST(y AS HUGEINT) * y)
                               AS HUGEINT) AS syy,
                          CAST(sum(CAST(x1 AS HUGEINT) * x1)
                               AS HUGEINT) AS s11,
                          CAST(sum(CAST(x2 AS HUGEINT) * x2)
                               AS HUGEINT) AS s22,
                          CAST(sum(CAST(x1 AS HUGEINT) * x2)
                               AS HUGEINT) AS s12,
                          CAST(sum(CAST(y AS HUGEINT) * x1)
                               AS HUGEINT) AS sy1,
                          CAST(sum(CAST(y AS HUGEINT) * x2)
                               AS HUGEINT) AS sy2
                   FROM j GROUP BY 1, 2),
            cf AS (SELECT cause, effect, n, sy, syy, s1, s11, sy1,
                          s11 * s22 - s12 * s12 AS c11,
                          -(s1 * s22 - s12 * s2) AS c12,
                          s1 * s12 - s11 * s2 AS c13,
                          n * s22 - s2 * s2 AS c22,
                          -(n * s12 - s1 * s2) AS c23,
                          n * s11 - s1 * s1 AS c33,
                          sy2
                   FROM ag),
            dt AS (SELECT cause, effect, n,
                          n * c11 + s1 * c12 + s2 * c13 AS d3u,
                          syy * (n * c11 + s1 * c12 + s2 * c13)
                            - (sy * sy * c11 + sy1 * sy1 * c22
                               + sy2 * sy2 * c33
                               + 2 * sy * sy1 * c12
                               + 2 * sy * sy2 * c13
                               + 2 * sy1 * sy2 * c23) AS d4u,
                          n * s11 - s1 * s1 AS d2r,
                          syy * (n * s11 - s1 * s1)
                            - (sy * sy * s11 - 2 * sy * sy1 * s1
                               + sy1 * sy1 * n) AS d3r
                   FROM (SELECT cf.*, ag.s2, ag.s12
                         FROM cf JOIN ag USING (cause, effect))),
            fin AS (SELECT cause, effect,
                           (d3r * d3u - d4u * d2r) * (n - 3) AS num,
                           d2r * d4u AS den
                    FROM dt)
            SELECT cause, effect,
                   round(CASE WHEN den <= 0 OR num < 0 THEN 0.0
                              ELSE CAST(num AS DOUBLE)
                                   / CAST(den AS DOUBLE) END,
                         6) AS f_stat
            FROM fin ORDER BY 1, 2
        """,
    }
)

# Round-3 wave 36 (pipelines/stats5.py): effect sizes, profile
# divergence, run lengths.
from .stats5 import (  # noqa: E402
    q_effect_sizes,
    q_kl_vs_pooled,
    q_longest_run,
)

QUERIES.update({
    "effect_sizes": q_effect_sizes,
    "kl_vs_pooled": q_kl_vs_pooled,
    "longest_run": q_longest_run,
})

ORACLE_SQL.update(
    {
        "effect_sizes": _CENT_CENSUS_CTE + """
            , tot AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS nn,
                             CAST(sum(n * cv) AS HUGEINT) AS s1,
                             CAST(sum(CAST(cv AS HUGEINT) * cv * n)
                                  AS HUGEINT) AS s2
                      FROM cs GROUP BY 1),
            pr AS (SELECT a.event_type AS ta, b.event_type AS tb,
                          a.nn AS n1, b.nn AS n2,
                          a.s1 AS s1a, b.s1 AS s1b,
                          a.nn * a.s2 - a.s1 * a.s1 AS nua,
                          b.nn * b.s2 - b.s1 * b.s1 AS nub,
                          a.s1 * b.nn - b.s1 * a.nn AS md_num
                   FROM tot a JOIN tot b
                     ON a.event_type < b.event_type),
            fl AS (SELECT ta, tb, n1, n2, md_num, nua,
                          CAST(nua * n2 + nub * n1 AS DOUBLE)
                            / CAST(CAST(n1 AS HUGEINT) * n2
                                   * (n1 + n2 - 2) AS DOUBLE) AS pool
                   FROM pr WHERE n1 >= 2 AND n2 >= 2),
            dd AS (SELECT ta, tb, n1, n2, md_num, nua, pool,
                          CASE WHEN pool <= 0.0 THEN 0.0
                               ELSE CAST(md_num AS DOUBLE)
                                    / (CAST(CAST(n1 AS HUGEINT) * n2
                                            AS DOUBLE) * sqrt(pool))
                          END AS d
                   FROM fl)
            SELECT ta AS type_a, tb AS type_b,
                   round(d, 6) AS cohens_d,
                   round(d * (1.0 - 3.0 / CAST(4 * (n1 + n2) - 9
                                               AS DOUBLE)),
                         6) AS hedges_g,
                   round(CASE WHEN nua <= 0 THEN 0.0
                              ELSE CAST(md_num AS DOUBLE)
                                   / (CAST(CAST(n1 AS HUGEINT) * n2
                                           AS DOUBLE)
                                      * sqrt(CAST(nua AS DOUBLE)
                                             / CAST(CAST(n1 AS
                                                    HUGEINT)
                                                    * (n1 - 1)
                                                    AS DOUBLE)))
                         END, 6) AS glass_delta
            FROM dd ORDER BY 1, 2
        """,
        "kl_vs_pooled": """
            WITH c AS (SELECT event_type,
                              (epoch_ms(ts) // 3600000) % 24 AS d,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY 1, 2),
            p AS (SELECT d, CAST(sum(n) AS BIGINT) AS m
                  FROM c GROUP BY 1),
            mm AS (SELECT CAST(sum(n) AS BIGINT) AS big_m FROM c),
            tt AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS nt
                   FROM c GROUP BY 1),
            terms AS (SELECT c.event_type,
                             CAST(c.n AS HUGEINT)
                             * (CAST(floor(1e6 * ln(CAST(c.n * mm.big_m
                                      AS DOUBLE))) AS BIGINT)
                                - CAST(floor(1e6 * ln(CAST(tt.nt * p.m
                                       AS DOUBLE))) AS BIGINT)) AS t
                      FROM c JOIN p USING (d)
                             JOIN tt USING (event_type)
                             CROSS JOIN mm
                      WHERE c.n > 0),
            ag AS (SELECT event_type, CAST(sum(t) AS HUGEINT) AS acc
                   FROM terms GROUP BY 1)
            SELECT tt.event_type,
                   round(CASE WHEN tt.nt = 0 THEN 0.0
                              ELSE CAST(ag.acc AS DOUBLE)
                                   / CAST(1000000 *
                                          CAST(tt.nt AS HUGEINT)
                                          AS DOUBLE) END,
                         6) AS kl_bits_e
            FROM tt JOIN ag USING (event_type) ORDER BY 1
        """,
        "longest_run": _DENSE_GRID_CTE + """
            , md AS (SELECT event_type,
                            CAST(quantile_disc(c, 0.5) AS BIGINT)
                                AS med
                     FROM d GROUP BY 1),
            ab AS (SELECT d.event_type, d.hr,
                          CASE WHEN d.c > md.med THEN 1 ELSE 0 END
                              AS a
                   FROM d JOIN md USING (event_type)),
            isl AS (SELECT event_type, hr, a,
                           row_number() OVER (PARTITION BY event_type
                                              ORDER BY hr)
                             - row_number() OVER (PARTITION BY
                                   event_type, a ORDER BY hr) AS grp
                    FROM ab),
            runs AS (SELECT event_type, grp,
                            CAST(count(*) AS BIGINT) AS len
                     FROM isl WHERE a = 1 GROUP BY 1, 2),
            mx AS (SELECT event_type, max(len) AS longest,
                          CAST(count(*) AS BIGINT) AS nr
                   FROM runs GROUP BY 1)
            SELECT md.event_type,
                   CAST(COALESCE(mx.longest, 0) AS BIGINT)
                       AS longest_run,
                   CAST(COALESCE(mx.nr, 0) AS BIGINT) AS n_runs
            FROM md LEFT JOIN mx USING (event_type) ORDER BY 1
        """,
    }
)

# Round-3 wave 37 (pipelines/stats5.py): pairwise overlap / homogeneity.
from .stats5 import (  # noqa: E402
    q_active_hours_jaccard,
    q_chi2_homogeneity,
    q_tv_overlap,
)

QUERIES.update({
    "tv_overlap": q_tv_overlap,
    "chi2_homogeneity": q_chi2_homogeneity,
    "active_hours_jaccard": q_active_hours_jaccard,
})

ORACLE_SQL.update(
    {
        "tv_overlap": _PAIR_CUMS_CTE + """
            , ag AS (SELECT ta, tb, na, nb,
                            CAST(sum(abs(nb * an - na * bn))
                                 AS HUGEINT) AS num
                     FROM cums GROUP BY 1, 2, 3, 4)
            SELECT ta AS type_a, tb AS type_b,
                   round(CASE WHEN na * nb = 0 THEN 0.0
                              ELSE CAST(num AS DOUBLE)
                                   / CAST(2 * CAST(na AS HUGEINT) * nb
                                          AS DOUBLE) END,
                         6) AS tv_dist,
                   round(CASE WHEN na * nb = 0 THEN 1.0
                              ELSE 1.0 - CAST(num AS DOUBLE)
                                   / CAST(2 * CAST(na AS HUGEINT) * nb
                                          AS DOUBLE) END,
                         6) AS overlap
            FROM ag ORDER BY 1, 2
        """,
        "chi2_homogeneity": _PAIR_CUMS_CTE + """
            , terms AS (SELECT ta, tb, na, nb,
                               (1000000000000
                                * CAST(nb * an - na * bn AS HUGEINT)
                                * (nb * an - na * bn))
                               // (CAST(na AS HUGEINT) * nb
                                   * (an + bn)) AS t
                        FROM cums WHERE an + bn > 0),
            ag AS (SELECT ta, tb, na, nb,
                          CAST(sum(t) AS HUGEINT) AS acc
                   FROM terms GROUP BY 1, 2, 3, 4)
            SELECT ta AS type_a, tb AS type_b,
                   round(CASE WHEN na = 0 OR nb = 0 THEN 0.0
                              ELSE CAST(acc AS DOUBLE) / 1e12 END,
                         6) AS chi2
            FROM ag ORDER BY 1, 2
        """,
        "active_hours_jaccard": _DENSE_GRID_CTE + """
            , j AS (SELECT a.event_type AS ta, b.event_type AS tb,
                           CAST(sum(CASE WHEN a.c > 0 AND b.c > 0
                                         THEN 1 ELSE 0 END)
                                AS BIGINT) AS inter,
                           CAST(sum(CASE WHEN a.c > 0 OR b.c > 0
                                         THEN 1 ELSE 0 END)
                                AS BIGINT) AS uni
                    FROM d a JOIN d b ON b.hr = a.hr
                                     AND a.event_type < b.event_type
                    GROUP BY 1, 2)
            SELECT ta AS type_a, tb AS type_b, inter AS n_both,
                   round(CASE WHEN uni = 0 THEN 0.0
                              ELSE CAST(inter AS DOUBLE)
                                   / CAST(uni AS DOUBLE) END,
                         6) AS jaccard
            FROM j ORDER BY 1, 2
        """,
    }
)

# Round-3 wave 38 (pipelines/stats5.py): classical ANOVA + shape
# diagnostics.
from .stats5 import (  # noqa: E402
    q_anova_f,
    q_dow_uniformity,
    q_quantile_skew,
)

QUERIES.update({
    "anova_f": q_anova_f,
    "dow_uniformity": q_dow_uniformity,
    "quantile_skew": q_quantile_skew,
})

ORACLE_SQL.update(
    {
        "anova_f": _CENT_CENSUS_CTE + """
            , g AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS ni,
                           CAST(sum(n * cv) AS HUGEINT) AS s1i,
                           CAST(sum(CAST(cv AS HUGEINT) * cv * n)
                                AS HUGEINT) AS s2i
                    FROM cs GROUP BY 1),
            ag AS (SELECT CAST(count(*) AS BIGINT) AS k,
                          CAST(sum(ni) AS BIGINT) AS n,
                          CAST(sum(s1i) AS HUGEINT) AS s1,
                          CAST(sum(s2i) AS HUGEINT) AS s2,
                          CAST(sum((1000000000000 * s1i * s1i) // ni)
                               AS HUGEINT) AS t_sum
                   FROM g WHERE ni > 0),
            ss AS (SELECT k, n,
                          t_sum - (1000000000000 * s1 * s1) // n
                              AS ssb,
                          1000000000000 * s2 - t_sum AS ssw
                   FROM ag)
            SELECT k AS k_groups,
                   round(CASE WHEN k < 2 OR n <= k OR ssw <= 0
                              THEN 0.0
                              ELSE CAST(ssb * (n - k) AS DOUBLE)
                                   / CAST(ssw * (k - 1) AS DOUBLE)
                         END, 6) AS anova_f,
                   round(CASE WHEN ssb + ssw <= 0 THEN 0.0
                              ELSE CAST(ssb AS DOUBLE)
                                   / CAST(ssb + ssw AS DOUBLE) END,
                         6) AS eta_sq
            FROM ss
        """,
        "dow_uniformity": """
            WITH c AS (SELECT event_type,
                              ((epoch_ms(ts) // 86400000) + 3) % 7
                                  AS dow,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY 1, 2),
            ag AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS n,
                          CAST(sum(CAST(n AS HUGEINT) * n)
                               AS HUGEINT) AS s2
                   FROM c GROUP BY 1)
            SELECT event_type,
                   round(CASE WHEN n = 0 THEN 0.0
                              ELSE CAST(7 * s2 - CAST(n AS HUGEINT)
                                        * n AS DOUBLE)
                                   / CAST(n AS DOUBLE) END,
                         6) AS chi2_uniform
            FROM ag ORDER BY 1
        """,
        "quantile_skew": """
            WITH s AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events),
            r AS (SELECT event_type, cv,
                         row_number() OVER (PARTITION BY event_type
                                            ORDER BY cv) AS rn
                  FROM s),
            nn AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n
                   FROM s GROUP BY 1),
            px AS (SELECT r.event_type,
                          max(CASE WHEN rn = (n + 1) // 2
                                   THEN cv END) AS med,
                          max(CASE WHEN rn = (n + 3) // 4
                                   THEN cv END) AS q1,
                          max(CASE WHEN rn = (3 * n + 3) // 4
                                   THEN cv END) AS q3,
                          max(CASE WHEN rn = (n + 9) // 10
                                   THEN cv END) AS p10,
                          max(CASE WHEN rn = (9 * n + 9) // 10
                                   THEN cv END) AS p90
                   FROM r JOIN nn USING (event_type) GROUP BY 1)
            SELECT event_type,
                   round(CASE WHEN q3 = q1 THEN 0.0
                              ELSE CAST(q3 + q1 - 2 * med AS DOUBLE)
                                   / CAST(q3 - q1 AS DOUBLE) END,
                         6) AS bowley_skew,
                   round(CASE WHEN p90 = p10 THEN 0.0
                              ELSE CAST(p90 + p10 - 2 * med AS DOUBLE)
                                   / CAST(p90 - p10 AS DOUBLE) END,
                         6) AS kelly_skew
            FROM px ORDER BY 1
        """,
    }
)

# Round-3 wave 39 (pipelines/stats5.py): outlier censuses + uniform GOF.
from .stats5 import q_ks_uniform_value, q_outlier_counts  # noqa: E402

QUERIES.update({
    "outlier_counts": q_outlier_counts,
    "ks_uniform_value": q_ks_uniform_value,
})

ORACLE_SQL.update(
    {
        "outlier_counts": _CENT_CENSUS_CTE + """
            , r AS (SELECT event_type, cv,
                           row_number() OVER (PARTITION BY event_type
                                              ORDER BY cv) AS rn
                    FROM s),
            nn AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n
                   FROM s GROUP BY 1),
            px AS (SELECT r.event_type,
                          max(CASE WHEN rn = (n + 1) // 2
                                   THEN cv END) AS med,
                          max(CASE WHEN rn = (n + 3) // 4
                                   THEN cv END) AS q1,
                          max(CASE WHEN rn = (3 * n + 3) // 4
                                   THEN cv END) AS q3
                   FROM r JOIN nn USING (event_type) GROUP BY 1),
            md AS (SELECT s.event_type,
                          CAST(quantile_disc(abs(s.cv - px.med), 0.5)
                               AS BIGINT) AS mad
                   FROM s JOIN px USING (event_type) GROUP BY 1),
            ag AS (SELECT s.event_type,
                          CAST(sum(CASE WHEN 2 * s.cv
                                             < 5 * px.q1 - 3 * px.q3
                                        THEN 1 ELSE 0 END)
                               AS BIGINT) AS iqr_low,
                          CAST(sum(CASE WHEN 2 * s.cv
                                             > 5 * px.q3 - 3 * px.q1
                                        THEN 1 ELSE 0 END)
                               AS BIGINT) AS iqr_high,
                          CAST(sum(CASE WHEN abs(s.cv - px.med)
                                             > 3 * md.mad
                                        THEN 1 ELSE 0 END)
                               AS BIGINT) AS robust_z_cnt
                   FROM s JOIN px USING (event_type)
                          JOIN md USING (event_type)
                   GROUP BY 1)
            SELECT event_type, iqr_low, iqr_high, robust_z_cnt
            FROM ag ORDER BY 1
        """,
        "ks_uniform_value": _CENT_CENSUS_CTE + """
            , ext AS (SELECT event_type, min(cv) AS lo, max(cv) AS hi,
                             CAST(sum(n) AS BIGINT) AS nn
                      FROM cs GROUP BY 1),
            cm AS (SELECT cs.event_type, cs.cv,
                          sum(cs.n) OVER (PARTITION BY cs.event_type
                                          ORDER BY cs.cv) AS cum
                   FROM cs),
            dev AS (SELECT cm.event_type, cm.cv,
                           abs(cm.cum * (e.hi - e.lo)
                               - e.nn * (cm.cv - e.lo)) AS dv
                    FROM cm JOIN ext e USING (event_type)
                    WHERE e.hi > e.lo),
            best AS (SELECT event_type, cv, dv,
                            row_number() OVER (PARTITION BY event_type
                                               ORDER BY dv DESC,
                                                        cv ASC) AS rn
                     FROM dev)
            SELECT e.event_type,
                   round(CASE WHEN e.hi = e.lo OR e.nn = 0 THEN 0.0
                              ELSE CAST(b.dv AS DOUBLE)
                                   / CAST(e.nn *
                                          CAST(e.hi - e.lo AS HUGEINT)
                                          AS DOUBLE) END,
                         6) AS d_stat,
                   CAST(CASE WHEN e.hi = e.lo THEN e.lo
                             ELSE b.cv END AS BIGINT) AS at_cv
            FROM ext e LEFT JOIN best b ON b.event_type = e.event_type
                                       AND b.rn = 1
            ORDER BY 1
        """,
    }
)

# Round-3 wave 40 (pipelines/stats5.py): value-mass concentration.
from .stats5 import q_half_value_point, q_user_gini  # noqa: E402

QUERIES.update({
    "half_value_point": q_half_value_point,
    "user_gini": q_user_gini,
})

ORACLE_SQL.update(
    {
        "half_value_point": _CENT_CENSUS_CTE + """
            , cm AS (SELECT event_type, cv,
                            sum(n * cv) OVER w AS mass,
                            sum(n) OVER w AS cnt
                     FROM cs
                     WINDOW w AS (PARTITION BY event_type
                                  ORDER BY cv)),
            tot AS (SELECT event_type,
                           CAST(sum(n * cv) AS HUGEINT) AS sv,
                           CAST(sum(n) AS BIGINT) AS n
                    FROM cs GROUP BY 1),
            hit AS (SELECT cm.event_type, cm.cv, cm.cnt,
                           row_number() OVER (PARTITION BY
                                cm.event_type ORDER BY cm.cv) AS rn
                    FROM cm JOIN tot USING (event_type)
                    WHERE 2 * cm.mass >= tot.sv)
            SELECT h.event_type, h.cv AS half_value_cv,
                   round(CASE WHEN t.n = 0 THEN 0.0
                              ELSE CAST(h.cnt AS DOUBLE)
                                   / CAST(t.n AS DOUBLE) END,
                         6) AS events_below
            FROM hit h JOIN tot t USING (event_type)
            WHERE h.rn = 1 ORDER BY 1
        """,
        "user_gini": """
            WITH uu AS (SELECT user_id, CAST(count(*) AS BIGINT) AS c
                        FROM events GROUP BY 1),
            cc AS (SELECT c, CAST(count(*) AS BIGINT) AS u
                   FROM uu GROUP BY 1),
            cm AS (SELECT c, u,
                          sum(u) OVER w - u AS wlt,
                          sum(u * c) OVER w - u * c AS slt
                   FROM cc WINDOW w AS (ORDER BY c)),
            ag AS (SELECT CAST(sum(CAST(u AS HUGEINT)
                                   * (c * wlt - slt)) AS HUGEINT)
                              AS gaa,
                          CAST(sum(u) AS BIGINT) AS users,
                          CAST(sum(u * c) AS HUGEINT) AS s1
                   FROM cm)
            SELECT users AS n_users,
                   round(CASE WHEN users * s1 = 0 THEN 0.0
                              ELSE CAST(gaa AS DOUBLE)
                                   / CAST(users * s1 AS DOUBLE) END,
                         6) AS user_gini
            FROM ag
        """,
    }
)

# Round-3 wave 41 (pipelines/stats5.py): longitudinal product
# analytics.
from .stats5 import (  # noqa: E402
    q_returning_share,
    q_stickiness,
    q_value_trend,
)

QUERIES.update({
    "value_trend": q_value_trend,
    "returning_share": q_returning_share,
    "stickiness": q_stickiness,
})

ORACLE_SQL.update(
    {
        "value_trend": """
            WITH e AS (SELECT event_type,
                              epoch_ms(ts) // 86400000 AS day,
                              CAST(round(value * 100) AS BIGINT) AS cv
                       FROM events),
            ag AS (SELECT event_type,
                          CAST(count(*) AS BIGINT) AS n,
                          CAST(sum(day) AS HUGEINT) AS sd,
                          CAST(sum(cv) AS HUGEINT) AS sv,
                          CAST(sum(CAST(day AS HUGEINT) * day)
                               AS HUGEINT) AS sdd,
                          CAST(sum(CAST(cv AS HUGEINT) * cv)
                               AS HUGEINT) AS svv,
                          CAST(sum(CAST(day AS HUGEINT) * cv)
                               AS HUGEINT) AS sdv
                   FROM e GROUP BY 1)
            SELECT event_type,
                   round(CASE WHEN n * sdd - sd * sd = 0 THEN 0.0
                              ELSE CAST(n * sdv - sd * sv AS DOUBLE)
                                   / CAST(n * sdd - sd * sd
                                          AS DOUBLE) END,
                         6) AS slope_cents_day,
                   round(CASE WHEN n * sdd - sd * sd = 0
                                   OR n * svv - sv * sv = 0 THEN 0.0
                              ELSE CAST((n * sdv - sd * sv)
                                        * (n * sdv - sd * sv)
                                        AS DOUBLE)
                                   / CAST((n * sdd - sd * sd)
                                          * (n * svv - sv * sv)
                                          AS DOUBLE) END,
                         6) AS r2
            FROM ag ORDER BY 1
        """,
        "returning_share": """
            WITH ud AS (SELECT user_id,
                               epoch_ms(ts) // 86400000 AS day,
                               CAST(count(*) AS BIGINT) AS n
                        FROM events GROUP BY 1, 2),
            fd AS (SELECT user_id, min(day) AS d0 FROM ud GROUP BY 1),
            ag AS (SELECT CAST(sum(ud.n) AS BIGINT) AS total,
                          CAST(sum(CASE WHEN ud.day = fd.d0
                                        THEN ud.n ELSE 0 END)
                               AS BIGINT) AS first
                   FROM ud JOIN fd USING (user_id))
            SELECT total AS n_events,
                   round(CASE WHEN total = 0 THEN 0.0
                              ELSE CAST(total - first AS DOUBLE)
                                   / CAST(total AS DOUBLE) END,
                         6) AS returning_share
            FROM ag
        """,
        "stickiness": """
            WITH ud AS (SELECT DISTINCT user_id,
                               epoch_ms(ts) // 86400000 AS day
                        FROM events),
            uw AS (SELECT DISTINCT user_id, day // 7 AS wk FROM ud),
            ag AS (SELECT (SELECT CAST(count(*) AS BIGINT) FROM ud)
                              AS s_dau,
                          (SELECT CAST(count(*) AS BIGINT) FROM uw)
                              AS s_wau,
                          (SELECT CAST(count(DISTINCT day) AS BIGINT)
                           FROM ud) AS n_days,
                          (SELECT CAST(count(DISTINCT wk) AS BIGINT)
                           FROM uw) AS n_weeks)
            SELECT s_dau AS sum_dau, s_wau AS sum_wau,
                   round(CASE WHEN s_wau * n_days = 0 THEN 0.0
                              ELSE CAST(s_dau * n_weeks AS DOUBLE)
                                   / CAST(s_wau * n_days AS DOUBLE)
                         END, 6) AS stickiness
            FROM ag
        """,
    }
)
