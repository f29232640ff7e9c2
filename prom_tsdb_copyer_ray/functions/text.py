"""Text/HTML scalar functions for the web-page payload.

The reference's scalar surface is time floor/align + label string ops
(SURVEY.md §2 "Scalar functions"); the web-page payload adds url→domain
extraction and HTML→text extraction (the ``input_hint`` invariant:
byte-identical extracted text per url).

Everything here is either a vectorized Arrow/pandas kernel or a
compiled-regex per-document function intended to run inside an actor-pool
``map_batches`` stage (regexes compiled once per actor in ``__init__``).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# The battery's word tokenizer: ASCII letter runs (callers lower-case).
WORD_RE = re.compile(r"[A-Za-z]+")

# ---------------------------------------------------------------------------
# Canonical page template (synthetic pages generator <-> extractor inverse)
# ---------------------------------------------------------------------------

# escape exactly &, <, > (in this order); the SQL oracle mirrors this with
# three chained replace() calls, so keep it minimal and deterministic.
def html_escape_basic(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def html_unescape_basic(s: str) -> str:
    """Exact inverse of :func:`html_escape_basic` (reverse order)."""
    return s.replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")


PAGE_TEMPLATE = (
    "<html><head><title>{title}</title></head>"
    "<body><p>{body}</p></body></html>"
)
# constant byte overhead of the template around title/body (used by the SQL
# oracle to predict len(html) without building it)
PAGE_TEMPLATE_OVERHEAD = len(PAGE_TEMPLATE.format(title="", body="").encode("utf-8"))


def wrap_html(title: str, text: str) -> bytes:
    """Render the canonical page; ``extract_text(wrap_html(t, x)) == x``."""
    return PAGE_TEMPLATE.format(title=html_escape_basic(title), body=html_escape_basic(text)).encode(
        "utf-8"
    )


_P_RE = re.compile(r"<p(?:\s[^>]*)?>(.*?)</p>", re.DOTALL | re.IGNORECASE)
_SCRIPT_STYLE_RE = re.compile(r"<(script|style)\b[^>]*>.*?</\1\s*>", re.DOTALL | re.IGNORECASE)
_NUM_ENT_RE = re.compile(r"&#(?:x([0-9a-fA-F]+)|([0-9]+));")
_NAMED_ENTS = {"&quot;": '"', "&apos;": "'", "&nbsp;": " ", "&#39;": "'"}


def unescape_entities(s: str) -> str:
    """Numeric + common named entities, then the basic three (inverse-escape last)."""
    s = _NUM_ENT_RE.sub(lambda m: chr(int(m.group(1), 16) if m.group(1) else int(m.group(2))), s)
    for ent, ch in _NAMED_ENTS.items():
        s = s.replace(ent, ch)
    return html_unescape_basic(s)


def extract_text(html: bytes | str) -> str:
    """HTML -> text: join ``<p>`` contents with newlines, unescape entities.

    Paragraph-scoped so titles, scripts/styles and malformed tails never leak
    into the text (the reference's per-row invariant demands byte-identical
    output per url, so extraction must be a pure deterministic function of the
    html bytes).
    """
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8", errors="replace")
    html = _SCRIPT_STYLE_RE.sub("", html)
    parts = _P_RE.findall(html)
    return "\n".join(unescape_entities(p) for p in parts)


def extract_texts(html_col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Column-kernel :func:`extract_text` over a binary/string HTML column.

    Arrow-RE2 + literal-replace path for rows that are provably equivalent
    under both engines (valid UTF-8, exactly one ``<p>``/``</p>`` pair, no
    script/style blocks, no numeric entities); scalar fallback per row
    otherwise.  Byte-identical to :func:`extract_text` for every row
    (property-tested).

    PERF NOTE: measured SLOWER than the per-page scalar loop (0.4x on 10 KB
    pages, 0.8x on 300 B pages) — the kernel pipeline makes ~10 full-column
    scans while Python's compiled re + str.replace do ~3 cache-resident
    passes per page.  The hot extraction stage (stages/extract.py) therefore
    keeps the scalar loop; this kernel exists for column-level callers that
    want extraction as a pure Arrow expression.
    """
    if isinstance(html_col, pa.ChunkedArray):
        html_col = html_col.combine_chunks()
    n = len(html_col)
    try:
        s = pc.cast(html_col, pa.large_string()) if not pa.types.is_string(
            html_col.type
        ) and not pa.types.is_large_string(html_col.type) else html_col
    except pa.ArrowInvalid:  # invalid utf-8 somewhere: scalar path for all
        return pa.array([extract_text(h) for h in html_col.to_pylist()], pa.string())

    p_open = pc.count_substring_regex(s, r"(?i)<p[\s>]")
    p_close = pc.count_substring_regex(s, r"(?i)</p>")
    risky = pc.count_substring_regex(s, r"(?i)<script\b|<style\b|&#")
    fast = pc.and_(
        pc.and_(pc.equal(p_open, 1), pc.equal(p_close, 1)), pc.equal(risky, 0)
    )

    body = pc.struct_field(
        pc.extract_regex(s, r"(?is)<p(?:\s[^>]*)?>(?P<body>.*?)</p>"), "body"
    )
    body = pc.fill_null(body, "")
    # unescape chain for the fast subset: no numeric entities by eligibility,
    # so the scalar unescape reduces to these literal replaces in this order
    for pat, rep in (("&quot;", '"'), ("&apos;", "'"), ("&nbsp;", " "),
                     ("&lt;", "<"), ("&gt;", ">"), ("&amp;", "&")):
        body = pc.replace_substring(body, pattern=pat, replacement=rep)

    fast_np = fast.to_numpy(zero_copy_only=False)
    out = pc.cast(body, pa.string())
    if bool(fast_np.all()):
        return out
    import numpy as np

    lst = out.to_pylist()
    raw = html_col.to_pylist()
    for i in np.flatnonzero(~fast_np):
        lst[i] = extract_text(raw[i])
    return pa.array(lst, pa.string())


# ---------------------------------------------------------------------------
# URL / token / quality kernels (vectorized Arrow)
# ---------------------------------------------------------------------------

_DOMAIN_REWRITE = (r"^[a-zA-Z][a-zA-Z0-9+.-]*://([^/?#]+).*$", r"\1")


def url_domain(urls: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray | pa.Array:
    """Vectorized url -> host (scheme://host/... -> host); RE2 rewrite kernel."""
    return pc.replace_substring_regex(urls, pattern=_DOMAIN_REWRITE[0], replacement=_DOMAIN_REWRITE[1])


_WS_SPLIT = r"[ \t\r\n]+"


def token_count(texts: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Whitespace-token count, SQL-mirrorable: split trimmed text on [ \\t\\r\\n]+.

    Empty / whitespace-only text counts 0.  The DuckDB oracle uses
    ``len(regexp_split_to_array(trim(text), '[ \\t\\r\\n]+'))`` with an empty
    CASE guard — identical definition on both sides.
    """
    trimmed = pc.utf8_trim(pc.cast(texts, pa.string()), " \t\r\n")
    splits = pc.split_pattern_regex(trimmed, _WS_SPLIT)
    n = pc.list_value_length(splits)
    empty = pc.equal(trimmed, "")
    return pc.cast(pc.if_else(empty, pa.scalar(0, pa.int32()), n), pa.int64())


# GPT-2-style pre-tokenizer pattern, restricted to RE2 syntax (no lookahead,
# no whitespace branch — unmatched whitespace is simply skipped by the
# scanner) so pyarrow (RE2) and DuckDB (RE2) count IDENTICALLY: contraction
# suffixes, a letter-run with optional leading space, a digit-run, a
# punctuation-run.
BPE_TOKEN_PATTERN = r"'(?:s|t|re|ve|m|ll|d)| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+"


def bpe_token_count(texts: pa.ChunkedArray | pa.Array) -> pa.Array:
    """BPE-ish (GPT-2 pre-tokenizer) token count per string, vectorized.

    Non-overlapping matches of :data:`BPE_TOKEN_PATTERN`; the DuckDB oracle
    uses ``len(regexp_extract_all(text, pat))`` with the SAME pattern —
    both engines are RE2, so counts agree exactly.  ("BPE-ish": the
    pre-tokenizer split, not an actual merge-table vocabulary.)
    """
    s = pc.fill_null(pc.cast(texts, pa.string()), "")
    return pc.cast(pc.count_substring_regex(s, BPE_TOKEN_PATTERN), pa.int64())


def count_regex(texts: pa.ChunkedArray | pa.Array, pattern: str) -> pa.Array:
    """Count regex matches per string (vectorized)."""
    return pc.cast(pc.count_substring_regex(pc.cast(texts, pa.string()), pattern), pa.int64())


def quality_counts(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Quality-scoring raw counts per document (integer, SQL-mirrorable).

    Emits ``n_chars_text`` (character length), ``n_alpha`` ([A-Za-z]),
    ``n_digit`` ([0-9]), ``n_space`` and ``n_tokens``.  Ratios (alpha ratio,
    mean word length, ...) derive from these downstream; integers keep the
    DuckDB value-hash comparison exact.
    """
    texts = batch[text_col]
    batch = batch.append_column("n_chars_text", pc.cast(pc.utf8_length(texts), pa.int64()))
    batch = batch.append_column("n_alpha", count_regex(texts, "[A-Za-z]"))
    batch = batch.append_column("n_digit", count_regex(texts, "[0-9]"))
    batch = batch.append_column("n_space", count_regex(texts, " "))
    batch = batch.append_column("n_tokens", token_count(texts))
    return batch


# PII redaction patterns: email, long digit runs (phone/account/SSN-ish),
# IPv4.  RE2 syntax so pyarrow (replace/count_substring_regex) and DuckDB
# (regexp_replace/'g', regexp_extract_all) agree match-for-match.
PII_PATTERNS: list[tuple[str, str]] = [
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    (r"\b[0-9][0-9 ()+-]{5,}[0-9]\b", "<NUM>"),
]


def redact_regex(texts: pa.ChunkedArray | pa.Array,
                 patterns: list[tuple[str, str]] | None = None
                 ) -> tuple[pa.Array, pa.Array]:
    """Vectorized multi-pattern regex redaction (PII scrubbing).

    Returns ``(redacted_text, n_redactions)``.  Match counts are taken on
    the ORIGINAL text per pattern (so overlapping patterns count
    independently); replacements apply sequentially in pattern order —
    mirror the same nesting order in any SQL oracle.  Pure Arrow kernels
    (``count_substring_regex`` + ``replace_substring_regex``): zero per-row
    Python, safe for 100 TB map stages.
    """
    pats = PII_PATTERNS if patterns is None else patterns
    s = pc.cast(texts, pa.string())
    n = pa.array(np.zeros(len(s), dtype=np.int64), pa.int64())
    for pat, _ in pats:
        n = pc.add(n, count_regex(s, pat))
    red = s
    for pat, repl in pats:
        red = pc.replace_substring_regex(red, pattern=pat, replacement=repl)
    return red, n


# ---------------------------------------------------------------------------
# Language identification (n-gram / stopword heuristic; no external models)
# ---------------------------------------------------------------------------

_STOPWORDS: dict[str, frozenset[str]] = {
    "en": frozenset("the of and to a in is that it for on with as at by this".split()),
    "de": frozenset("der die das und ist nicht ein eine mit von zu im den für auf".split()),
    "es": frozenset("el la los las de que y en un una es por con para del no".split()),
    "fr": frozenset("le la les de des et un une est dans pour que qui sur pas".split()),
}


class LangIdModel:
    """Deterministic heuristic language-ID: CJK-ratio then stopword voting.

    Stateful-stage material: construct once per actor (``__init__`` of the
    actor-pool callable), apply per batch.
    """

    def __init__(self) -> None:
        self.word_re = re.compile(r"[a-zäöüßáéíóúàèìòùâêîôûçñ]+", re.IGNORECASE)
        self.stop = {lang: sw for lang, sw in _STOPWORDS.items()}

    def predict_one(self, text: str) -> str:
        if not text:
            return "und"  # undetermined
        n_cjk = sum(1 for ch in text[:4000] if "一" <= ch <= "鿿")
        if n_cjk >= max(4, 0.05 * min(len(text), 4000)):
            return "zh"
        words = self.word_re.findall(text[:4000].lower())
        if not words:
            return "und"
        best_lang, best_hits = "und", 0
        for lang in sorted(self.stop):  # sorted -> deterministic tie-break
            hits = sum(1 for w in words if w in self.stop[lang])
            if hits > best_hits:
                best_lang, best_hits = lang, hits
        return best_lang if best_hits > 0 else "und"

    def predict(self, texts) -> list[str]:
        return [self.predict_one(t or "") for t in texts]

    def predict_batch(self, texts: pa.ChunkedArray | pa.Array) -> pa.Array:
        """Vectorized :meth:`predict_one` — identical outputs, Arrow kernels.

        Tokenization is the exact complement split of ``word_re`` (so the
        token multiset matches ``findall``), stopword hits are one
        ``pc.is_in`` per language over the flat token stream, and the CJK
        branch is a counted codepoint-class regex.  Used by the actor-pool
        lang-id stage; ``predict_one`` remains the reference the pytest
        cross-checks against.
        """
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        s = pc.fill_null(pc.cast(texts, pa.string()), "")
        n = len(s)
        length = pc.utf8_length(s).to_numpy(zero_copy_only=False).astype(np.int64)
        head = pc.utf8_slice_codeunits(s, 0, 4000)
        # CJK branch: count of [U+4E00..U+9FFF] in the first 4000 codepoints
        n_cjk = pc.count_substring_regex(head, "[一-鿿]").to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        cjk_thresh = np.maximum(4, 0.05 * np.minimum(length, 4000))
        is_zh = n_cjk >= cjk_thresh
        # word tokens of the lowered head: split on the complement class of
        # word_re, drop empties -> same multiset findall produces
        low = pc.utf8_lower(head)
        lists = pc.split_pattern_regex(low, "[^a-zäöüßáéíóúàèìòùâêîôûçñ]+")
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(lists)
        row_idx = np.repeat(np.arange(n, dtype=np.int64), lens)
        nonempty = pc.not_equal(flat, "")
        flat = flat.filter(nonempty)
        row_idx = row_idx[nonempty.to_numpy(zero_copy_only=False)]
        langs = sorted(self.stop)
        hits = np.zeros((n, len(langs)), dtype=np.int64)
        for j, lang in enumerate(langs):
            m = pc.is_in(flat, value_set=pa.array(sorted(self.stop[lang])))
            np.add.at(hits[:, j], row_idx[m.to_numpy(zero_copy_only=False)], 1)
        has_word = np.zeros(n, dtype=bool)
        has_word[row_idx] = True
        # strictly-greater voting in sorted-lang order == argmax first-max
        best_j = np.argmax(hits, axis=1)
        best_hits = hits[np.arange(n), best_j]
        lang_arr = np.asarray(langs + ["und"], dtype=object)
        choice = np.where(best_hits > 0, best_j, len(langs))
        out = lang_arr[choice]
        out[~has_word] = "und"
        out[is_zh] = "zh"
        out[length == 0] = "und"
        return pa.array(out, pa.string())


def canonical_url(urls: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Canonicalize URL variants to one dedup key (vectorized Arrow regex
    kernels, RE2 both here and in the DuckDB oracle so the two engines
    agree byte-for-byte).

    Chain (order matters, the SQL mirror applies the same steps):
      1. strip the scheme (``^[A-Za-z]+://``),
      2. drop the fragment (``#...``), then the whole query (``?...``),
      3. split host (up to the first ``/``) from the path,
      4. host: lowercase, strip leading ``www.``, strip default ports
         ``:80``/``:443``,
      5. path: strip one trailing ``/``.
    Canonical form = host || path (no scheme — http/https variants of the
    same resource collapse, the usual crawl-dedup convention)."""
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    u = pc.replace_substring_regex(urls, r"^[A-Za-z]+://", "")
    u = pc.replace_substring_regex(u, r"#.*$", "")
    u = pc.replace_substring_regex(u, r"\?.*$", "")
    parts = pc.extract_regex(u, r"^(?P<host>[^/]*)(?P<rest>.*)$")
    host = pc.struct_field(parts, "host")
    rest = pc.struct_field(parts, "rest")
    host = pc.utf8_lower(host)
    host = pc.replace_substring_regex(host, r"^www\.", "")
    host = pc.replace_substring_regex(host, r":(80|443)$", "")
    rest = pc.replace_substring_regex(rest, r"/$", "")
    return pc.binary_join_element_wise(host, rest, "")
