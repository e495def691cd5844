"""Text analysis primitives: tokenization, fingerprints, language ID,
quality scoring. Pure, deterministic, vectorizable per batch.

Tokenization is the explicit ASCII-word regex ``[A-Za-z0-9_]+`` so the
DuckDB oracle (``regexp_extract_all(text, '[A-Za-z0-9_]+')``) computes
the identical token stream.
"""

from __future__ import annotations

import hashlib
import re

TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")

# tiny per-language stopword inventories for the n-gram/stopword
# language heuristic (public-knowledge closed-class words)
STOPWORDS = {
    "en": {"the", "and", "of", "a", "to", "in", "is", "that", "it", "for"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "zu", "mit", "von"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "es", "por", "con"},
    "fr": {"le", "la", "de", "et", "un", "est", "que", "pour", "dans", "sur"},
}
PUNCT = ".,!?;:"


def tokenize(text: str) -> list[str]:
    return TOKEN_RE.findall(text)


def normalize_text(text: str) -> str:
    # " ".join(split()) == re.sub(r"\s+"," ",..).strip() on every
    # codepoint (verified exhaustively); C path, ~4x faster
    return " ".join(text.split()).lower()


def fingerprint_md5(text: str) -> str:
    """Whole-document fingerprint: md5 of whitespace-normalized,
    lowercased text (SQL-equivalent:
    ``md5(lower(trim(regexp_replace(text, '\\s+', ' ', 'g'))))``)."""
    return hashlib.md5(normalize_text(text).encode("utf-8")).hexdigest()


def winnow_fingerprints(text: str, k: int = 5, window: int = 4) -> list[int]:
    """Winnowing document fingerprints (Schleimer/Wilkerson/Aiken,
    SIGMOD'03): rolling hash over k-grams of tokens, keep the min hash
    of each sliding window (rightmost min), dedup consecutive picks.

    The k-gram hash is ``md5 digest bytes [8:16], little-endian`` ==
    DuckDB's ``md5_number_lower`` (byte order verified empirically),
    so DuckDB can compute the same fingerprints exactly."""
    toks = tokenize(text.lower())
    if len(toks) < k:
        return []
    grams = (" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1))
    hashes = [
        int.from_bytes(hashlib.md5(g.encode()).digest()[8:16], "little") for g in grams
    ]
    out: list[int] = []
    last_pick = -1
    for i in range(max(1, len(hashes) - window + 1)):
        w = hashes[i : i + window]
        # min of the window; rightmost position on ties (standard winnowing)
        j_local = max(range(len(w)), key=lambda x: (-w[x], x))
        j = i + j_local
        if j != last_pick:
            out.append(w[j_local])
            last_pick = j
    return out


def detect_language(text: str) -> str:
    """Stopword-voting language ID over {en, de, es, fr} + a CJK
    codepoint check for zh. Deterministic tie-break by language code."""
    if any("一" <= ch <= "鿿" for ch in text[:2000]):
        return "zh"
    toks = tokenize(text.lower()[:4000])
    if not toks:
        return "unknown"
    scores = {
        lang: sum(1 for t in toks if t in sw) for lang, sw in STOPWORDS.items()
    }
    best = max(sorted(scores), key=lambda lang: scores[lang])
    return best if scores[best] > 0 else "unknown"


def quality_stats(text: str) -> dict:
    """Length / punctuation / stopword features + a composite score in
    [0, 1] (heuristics in the C4/Gopher-rules tradition)."""
    n_chars = len(text)
    toks = tokenize(text)
    n_tokens = len(toks)
    n_punct = sum(text.count(c) for c in PUNCT)
    mean_word_len = (sum(len(t) for t in toks) / n_tokens) if n_tokens else 0.0
    low = [t.lower() for t in toks]
    en_stop = STOPWORDS["en"]
    stop_ratio = (sum(1 for t in low if t in en_stop) / n_tokens) if n_tokens else 0.0
    alpha_ratio = (sum(1 for ch in text if ch.isalpha()) / n_chars) if n_chars else 0.0
    score = 0.0
    if n_tokens >= 10:
        score += 0.3
    if 3.0 <= mean_word_len <= 10.0:
        score += 0.3
    if stop_ratio >= 0.01:
        score += 0.2
    if alpha_ratio >= 0.6:
        score += 0.2
    # ratio features stay UNROUNDED: they are integer ratios, so the
    # SQL oracle's DOUBLE division produces the bit-identical IEEE
    # value (decimal rounding, by contrast, diverges between Python's
    # correctly-rounded half-even round() and DuckDB's scaled round)
    return {
        "n_chars": n_chars,
        "n_tokens": n_tokens,
        "n_punct": n_punct,
        "mean_word_len": mean_word_len,
        "stopword_ratio": stop_ratio,
        "alpha_ratio": alpha_ratio,
        "quality_score": round(score, 4),
    }
