"""A small, deterministic tokenizer for ROI descriptions.

The paper treats an object's textual side as a *set of tokens* (e.g., the
frequent words of a user's tweets).  Real LBS pipelines would apply heavier
NLP; for similarity search all that matters is producing a stable token
set, so we lowercase, split on non-alphanumerics and drop a tiny
stopword list.
"""

from __future__ import annotations

import re
from typing import FrozenSet

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: Words too common to carry signal in interest-tag corpora.  Deliberately
#: tiny — idf weighting already demotes frequent tokens; the stoplist only
#: removes glue words that would otherwise pollute every signature.
DEFAULT_STOPWORDS: frozenset[str] = frozenset(
    {
        "a", "an", "and", "are", "as", "at", "be", "but", "by", "for",
        "from", "has", "have", "i", "in", "is", "it", "its", "of", "on",
        "or", "that", "the", "this", "to", "was", "we", "were", "with",
        "you", "your",
    }
)


def tokenize(text: str) -> FrozenSet[str]:
    """Turn free text into the token *set* SEAL indexes.

    Args:
        text: Raw description, e.g. a tweet or an interest-tag line.

    Returns:
        A frozenset of lowercase alphanumeric tokens, stopwords dropped.

    Examples:
        >>> sorted(tokenize("Starbucks mocha, coffee & more coffee!"))
        ['coffee', 'mocha', 'more', 'starbucks']
    """
    return frozenset(_TOKEN_RE.findall(text.lower())) - DEFAULT_STOPWORDS
