"""Accumulations in a fixed order, or of integers: no hash-ordered-sum finding."""

from collections import defaultdict


def overlaps(weighter, query, postings, stats):
    overlap = defaultdict(float)
    for token in weighter.sort_tokens(query.tokens):  # global order
        for oid in postings[token]:
            overlap[oid] += weighter.weight(token)
    for token in query.tokens:  # integer counts add up alike in any order
        stats.lists_probed += 1
        stats.entries_retrieved += len(postings[token])
    total = 0.0
    for _, w in query.weighted:  # a list, not a set
        total += w
    return overlap, total
