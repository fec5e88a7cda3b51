"""Seeded hash-ordered-sum violations: += accumulation in a set's hash order."""

from collections import defaultdict


def overlaps(weight, query, postings, stats):
    overlap = defaultdict(float)
    for token in query.tokens:
        stats.lists_probed += 1
        stats.entries_retrieved += len(postings[token])
        for oid in postings[token]:
            overlap[oid] += weight(token)  # line 12: over a .tokens attribute
    total = 0.0
    common = set(overlap) & set(postings)
    for key in common:
        total += weight(key)  # line 16: over a name bound to a set expression
    return overlap, total
