"""Names that are not sets where the sum reads them: no hash-ordered-sum finding."""

import math


def overlap(weighter, query):
    q_tokens = query.tokens
    total = math.fsum(weighter.weight(t) for t in q_tokens)  # exact: order-free
    q_tokens = weighter.sort_tokens(q_tokens)  # rebound to a list in global order
    total += sum(weighter.weight(t) for t in q_tokens)
    weighted = query.weighted
    total += sum(w for _, w in weighted)  # a list, not a set
    return total


def elsewhere(weight, q_tokens):
    # A parameter: the name was bound to a set in another function only.
    return sum(weight(t) for t in q_tokens)
