"""Order-independent or ordered sums: none is a hash-ordered-sum finding."""

import math


def weights(weighter, a, b, counts):
    total = math.fsum([weighter.weight(t) for t in a & b])  # exact: order-free
    total += sum(weighter.weight(t) for t in weighter.sort_tokens(a & b))  # global order
    total += sum(len(t) for t in sorted(a | b))  # sorted first
    total += sum(counts.values())  # not a comprehension over a set
    total += sum(n for n in range(10))  # not a set
    return total
