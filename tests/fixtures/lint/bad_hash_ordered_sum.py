"""Seeded hash-ordered-sum violations: float sums in a set's hash order."""


def weights(weight, a, b, tokens):
    total = sum(weight(t) for t in a & b)  # line 5: intersection
    total += sum(weight(t) for t in a | b)  # line 6: union
    total += sum(weight(t) for t in a - b)  # line 7: difference
    total += sum(weight(t) for t in a ^ b)  # line 8: symmetric difference
    total += sum(weight(t) for t in set(tokens))  # line 9: set() call
    total += sum(weight(t) for t in frozenset(tokens))  # line 10: frozenset() call
    total += sum(weight(t) for t in {"x", "y"})  # line 11: set literal
    total += sum([weight(t) for t in {t for t in tokens}])  # line 12: set comprehension
    return total
