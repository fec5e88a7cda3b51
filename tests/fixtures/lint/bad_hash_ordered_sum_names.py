"""Seeded hash-ordered-sum violations: a sum over a name bound to a set."""


def overlap(weight, query, obj):
    q_tokens = query.tokens
    total = sum(weight(t) for t in q_tokens)  # line 6: bound to a .tokens attribute
    common = q_tokens & obj.tokens
    total += sum([weight(t) for t in common])  # line 8: bound to a set expression
    total += sum(weight(t) for t in obj.tokens)  # line 9: a .tokens attribute itself
    return total
