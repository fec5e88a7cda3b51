"""Seeded threshold-contract violations: filter bounds formed inline."""


def bounds(query, q_total, union_w, tau_t):
    c_t = query.tau_t * q_total  # line 5: attribute times a total
    c_r = query.region.area * query.tau_r  # line 6: the total first
    scaled = q_total
    scaled *= tau_t  # line 8: augmented product
    squared = filter_threshold(1.0, query.tau_t * query.tau_t) * (tau_t * union_w)  # line 9
    return c_t, c_r, scaled, squared


def filter_threshold(tau, total):
    return tau * total
