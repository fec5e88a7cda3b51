"""Clean threshold-contract usage: every bound goes through filter_threshold."""

from repro.core import similarity
from repro.core.similarity import filter_threshold


def bounds(query, q_total, q2, union_w, tau_t):
    c_t = filter_threshold(query.tau_t, q_total)
    c_r = similarity.filter_threshold(query.tau_r, query.region.area)
    cosine = filter_threshold(query.tau_t * query.tau_t, q2)  # the product is the τ argument
    keyword = filter_threshold(tau=tau_t, total=union_w)
    spread = query.tau_r + query.tau_t  # not a product
    return c_t, c_r, cosine, keyword, spread, 2.0 * q_total
