"""Signature elements as int64 codes, from build to probe.

* a token's code is its id in the index's own vocabulary — never the
  weighter's rank, which a stale weighter gives every token it has not
  seen (−1), so those tokens would merge into one list;
* ``hash-hybrid`` buckets are a fixed integer mix of the pair's code,
  and every index's code column is the same in every process, whatever
  ``PYTHONHASHSEED`` says;
* ``seal`` packs ``(token, level, row, col)`` and refuses a code space
  int64 cannot hold;
* nothing but integers reaches :class:`InvertedIndex`.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import Rect, TokenWeighter, build_method, make_corpus
from repro.core.errors import ConfigurationError
from repro.datasets import generate_queries, generate_twitter
from repro.filters.hybrid_filter import bucket
from repro.grid.hierarchy import GridHierarchy, cell_code
from repro.index.inverted import InvertedIndex

MASK = (1 << 64) - 1


def splitmix64_finaliser(z: int) -> int:
    """The mix :func:`bucket` applies, in plain Python integers."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def test_bucket_is_the_fixed_mix_mod_num_buckets():
    codes = [0, 1, 2, 65535, 123456789, 2**40 + 17, 2**62 + 5]
    for num_buckets in (1, 7, 97, 4096):
        got = bucket(np.array(codes), num_buckets).tolist()
        assert got == [splitmix64_finaliser(code) % num_buckets for code in codes]
    # Neighbouring codes (one token's cells) spread over the buckets.
    assert len(set(bucket(np.arange(4096), 97).tolist())) == 97


def test_cell_code_numbers_the_tree_breadth_first():
    hierarchy = GridHierarchy(Rect(0, 0, 1, 1), 3)
    cells = [(level, row, col) for level in range(4)
             for row in range(1 << level) for col in range(1 << level)]
    assert [cell_code(*cell) for cell in cells] == list(range(hierarchy.num_cells))
    level, row, col = np.array(cells).T
    assert cell_code(level, row, col).tolist() == list(range(hierarchy.num_cells))


def test_seal_refuses_a_code_space_int64_cannot_hold():
    corpus = make_corpus([(Rect(0, 0, 1, 1), {"a", "b"}), (Rect(1, 1, 2, 2), {"b"})])
    build_method(corpus, "seal", max_level=30)  # 2 × 4^31/3 codes: fits
    with pytest.raises(ConfigurationError, match="64-bit element code"):
        build_method(corpus, "seal", max_level=31)


def test_only_integers_reach_the_index():
    for key in ("tea", ("tea", 3)):
        with pytest.raises((TypeError, ValueError)):
            InvertedIndex.from_postings([key], [0], [1.0])


def test_a_stale_weighter_does_not_merge_tokens_it_never_saw():
    """A segment indexes under corpus-wide weights that may predate its
    tokens: each still gets a list of its own, and answers stay the
    naive scan's under that weighter."""
    corpus = generate_twitter(300, seed=9)
    stale = TokenWeighter(obj.tokens for obj in generate_twitter(300, seed=10)[:20])
    vocabulary = {token for obj in corpus for token in obj.tokens}
    assert sum(token not in stale for token in vocabulary) > 50
    naive = build_method(corpus, "naive", stale)
    queries = [
        query for tau in (0.1, 0.3)
        for query in generate_queries(corpus, "small", num_queries=8, seed=4, tau_r=tau,
                                      tau_t=tau)
    ]
    for name, knobs in (("token", {}), ("keyword-first", {}), ("seal", {"max_level": 5}),
                        ("hash-hybrid", {"granularity": 32})):
        method = build_method(corpus, name, stale, **knobs)
        assert sorted(method.token_ids) == sorted(vocabulary)
        assert sorted(method.token_ids.values()) == list(range(len(vocabulary)))
        if name in ("token", "keyword-first"):
            assert len(method.index) == len(vocabulary)
        for query in queries:
            assert method.search(query).answers == naive.search(query).answers, name


_DIGEST = """
import hashlib
from repro import build_method
from repro.datasets import generate_twitter
corpus = generate_twitter(400, seed=3)
digest = hashlib.sha256()
for name, knobs in (("token", {}), ("keyword-first", {}), ("grid", {}),
                    ("hash-hybrid", {"granularity": 32, "num_buckets": 257}),
                    ("seal", {"max_level": 5})):
    index = build_method(corpus, name, **knobs).index
    for column in (index.codes, index.offsets, index.oids, index.neg_bounds):
        digest.update(column.tobytes())
print(digest.hexdigest())
"""


def test_indexes_do_not_depend_on_the_hash_seed():
    src = Path(__file__).resolve().parent.parent / "src"
    digests = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        run = subprocess.run([sys.executable, "-c", _DIGEST], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        digests.add(run.stdout.strip())
    assert len(digests) == 1 and len(digests.pop()) == 64
