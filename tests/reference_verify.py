"""The verifier's exact spatial decision, without Lemma 1's reject
(test-only oracle).

:class:`~repro.core.verification.Verifier` drops a candidate whose box
misses the query's, or whose area lies outside ``[c_R, |q|/τR]``, before
its exact spatial check — on both branches, so a test comparing the loop
with the kernel would pass with an unsound reject.  This module keeps the
per-object decision as it stood before the reject: the intersection and
union of two :class:`~repro.geometry.Rect` s, ``inter < τR · union``
when the union is positive, and the degenerate case otherwise.  The
differential tests require every verifier path to keep exactly the
objects this keeps.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.objects import Query, SpatioTextualObject


def spatial_keeps(query: Query, obj: SpatioTextualObject) -> bool:
    """Whether ``obj`` passes the spatial threshold of ``query``.  A NaN
    (an infinite region: ``0·inf``, ``inf − inf``) drops nothing: only a
    true comparison does."""
    q_rect = query.region
    region = obj.region
    inter = q_rect.intersection_area(region)
    union = q_rect.area + region.area - inter
    if union > 0.0:
        return not inter < query.tau_r * union
    # Two degenerate regions: similar only when identical.
    return q_rect == region or not query.tau_r > 0.0


def spatial_survivors(query: Query, corpus: Sequence[SpatioTextualObject]) -> List[int]:
    """The oids of ``corpus`` (in order) passing the spatial threshold."""
    return [obj.oid for obj in corpus if spatial_keeps(query, obj)]
