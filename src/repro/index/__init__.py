"""Inverted-index substrate with threshold bounds (Sections 3.2, 4.2, 5.1).

Signature filtering probes inverted lists mapping signature elements to
objects.  The threshold-aware variant augments each posting with the
Lemma 3 suffix bound and keeps lists sorted descending by bound, so a
probe with threshold ``c`` touches exactly the qualifying head of the
list (found by binary search).  Hybrid lists carry two bounds (spatial and
textual).  There is one storage layout and one loader:
:class:`~repro.index.inverted.InvertedIndex` holds every list of an index
in CSR columns, built from flat posting columns by
:meth:`~repro.index.inverted.InvertedIndex.from_postings` and probed by
vectorised kernels; the per-list reference it is tested against lives in
``tests/reference_postings.py``.  :mod:`repro.index.storage` provides the
byte-accounting model behind Table 1's index sizes.
"""

from repro.index.inverted import InvertedIndex

__all__ = ["InvertedIndex"]
