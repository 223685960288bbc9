"""Compared techniques (paper section 8.2).

Three extensions of existing work, each addressing the ACQ problem to a
varying degree:

* :class:`~repro.baselines.topk.TopK` — rank tuples by refinement
  distance and take the first ``Aexp`` (ORDER BY ... LIMIT, COUNT only);
* :class:`~repro.baselines.binsearch.BinSearch` — binary-search one
  predicate bound at a time [Mishra, Koudas, Zuzarte, SIGMOD'08];
* :class:`~repro.baselines.tqgen.TQGen` — iterative grid zoom-in over
  the predicate space [same paper], exponential in dimensionality.

All of them execute *full* queries through the same evaluation layer
ACQUIRE uses, which is exactly how the paper implements its
comparisons ("we similarly implemented the compared techniques on top
of Postgres").
"""

from repro.baselines.base import BaselineTechnique, MethodRun
from repro.baselines.topk import TopK
from repro.baselines.binsearch import BinSearch
from repro.baselines.tqgen import TQGen

__all__ = [
    "BaselineTechnique",
    "MethodRun",
    "TopK",
    "BinSearch",
    "TQGen",
]
