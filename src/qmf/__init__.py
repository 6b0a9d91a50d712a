"""Exact quasimodular form arithmetic on Gamma0(N).

Subpackages build on each other roughly in this order: exact scalars,
Dirichlet characters, q-series, Eisenstein atoms, newforms, graded bases
and decomposition, prime-detecting series, and the command line front end.
"""

from .exact import CycNumber, bernoulli
from .qseries import EtaProduct, QSeries

__all__ = [
    "CycNumber",
    "EtaProduct",
    "QSeries",
    "bernoulli",
]
