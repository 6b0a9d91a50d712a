"""Exact quasimodular form arithmetic on Gamma0(N).

Subpackages build on each other roughly in this order: exact scalars,
Dirichlet characters, q-series, Eisenstein atoms, newforms, graded bases
and decomposition, and the command line front end.  Prime-detecting
series, censuses and MacMahon tables (`detect`) sit directly on exact
scalars and q-series, and the exceptions that several layers raise live
in `errors`, below all of them.  Importing `qmf.cli` loads only exact,
qseries, errors and detect; each command imports characters, eisenstein,
newforms or quasimodular when it needs them, so census, detect and
macmahon never load those four.
"""

from .exact import CycNumber, bernoulli
from .qseries import EtaProduct, QSeries

__all__ = [
    "CycNumber",
    "EtaProduct",
    "QSeries",
    "bernoulli",
]
