"""Exact quasimodular form arithmetic on Gamma0(N).

Subpackages build on each other roughly in this order: exact scalars
(`scalars`), the exact eliminator (`exact`), Dirichlet characters,
q-series, Eisenstein atoms, newforms, graded bases and decomposition, and
the command line front end.  Prime-detecting series, censuses and
MacMahon tables (`detect`) sit directly on the scalars and q-series, and
the exceptions that several layers raise live in `errors`, below all of
them.  Importing `qmf.cli` loads only scalars, qseries and errors; each
command imports the other layers when it runs them.  So census, detect
and macmahon load detect but never the eliminator, characters,
eisenstein, newforms or quasimodular, and expand, decompose, basis and
newforms load no detect unless a form names G[...] or U[...].
"""

from .qseries import EtaProduct, QSeries
from .scalars import CycNumber, bernoulli

__all__ = [
    "CycNumber",
    "EtaProduct",
    "QSeries",
    "bernoulli",
]
