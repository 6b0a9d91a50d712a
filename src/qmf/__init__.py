"""Exact quasimodular form arithmetic on Gamma0(N).

Subpackages build on each other roughly in this order: exact scalars
(`scalars`), the exact eliminator (`exact`), Dirichlet characters,
q-series, Eisenstein atoms, the newform catalog (`newforms`) and the
derivation of the spaces it lacks (`derive`), graded bases and
decomposition, and the command line front end.  Prime-detecting series, censuses and
MacMahon tables (`detect`) sit directly on the scalars and q-series.
Below every layer are the exceptions that several of them raise
(`errors`) and the immutable value base that every value class shares,
QSeries and CycNumber too (`_record`).  Importing `qmf.cli` loads only
scalars, qseries, _record and errors; each command imports the other
layers when it runs them.  So census, detect and macmahon load detect but
never the eliminator, characters, eisenstein, newforms or quasimodular,
and expand, decompose, basis and newforms load no detect unless a form
names G[...] or U[...].  A newform of a built-in or ingested space loads
newforms alone; only a space that must be derived loads derive, and with
it the eliminator, characters and eisenstein.
"""

from .qseries import EtaProduct, QSeries
from .scalars import CycNumber, bernoulli

__all__ = [
    "CycNumber",
    "EtaProduct",
    "QSeries",
    "bernoulli",
]
