"""MacMahon partition tables, prime-detecting combinations, and censuses.

The table side computes M_a(n), the weighted count of chains
0 < s_1 < ... < s_a with multiplicities, whose generating series U_a(q)
stacks factors q^s/(1-q^s)^2, by MacMahon's recurrence in the chain
length (Andrews-Rose, J. reine angew. Math. 676, 2013).  The series side
builds the restricted divisor sums G_k^{(N)} and their D-combinations
f_{k,l}^{(N)}, checks the prime-detecting property coefficient by
coefficient, and runs exhaustive prime-vanishing censuses with an
informational density bound.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

from ._record import Record
from .qseries import InsufficientPrecisionError, QSeries, _convolve
from .scalars import primes_upto

__all__ = [
    "CensusReport",
    "DetectReport",
    "MacMahonTable",
    "census",
    "f_kl",
    "g_series",
    "macmahon",
    "prime_detect_verdict",
    "validate_census",
    "validate_detect",
]


class MacMahonTable(Record):
    """Exact values M_a(n) for 0 <= n < precision."""

    __slots__ = ("a", "precision", "values")

    def value(self, n: int) -> int:
        if not 0 <= n < self.precision:
            raise IndexError(f"M_{self.a}({n}) is beyond this table")
        return self.values[n]

    def series(self) -> QSeries:
        return QSeries(self.values, self.precision)


# Bound on the memoised tables: the chain lengths one form names (the
# README's prime test names two), and few enough that tables near the
# precision cap do not pile up in a long-lived process.
_MACMAHON_CACHE_SIZE = 4


@functools.lru_cache(maxsize=_MACMAHON_CACHE_SIZE)
def macmahon(a: int, precision: int) -> MacMahonTable:
    """Tabulate M_a(n) for n < precision by MacMahon's recurrence

        U_k = ((6 U_1 + k(k-1)) U_{k-1} - 2 D U_{k-1}) / (2k(2k+1)),

    U_1 = sum sigma_1(n) q^n, as Andrews-Rose state it (J. reine angew.
    Math. 676, 2013): one divisor sieve and a-1 integer products, each
    divided exactly.  U_a has valuation a(a+1)/2, so a longer chain than
    the precision allows is the zero table without any product.  Tables
    are immutable and memoised, so a form that names U[a] several times
    tabulates it once.
    """
    if a < 1:
        raise ValueError("chain length a must be positive")
    if precision < 2:
        raise ValueError("need precision at least 2")
    P = precision
    floor = a * (a + 1) // 2  # smallest sum an a-chain can reach
    if floor >= P:
        return MacMahonTable(a, P, (0,) * P)
    vals = _divisor_sums(1, 1, P)
    six_u1 = [6 * c for c in vals]
    for k in range(2, a + 1):
        shift, den = k * (k - 1), 2 * k * (2 * k + 1)
        step = []
        for n, (x, y) in enumerate(zip(_convolve(six_u1, vals, P), vals)):
            q, rem = divmod(x + (shift - 2 * n) * y, den)
            if rem:
                raise ArithmeticError("MacMahon recurrence lost integrality")
            step.append(q)
        vals = step
    assert not any(vals[:floor]), "chain sum below the minimal triangle"
    assert min(vals) >= 0
    return MacMahonTable(a, P, tuple(vals))


def g_series(k: int, N: int, precision: int) -> QSeries:
    """Sum over n of (sum of d^(k-1) for d | n with gcd(n/d, N) = 1) q^n."""
    if k < 2 or k % 2:
        raise ValueError("weight k must be even and at least 2")
    if N < 1:
        raise ValueError("level must be positive")
    return QSeries(_divisor_sums(k - 1, N, precision), precision)


def _divisor_sums(power: int, N: int, precision: int) -> list[int]:
    """Sum of d^power over d | n with gcd(n/d, N) = 1, for n < precision."""
    coeffs = [0] * precision
    for d in range(1, precision):
        dk = d**power
        for n in range(d, precision, d):
            if math.gcd(n // d, N) == 1:
                coeffs[n] += dk
    return coeffs


def f_kl(k: int, l: int, N: int, precision: int) -> QSeries:
    """The weight-(l+2) combination (D^l + 1)G_{k+1} - (D^k + 1)G_{l+1}."""
    if k < 1 or k % 2 == 0 or l % 2 == 0:
        raise ValueError("k and l must be positive odd integers")
    if l <= k:
        raise ValueError("need l > k")
    gk = g_series(k + 1, N, precision)
    gl = g_series(l + 1, N, precision)
    return (gk.apply_D(l) + gk) - (gl.apply_D(k) + gl)


class DetectReport(Record):
    """Both directions of the prime-detecting check up to a bound."""

    __slots__ = ("level", "bound", "vanishing_failures", "nonvanishing_failures")

    @property
    def ok(self) -> bool:
        return not self.vanishing_failures and not self.nonvanishing_failures

    def report_text(self) -> str:
        if self.ok:
            return f"prime-detecting (n <= {self.bound}, level {self.level})"
        lines = [f"not prime-detecting (n <= {self.bound}, level {self.level})"]
        if self.vanishing_failures:
            shown = " ".join(str(p) for p in self.vanishing_failures[:20])
            lines.append(
                f"nonzero at {len(self.vanishing_failures)} primes coprime "
                f"to the level: {shown}"
            )
        if self.nonvanishing_failures:
            shown = " ".join(str(n) for n in self.nonvanishing_failures[:20])
            lines.append(
                f"zero at {len(self.nonvanishing_failures)} indices that are "
                f"composite or divide the level: {shown}"
            )
        return "\n".join(lines)


def validate_detect(N: int, X: int) -> None:
    """Raise ValueError unless (N, X) is a level and a non-vacuous bound."""
    if N < 1:
        raise ValueError("level must be positive")
    if X < 2:
        raise ValueError("detect bound X must be at least 2")


def _scan(f: QSeries, N: int, X: int) -> tuple[list[int], list[int], list[int]]:
    """Sort 2 <= n <= X by whether a_f(n) = 0: the primes p not dividing N
    with a_f(p) = 0, those with a_f(p) != 0, and the other n with
    a_f(n) = 0.  A coefficient is zero when every power-basis coordinate
    of its numerator is, so the scan reads f's integers and builds no
    CycNumber."""
    if f.precision <= X:
        raise InsufficientPrecisionError(X + 1, f.precision, "input series")
    _, nums = f.numerators()
    nonzero = list(map(any, zip(*(t[: X + 1] for t in nums))))
    eligible = {p for p in primes_upto(X) if N % p}
    zero_primes, nonzero_primes, other_zeros = [], [], []
    for n in range(2, X + 1):
        if n in eligible:
            (nonzero_primes if nonzero[n] else zero_primes).append(n)
        elif not nonzero[n]:
            other_zeros.append(n)
    return zero_primes, nonzero_primes, other_zeros


def prime_detect_verdict(f: QSeries, N: int, X: int) -> DetectReport:
    """Is a_f(n) = 0 exactly at the primes not dividing N, for 2 <= n <= X?"""
    validate_detect(N, X)
    _, nonzero_primes, other_zeros = _scan(f, N, X)
    return DetectReport(N, X, nonzero_primes, other_zeros)


class CensusReport(Record):
    """Exhaustive tally of vanishing prime coefficients up to X.

    The density bound X/log X / eps(X)^delta is informational; delta is a
    report parameter, nothing asserts the bound.  hypothesis_met records
    whether some a(p) with p coprime to the level was nonzero, the
    nonvanishing hypothesis behind the density statement.
    """

    __slots__ = ("x", "level", "delta_text", "zero_primes", "nonzero_count",
                 "eligible_count", "epsilon_value", "bound_value")

    @property
    def zero_count(self) -> int:
        return len(self.zero_primes)

    @property
    def nonzero_density(self) -> Fraction:
        return Fraction(self.nonzero_count, self.eligible_count)

    @property
    def hypothesis_met(self) -> bool:
        return self.nonzero_count > 0

    def report_text(self) -> str:
        lines = [
            f"X={self.x} N={self.level} delta={self.delta_text}",
            f"zeros: {self.zero_count}",
        ]
        shown = self.zero_primes[:100]
        line = "zero_list:"
        if shown:
            line += " " + " ".join(str(p) for p in shown)
        if self.zero_count > 100:
            line += f" ... (+{self.zero_count - 100} more)"
        lines.append(line)
        lines.append(f"nonzero_density: {self.nonzero_density}")
        lines.append(f"bound: {self.bound_value:.6f}")
        if not self.hypothesis_met:
            lines.append(
                "note: nonvanishing hypothesis unmet; a(p) = 0 at every "
                "prime p <= X coprime to the level"
            )
        return "\n".join(lines)


def epsilon_bound(X: int) -> float:
    """(log X)(log log X)^-2 (log log log X)^-1, defined once X >= 100."""
    if X < 100:
        raise ValueError("X must be at least 100")
    lx = math.log(X)
    llx = math.log(lx)
    lllx = math.log(llx)
    return lx / (llx * llx * lllx)


def validate_census(N: int, X: int, delta) -> Fraction:
    """Raise ValueError unless (N, X, delta) are valid census parameters;
    returns delta as a Fraction."""
    if N < 1:
        raise ValueError("level must be positive")
    if X < 100:
        raise ValueError("census bound X must be at least 100")
    delta_fraction = Fraction(str(delta))
    if delta_fraction <= 0:
        raise ValueError("delta must be positive")
    return delta_fraction


def census(f: QSeries, N: int, X: int, delta) -> CensusReport:
    """Count primes p <= X, p coprime to N, with a_f(p) = 0, exactly."""
    delta_fraction = validate_census(N, X, delta)
    zero_primes, nonzero_primes, _ = _scan(f, N, X)
    eps = epsilon_bound(X)
    # eps ** delta in log space: a huge delta underflows the bound to 0
    # instead of overflowing the power (or the float of delta itself)
    try:
        log_power = float(delta_fraction) * math.log(eps)
    except OverflowError:
        log_power = math.inf
    bound = X / math.log(X) * math.exp(-log_power)
    nonzero = len(nonzero_primes)
    eligible = len(zero_primes) + nonzero
    return CensusReport(
        X, N, str(delta), zero_primes, nonzero, eligible, eps, bound
    )
