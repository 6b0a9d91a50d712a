"""Output checks for the benchmark workloads, and the failure tally.

Every check returns a reason string when the output is wrong and None when
it is right.  The checks know the answers from the inputs the benchmark
generated, from brute force, or from golden copies under ``golden/``; none
of them calls the library under test.
"""
from __future__ import annotations

from fractions import Fraction
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

CENSUS_X = 20000


class Tally:
    """Attempted and failed operations of one run, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, reason: str | None) -> bool:
        self.attempted += 1
        if reason is None:
            return True
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(f"{what}: {reason}")
        return False

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def parse_fraction(text: str) -> Fraction | None:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return None


def check_decompose_report(stdout: str, want: dict[str, Fraction]) -> str | None:
    """`qmf decompose` must print exactly the seeded nonzero coordinates
    (rational, so one power-basis coordinate each) and `residual: none`."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines or lines[-1] != "residual: none":
        return "no `residual: none` line"
    got: dict[str, Fraction] = {}
    for line in lines[:-1]:
        head, sep, value = line.rpartition(" : ")
        parts = head.split(" ", 1)
        coeff = parse_fraction(value)
        if not sep or len(parts) != 2 or coeff is None:
            return f"unparseable line {line!r}"
        got[parts[1]] = coeff
    if got != want:
        extra = sorted(set(got) ^ set(want))[:3]
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])[:3]
        return f"coordinates differ (atoms {extra}, values {wrong})"
    return None


def check_coordinates(items, want: dict[str, Fraction], residual: bool) -> str | None:
    """Library decompose result: items are (spec text, rational value or
    None when not rational) pairs over the whole basis."""
    if residual:
        return "residual reported"
    got = dict(items)
    for spec in want.keys() - got.keys():
        return f"atom {spec} missing from the result"
    for spec, value in got.items():
        expected = want.get(spec, Fraction(0))
        if value is None or value != expected:
            return f"coordinate of {spec} is {value}, want {expected}"
    return None


def check_census_report(stdout: str, x: int, level: int, delta: str) -> str | None:
    """c*Delta with c != 0 has tau(p) != 0 for every prime p <= X (Lehmer's
    conjecture is verified far beyond any X used here), so the census finds
    no zeros and a nonzero density of exactly 1."""
    lines = stdout.splitlines()
    expect = [f"X={x} N={level} delta={delta}", "zeros: 0", "zero_list:",
              "nonzero_density: 1"]
    if lines[:4] != expect:
        return f"census header {lines[:4]!r}"
    if len(lines) != 5 or not lines[4].startswith("bound: "):
        return "census report shape"
    return None


def check_detect_report(stdout: str, x: int, level: int) -> str | None:
    if stdout.strip() != f"prime-detecting (n <= {x}, level {level})":
        return f"verdict {stdout.strip()[:80]!r}"
    return None


def brute_macmahon(a: int, limit: int) -> list[int]:
    """M_a(n) for n < limit by enumerating chains s_1 < ... < s_a and
    multiplicities m_i >= 1, weighting each by m_1 * ... * m_a."""
    out = [0] * limit

    def walk(parts_left, smallest, total, weight):
        if parts_left == 0:
            out[total] += weight
            return
        for s in range(smallest, limit):
            # the remaining parts are all larger than s
            floor = total + s * parts_left + parts_left * (parts_left - 1) // 2
            if floor >= limit:
                break
            m = 1
            while total + m * s < limit:
                walk(parts_left - 1, s + 1, total + m * s, weight * m)
                m += 1

    walk(a, 1, 0, 1)
    return out


def check_macmahon_row(stdout: str, a: int, brute_limit: int, golden: str) -> str | None:
    """Small values against chain enumeration, the whole row against the
    golden copy."""
    row = stdout.strip()
    values = {}
    for token in row.split():
        n, _, v = token.partition(":")
        if not (n.isdigit() and v.isdigit()):
            return f"unparseable token {token!r}"
        values[int(n)] = int(v)
    brute = brute_macmahon(a, brute_limit)
    for n in range(brute_limit):
        if values.get(n, 0) != brute[n]:
            return f"M_{a}({n}) = {values.get(n, 0)}, chain count {brute[n]}"
    if row != (GOLDEN / golden).read_text().strip():
        return "row differs from the golden copy"
    return None


def prime_count(x: int) -> int:
    """pi(x) by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (x + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, int(x ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, x + 1, p)))
    return sum(sieve)


def check_census_eligible(count: int | None, x: int = CENSUS_X) -> str | None:
    """The traced census reports how many primes it scanned: pi(X)."""
    want = prime_count(x)
    if count != want:
        return f"census scanned {count} primes, pi({x}) is {want}"
    return None
