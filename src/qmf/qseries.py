"""Truncated q-expansions with exact cyclotomic coefficients.

A QSeries stores coefficients for exponents 0..precision-1.  Arithmetic
tracks precision as the min of the operands and embeds coefficients into
Q(zeta_lcm) as needed.  Eta products expand through the Miller power
recurrence applied to the sparse pentagonal-number series, so powers like
eta(tau)^24 stay cheap far beyond desk precision.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, TextIO

from .exact import CycNumber, format_cyc

__all__ = [
    "EtaProduct",
    "QSeries",
    "delta_eta",
    "dump_qseries",
    "load_qseries",
]

_ZERO = CycNumber.zero()


def _wrap(value) -> CycNumber:
    if isinstance(value, CycNumber):
        return value
    return CycNumber.from_rational(value)


class QSeries:
    """A q-expansion truncated at a stated precision.

    precision P means coefficients of q^0 .. q^(P-1) are known exactly;
    everything at or beyond q^P is unknown, not zero.
    """

    __slots__ = ("precision", "conductor", "_coeffs")

    def __init__(self, coeffs: Iterable, precision: int | None = None):
        cs = [_wrap(c) for c in coeffs]
        if precision is None:
            precision = len(cs)
        if precision < 1:
            raise ValueError("precision must be at least 1")
        if len(cs) > precision:
            raise ValueError("more coefficients than precision allows")
        cs.extend(_ZERO for _ in range(precision - len(cs)))
        conductor = 1
        for c in cs:
            conductor = math.lcm(conductor, c.conductor)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "_coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(precision: int) -> "QSeries":
        return QSeries([], precision)

    @staticmethod
    def constant(value, precision: int) -> "QSeries":
        return QSeries([_wrap(value)], precision)

    @staticmethod
    def from_dict(entries: dict[int, object], precision: int) -> "QSeries":
        cs = [_ZERO] * precision
        for n, c in entries.items():
            if not 0 <= n < precision:
                raise ValueError(f"exponent {n} outside precision {precision}")
            cs[n] = _wrap(c)
        return QSeries(cs, precision)

    # -- access ------------------------------------------------------------
    def coefficient(self, n: int) -> CycNumber:
        if not 0 <= n < self.precision:
            raise IndexError(
                f"coefficient q^{n} requested but precision is {self.precision}"
            )
        return self._coeffs[n]

    def coefficients(self) -> tuple[CycNumber, ...]:
        return self._coeffs

    def items(self) -> Iterator[tuple[int, CycNumber]]:
        """Nonzero (exponent, coefficient) pairs in exponent order."""
        for n, c in enumerate(self._coeffs):
            if not c.is_zero():
                yield n, c

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._coeffs)

    def valuation(self) -> int | None:
        """Lowest exponent with nonzero coefficient, None for the zero truncation."""
        for n, c in enumerate(self._coeffs):
            if not c.is_zero():
                return n
        return None

    # -- arithmetic ----------------------------------------------------------
    def _binary(self, other, op) -> "QSeries":
        if not isinstance(other, QSeries):
            other = QSeries.constant(other, self.precision)
        p = min(self.precision, other.precision)
        return QSeries(
            [op(a, b) for a, b in zip(self._coeffs[:p], other._coeffs[:p])], p
        )

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return QSeries([-c for c in self._coeffs], self.precision)

    def scale(self, factor) -> "QSeries":
        factor = _wrap(factor)
        return QSeries([factor * c for c in self._coeffs], self.precision)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            return self.scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        p = min(self.precision, other.precision)
        if self.conductor == 1 and other.conductor == 1:
            xs = [c.coords[0] for c in self._coeffs[:p]]
            ys = [c.coords[0] for c in other._coeffs[:p]]
            out = [Fraction(0)] * p
            for i, x in enumerate(xs):
                if x:
                    lim = p - i
                    for j, y in enumerate(ys[:lim]):
                        if y:
                            out[i + j] += x * y
            return QSeries([CycNumber(1, (v,)) for v in out], p)
        out = [_ZERO] * p
        for i, x in enumerate(self._coeffs[:p]):
            if not x.is_zero():
                for j, y in enumerate(other._coeffs[: p - i]):
                    if not y.is_zero():
                        out[i + j] = out[i + j] + x * y
        return QSeries(out, p)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            return self.scale(other)
        return NotImplemented

    # -- operators ----------------------------------------------------------
    def apply_D(self, r: int = 1) -> "QSeries":
        """(q d/dq)^r: multiplies the q^n coefficient by n^r."""
        if r < 0:
            raise ValueError("derivative order must be nonnegative")
        if r == 0:
            return self
        return QSeries(
            [c * n**r for n, c in enumerate(self._coeffs)], self.precision
        )

    def dilate(self, t: int, precision: int | None = None) -> "QSeries":
        """Substitute q -> q^t; known precision grows to t * precision."""
        if t < 1:
            raise ValueError("dilation factor must be positive")
        full = self.precision * t
        target = full if precision is None else min(precision, full)
        out = [_ZERO] * target
        for n, c in enumerate(self._coeffs):
            if n * t >= target:
                break
            out[n * t] = c
        return QSeries(out, target)

    def truncate(self, precision: int) -> "QSeries":
        if precision >= self.precision:
            return self
        return QSeries(self._coeffs[:precision], precision)

    def embed(self, conductor: int) -> "QSeries":
        if conductor == self.conductor:
            return self
        return QSeries([c.embed(conductor) for c in self._coeffs], self.precision)

    # -- comparison and display ----------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.precision == other.precision and all(
            a == b for a, b in zip(self._coeffs, other._coeffs)
        )

    __hash__ = None

    def agrees_with(self, other: "QSeries") -> bool:
        """Equality on the shared prefix of known coefficients."""
        p = min(self.precision, other.precision)
        return all(a == b for a, b in zip(self._coeffs[:p], other._coeffs[:p]))

    def __repr__(self) -> str:
        shown = []
        for n, c in self.items():
            shown.append(f"{format_cyc(c)}*q^{n}" if n else format_cyc(c))
            if len(shown) == 6:
                shown.append("...")
                break
        body = " + ".join(shown) if shown else "0"
        return f"QSeries({body} + O(q^{self.precision}))"


# ---------------------------------------------------------------------------
# eta products

def _pentagonal_support(limit: int, step: int) -> list[tuple[int, int]]:
    """Sparse support of prod(1 - q^(step*n)): pairs (exponent, sign)."""
    out = []
    k = 1
    while True:
        e1 = step * (k * (3 * k - 1) // 2)
        if e1 >= limit:
            break
        s = -1 if k % 2 else 1
        out.append((e1, s))
        e2 = step * (k * (3 * k + 1) // 2)
        if e2 < limit:
            out.append((e2, s))
        k += 1
    return out


def _euler_power(step: int, power: int, precision: int) -> list[int]:
    """Integer coefficients of prod_{n>=1} (1 - q^(step*n))^power.

    Uses the Miller recurrence n*f_n = sum_j ((power+1)*j - n) g_j f_{n-j}
    over the sparse pentagonal support g; cost O(P * sqrt(P/step)).
    """
    support = _pentagonal_support(precision, step)
    f = [0] * precision
    f[0] = 1
    m1 = power + 1
    for n in range(1, precision):
        acc = 0
        for j, s in support:
            if j > n:
                break
            term = (m1 * j - n) * f[n - j]
            acc += term if s > 0 else -term
        q, rem = divmod(acc, n)
        if rem:
            raise ArithmeticError("eta power recurrence lost integrality")
        f[n] = q
    return f


def _int_convolve(a: list[int], b: list[int], precision: int) -> list[int]:
    out = [0] * precision
    for i, x in enumerate(a):
        if x:
            lim = precision - i
            for j in range(min(len(b), lim)):
                y = b[j]
                if y:
                    out[i + j] += x * y
    return out


class EtaProduct:
    """A finite product of eta(d*tau)^e factors."""

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[tuple[int, int]]):
        merged: dict[int, int] = {}
        for d, e in factors:
            if d < 1:
                raise ValueError("eta argument multiplier must be positive")
            merged[d] = merged.get(d, 0) + e
        cleaned = tuple(sorted((d, e) for d, e in merged.items() if e))
        if not cleaned:
            raise ValueError("eta product needs at least one factor")
        object.__setattr__(self, "factors", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("EtaProduct is immutable")

    @property
    def weight(self) -> Fraction:
        return Fraction(sum(e for _, e in self.factors), 2)

    @property
    def leading_exponent(self) -> Fraction:
        return Fraction(sum(d * e for d, e in self.factors), 24)

    def expand(self, precision: int) -> QSeries:
        lead = self.leading_exponent
        if lead.denominator != 1 or lead < 0:
            raise ValueError(
                f"eta product has leading exponent {lead}; expansion needs a nonnegative integer"
            )
        shift = int(lead)
        if shift >= precision:
            return QSeries.zero(precision)
        body = precision - shift
        acc: list[int] | None = None
        for d, e in self.factors:
            part = _euler_power(d, e, body)
            acc = part if acc is None else _int_convolve(acc, part, body)
        coeffs = [0] * shift + acc
        return QSeries([CycNumber(1, (Fraction(c),)) for c in coeffs], precision)

    def __eq__(self, other) -> bool:
        return isinstance(other, EtaProduct) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def spec_text(self) -> str:
        return "eta[" + ",".join(f"{d}^{e}" for d, e in self.factors) + "]"

    def __repr__(self) -> str:
        inner = " ".join(f"eta({d}t)^{e}" for d, e in self.factors)
        return f"EtaProduct({inner})"


def delta_eta() -> EtaProduct:
    """The weight-12 level-1 cusp form as eta(tau)^24."""
    return EtaProduct([(1, 24)])


# ---------------------------------------------------------------------------
# q-series wire format

_HEADER_KEYS = ("conductor", "precision", "level", "maxweight", "weight", "label")


def dump_qseries(series: QSeries, out: TextIO, **headers) -> None:
    """Write the `# qseries v1` representation.

    Recognized optional headers: level, maxweight, weight, label.  Zero
    coefficients are omitted from the body.
    """
    out.write("# qseries v1\n")
    out.write(f"conductor: {series.conductor}\n")
    out.write(f"precision: {series.precision}\n")
    for key in _HEADER_KEYS[2:]:
        value = headers.pop(key, None)
        if value is not None:
            out.write(f"{key}: {value}\n")
    if headers:
        raise TypeError(f"unknown headers: {sorted(headers)}")
    for n, c in series.items():
        out.write(f"{n}: {format_cyc(c.embed(series.conductor))}\n")


def dumps_qseries(series: QSeries, **headers) -> str:
    import io

    buf = io.StringIO()
    dump_qseries(series, buf, **headers)
    return buf.getvalue()


def load_qseries(source: TextIO | str) -> tuple[QSeries, dict[str, object]]:
    """Parse the wire format; returns the series and any optional headers."""
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source.read().splitlines()
    if not lines or lines[0].strip() != "# qseries v1":
        raise ValueError("missing `# qseries v1` signature line")
    headers: dict[str, object] = {}
    body: dict[int, list[Fraction]] = {}
    for raw in lines[1:]:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()
        if key in _HEADER_KEYS:
            headers[key] = rest if key == "label" else int(rest)
            continue
        try:
            n = int(key)
        except ValueError:
            raise ValueError(f"unparseable line in q-series file: {raw!r}") from None
        body[n] = [Fraction(tok) for tok in rest.split()]
    if "conductor" not in headers or "precision" not in headers:
        raise ValueError("q-series file must declare conductor and precision")
    conductor = int(headers.pop("conductor"))
    precision = int(headers.pop("precision"))
    from .exact import euler_phi

    width = euler_phi(conductor)
    entries: dict[int, CycNumber] = {}
    for n, coords in body.items():
        if len(coords) != width:
            raise ValueError(
                f"coefficient at q^{n} has {len(coords)} coordinates, conductor {conductor} needs {width}"
            )
        entries[n] = CycNumber(conductor, coords)
    series = QSeries.from_dict(entries, precision)
    return series, headers
