"""Command-line front end.

Subcommands: basis, expand, decompose, detect, census, macmahon, newforms.
Forms are written in a small expression language over the atoms
E[k,u.j,t], E2, E2twist[t], newform[L,k,label], dilate[t](...), D^r(...),
G[k,N], U[a], eta[d^e,...], and Delta, combined with rational scalars,
+, -, * and operator application.  Parentheses, operator applications and
unary minus nest at most MAX_NESTING levels deep, and the derivative
orders along one nested chain, as in D^r(D^s(f)), add up to at most
MAX_DERIVATIVE_ORDER.  --prec, --xmax and --nmax are at most
MAX_PRECISION (1000000), checked before anything expands.  Exit codes:
0 clean, 1 error (one line on stderr, never a traceback), 2 for a false
verdict or a decomposition residual.
"""
from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from .errors import CatalogIncompleteError, DerivationError, RankDeficientError
from .qseries import (
    MAX_PRECISION,
    EtaProduct,
    InsufficientPrecisionError,
    QSeries,
    _cell_width,
    dumps_qseries,
    load_qseries,
)

# The layers above qseries are imported inside the atoms and commands that
# use them, so a command loads (and, with no bytecode cache, compiles) only
# what it runs: census, detect and macmahon load detect but not characters,
# eisenstein, newforms, quasimodular or the eliminator in exact; expand,
# decompose, basis and newforms load no detect unless a form names G[...]
# or U[...]; a newform of a built-in or ingested space loads newforms
# alone, and only a derived one loads derive and the eliminator.

__all__ = ["FormSpecError", "eval_form", "main", "console_main"]


def __getattr__(name):
    # `qmf.cli.macmahon`, which bench/selftest.py reads, is detect's
    # function, looked up there on each read, so importing qmf.cli still
    # loads no detect
    if name == "macmahon":
        from .detect import macmahon

        return macmahon
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Each nesting level costs the recursive-descent parser about five stack
# frames, so this keeps parsing far below Python's default recursion limit.
MAX_NESTING = 100
# D^r multiplies the q^n coefficient by n^r; beyond this total order along
# one nested chain the numbers are out of any sensible range (and past
# Python's int-to-string limit).
MAX_DERIVATIVE_ORDER = 100


class FormSpecError(ValueError):
    """Unparseable or unresolvable form expression."""

    def __init__(self, position: int, reason: str):
        # the fields stay in args, so copy and pickle rebuild the error
        super().__init__(position, reason)
        self.position = position
        self.reason = reason

    def __str__(self) -> str:
        return f"at position {self.position}: {self.reason}"


# ---------------------------------------------------------------------------
# expression language

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|(.))")


def _tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            break
        number, name, sym = m.groups()
        where = m.start(1) if number else m.start(2) if name else m.start(3)
        if number:
            out.append(("num", int(number), where))
        elif name:
            out.append(("name", name, where))
        elif sym.strip():
            if sym not in "[](),^.*+-/":
                raise FormSpecError(where, f"stray character {sym!r}")
            out.append((sym, sym, where))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


class _Op:
    """A derivative polynomial; a scalar c is c*D^0 with no D token."""

    __slots__ = ("terms", "where")

    def __init__(self, terms: dict[int, Fraction], where: int | None):
        self.terms = terms  # c_r * D^r terms of a derivative polynomial
        self.where = where  # position of its first D token, None for a scalar


class _Form:
    __slots__ = ("series", "weight", "order")

    def __init__(self, series: QSeries, weight: int | None, order: int = 0):
        self.series = series
        self.weight = weight  # max weight across atoms, None once untagged
        self.order = order  # largest total derivative order along a nested chain


class _FormParser:
    def __init__(self, text: str, precision: int):
        if precision < 2:
            raise ValueError("precision must be at least 2")
        self.text = text
        self.precision = precision
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    # -- token plumbing ---------------------------------------------------
    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind):
        kind_, value, where = self.next()
        if kind_ != kind:
            raise FormSpecError(where, f"expected {kind!r}")
        return value

    def fail(self, reason):
        raise FormSpecError(self.peek()[2], reason)

    def descend(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nests deeper than {MAX_NESTING} levels")

    # -- grammar ----------------------------------------------------------
    def parse(self):
        value = self.expr()
        if self.peek()[0] != "end":
            self.fail("trailing input")
        return value

    def expr(self):
        self.descend()
        value = self.term()
        while self.peek()[0] in "+-":
            op = self.next()[0]
            rhs = self.term()
            value = self.add(value, rhs if op == "+" else self.neg(rhs))
        self.depth -= 1
        return value

    def term(self):
        value = self.unary()
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.next()
                value = self.mul(value, self.unary())
            elif kind == "(":
                # juxtaposition: (D^2)(U[1]), 3(E2), ...
                self.next()
                arg = self.expr()
                self.expect(")")
                value = self.mul(value, arg)
            elif kind == "name":
                # juxtaposition against a bare atom: (D^3+1)G[2,1]
                value = self.mul(value, self.primary())
            else:
                return value

    def unary(self):
        if self.peek()[0] == "-":
            self.next()
            self.descend()
            value = self.neg(self.unary())
            self.depth -= 1
            return value
        return self.primary()

    def primary(self):
        kind, value, where = self.peek()
        if kind == "num":
            self.next()
            if self.peek()[0] == "/":
                self.next()
                den = self.expect("num")
                if den == 0:
                    raise FormSpecError(where, "zero denominator")
                return _Op({0: Fraction(value, den)}, None)
            return _Op({0: Fraction(value)}, None)
        if kind == "(":
            self.next()
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "name":
            return self.atom()
        self.fail("expected a number, atom, or parenthesized expression")

    # -- atoms ------------------------------------------------------------
    def atom(self):
        _, name, where = self.next()
        if name == "D":
            r = 1
            if self.peek()[0] == "^":
                self.next()
                r = self.expect("num")
            if r > MAX_DERIVATIVE_ORDER:
                raise FormSpecError(
                    where,
                    f"derivative order {r} is above the cap {MAX_DERIVATIVE_ORDER}",
                )
            return _Op({r: Fraction(1)}, where)
        if name == "E2":
            from .eisenstein import raw_e2_atom

            return _Form(raw_e2_atom().expand(self.precision), 2)
        if name == "E2twist":
            from .characters import trivial_character
            from .eisenstein import EisensteinAtom

            (t,) = self.bracket_numbers(1)
            if t < 2:
                raise FormSpecError(where, "E2twist index must be at least 2")
            atom = EisensteinAtom(2, trivial_character(1), t)
            return _Form(atom.expand(self.precision), 2)
        if name == "E":
            return self.eisenstein_atom(where)
        if name == "newform":
            return self.newform_atom(where)
        if name == "dilate":
            (t,) = self.bracket_numbers(1)
            if t < 1:
                raise FormSpecError(where, "dilation multiplier must be positive")
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            if not isinstance(inner, _Form):
                raise FormSpecError(where, "dilate needs a series argument")
            return _Form(
                inner.series.dilate(t, self.precision), inner.weight, inner.order
            )
        if name == "G":
            from .detect import g_series

            k, N = self.bracket_numbers(2)
            try:
                series = g_series(k, N, self.precision)
            except ValueError as exc:
                raise FormSpecError(where, str(exc)) from None
            return _Form(series, k)
        if name == "U":
            from .detect import macmahon

            (a,) = self.bracket_numbers(1)
            if a < 1:
                raise FormSpecError(where, "U index must be positive")
            return _Form(macmahon(a, self.precision).series(), None)
        if name == "eta":
            return self.eta_atom(where)
        if name == "Delta":
            series = EtaProduct([(1, 24)]).expand(self.precision)
            return _Form(series, 12)
        raise FormSpecError(where, f"unknown atom {name!r}")

    def bracket_numbers(self, count):
        self.expect("[")
        values = []
        for i in range(count):
            if i:
                self.expect(",")
            values.append(self.expect("num"))
        self.expect("]")
        return values

    def eisenstein_atom(self, where):
        from .characters import enumerate_primitive, trivial_character
        from .eisenstein import EisensteinAtom

        self.expect("[")
        k = self.expect("num")
        self.expect(",")
        u = self.expect("num")
        self.expect(".")
        j = self.expect("num")
        self.expect(",")
        t = self.expect("num")
        self.expect("]")
        if k < 2 or k % 2:
            raise FormSpecError(where, "Eisenstein weight must be even, >= 2")
        if u < 1:
            raise FormSpecError(where, "character modulus must be positive")
        if u == 1:
            if j != 1:
                raise FormSpecError(where, "modulus 1 has only the character 1.1")
            chi = trivial_character(1)
        else:
            chars = enumerate_primitive(u)
            if not chars:
                raise FormSpecError(where, f"no primitive characters mod {u}")
            if not 1 <= j <= len(chars):
                raise FormSpecError(
                    where, f"character index out of range; {u}.1 .. {u}.{len(chars)}"
                )
            chi = chars[j - 1]
        if k == 2 and chi.is_trivial() and t == 1:
            raise FormSpecError(
                where, "the weight-2 trivial atom needs t >= 2 (spell it E2twist[t])"
            )
        try:
            atom = EisensteinAtom(k, chi, t)
        except ValueError as exc:
            raise FormSpecError(where, str(exc)) from None
        return _Form(atom.expand(self.precision), k)

    def newform_atom(self, where):
        from .newforms import newforms_for

        self.expect("[")
        level = self.expect("num")
        self.expect(",")
        weight = self.expect("num")
        self.expect(",")
        kind, label, _ = self.next()
        if kind != "name":
            raise FormSpecError(where, "newform label must be alphabetic")
        self.expect("]")
        records = newforms_for(level, weight)
        for record in records:
            if record.label == label:
                return _Form(record.expand(self.precision), weight)
        known = ", ".join(r.label for r in records) or "none"
        raise FormSpecError(
            where,
            f"no newform {level}.{weight}.{label}; known labels: {known}",
        )

    def eta_atom(self, where):
        self.expect("[")
        factors = []
        while True:
            d = self.expect("num")
            self.expect("^")
            sign = 1
            if self.peek()[0] == "-":
                self.next()
                sign = -1
            factors.append((d, sign * self.expect("num")))
            if self.peek()[0] != ",":
                break
            self.next()
        self.expect("]")
        try:
            product = EtaProduct(factors)
            series = product.expand(self.precision)
        except ValueError as exc:
            raise FormSpecError(where, str(exc)) from None
        w = product.weight
        return _Form(series, int(w) if w.denominator == 1 else None)

    # -- arithmetic over parse values -------------------------------------
    def add(self, a, b):
        if isinstance(a, _Op) and isinstance(b, _Op):
            terms = dict(a.terms)
            for r, c in b.terms.items():
                terms[r] = terms.get(r, Fraction(0)) + c
            return _Op(terms, a.where if a.where is not None else b.where)
        if isinstance(a, _Form) and isinstance(b, _Form):
            weight = None
            if a.weight is not None and b.weight is not None:
                weight = max(a.weight, b.weight)
            return _Form(a.series + b.series, weight, max(a.order, b.order))
        # a series and a scalar (c*D^0 with no D token): a constant series
        if isinstance(a, _Op):
            a, b = b, a
        if b.where is not None:
            self.fail("cannot add an operator to a series")
        const = QSeries.constant(b.terms[0], a.series.precision)
        return _Form(a.series + const, a.weight, a.order)

    def neg(self, a):
        if isinstance(a, _Op):
            return _Op({r: -c for r, c in a.terms.items()}, a.where)
        return _Form(a.series.scale(-1), a.weight, a.order)

    def mul(self, a, b):
        # a scalar operand goes first: it scales an operator, or is applied
        # to a series as c*D^0
        if isinstance(b, _Op) and b.where is None:
            a, b = b, a
        if isinstance(a, _Op) and isinstance(b, _Form):
            return self.apply(a, b)
        if isinstance(a, _Op) and a.where is None:
            return _Op({r: c * a.terms[0] for r, c in b.terms.items()}, b.where)
        if isinstance(a, _Form) and isinstance(b, _Form):
            self.fail("products of series are not supported")
        self.fail("operators compose by application, e.g. D^2(f)")

    def apply(self, op, form):
        order = form.order + max(op.terms)
        if order > MAX_DERIVATIVE_ORDER:
            raise FormSpecError(
                op.where,
                f"total derivative order {order} along one nested chain "
                f"is above the cap {MAX_DERIVATIVE_ORDER}",
            )
        first, *rest = (form.series.apply_D(r).scale(c) for r, c in op.terms.items())
        weight = None if form.weight is None else form.weight + 2 * max(op.terms)
        return _Form(sum(rest, first), weight, order)


def eval_form(text: str, precision: int) -> tuple[QSeries, int | None]:
    """Evaluate a form expression to (series, max weight or None)."""
    value = _FormParser(text, precision).parse()
    if isinstance(value, _Form):
        return value.series, value.weight
    if value.where is not None:
        raise FormSpecError(0, "form is a bare operator; apply it to a series")
    return QSeries.constant(value.terms[0], precision), 0


# ---------------------------------------------------------------------------
# commands


def cmd_basis(args) -> int:
    from .quasimodular import assemble_basis

    parts = ("eis", "new", "old") if args.part == "all" else (args.part,)
    atoms = assemble_basis(args.level, args.maxweight, parts)
    if args.prec is None:
        for atom in atoms:
            print(atom.spec_text())
        return 0
    for atom in atoms:
        sys.stdout.write(
            dumps_qseries(
                atom.expand(args.prec),
                level=args.level,
                weight=atom.weight,
                label=atom.spec_text(),
            )
        )
    return 0


def cmd_expand(args) -> int:
    # a form's conductor comes from its atoms and operations, not from the
    # precision, so a two-coefficient pass refuses a file above the cell cap
    # before the full expansion; the derivations it runs stay cached, and a
    # precision below 2 is refused by the pass before the form is parsed
    _cell_width(eval_form(args.form, min(args.prec, 2))[0].conductor, args.prec)
    series, weight = eval_form(args.form, args.prec)
    headers = {}
    if weight is not None:
        headers["maxweight"] = weight
    text = dumps_qseries(series, **headers)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_decompose(args) -> int:
    from .quasimodular import decompose

    with open(args.series) as fh:
        series, headers = load_qseries(fh)
    maxweight = args.maxweight
    if maxweight is None:
        maxweight = headers.get("maxweight")
    if maxweight is None:
        print(
            "error: no --maxweight given and the series file carries no "
            "maxweight header",
            file=sys.stderr,
        )
        return 1
    dec = decompose(series, args.level, int(maxweight))
    print(dec.report_text())
    return 0 if not dec.residual else 2


def cmd_detect(args) -> int:
    from .detect import prime_detect_verdict, validate_detect

    validate_detect(args.level, args.xmax)
    series, _ = eval_form(args.form, args.xmax + 1)
    report = prime_detect_verdict(series, args.level, args.xmax)
    print(report.report_text())
    return 0 if report.ok else 2


def cmd_census(args) -> int:
    from .detect import census, validate_census

    validate_census(args.level, args.xmax, args.delta)
    series, _ = eval_form(args.form, args.xmax + 1)
    report = census(series, args.level, args.xmax, args.delta)
    print(report.report_text())
    return 0


def cmd_macmahon(args) -> int:
    from .detect import macmahon

    table = macmahon(args.a, args.nmax)
    row = " ".join(f"{n}:{v}" for n, v in enumerate(table.values) if v)
    print(row)
    return 0


def cmd_newforms(args) -> int:
    from .newforms import ingest, newforms_for

    if args.ingest:
        record = ingest(args.ingest)
        print(f"ingested {record.name()}")
        return 0
    if args.level is None or args.weight is None:
        print("error: need --level and --weight (or --ingest)", file=sys.stderr)
        return 1
    records = newforms_for(args.level, args.weight)
    if args.prec is None:
        for record in records:
            print(f"{record.name()} {record.source_text()}")
        return 0
    for record in records:
        sys.stdout.write(
            dumps_qseries(
                record.expand(args.prec),
                level=record.level,
                weight=record.weight,
                label=record.label,
            )
        )
    return 0


# ---------------------------------------------------------------------------
# driver

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qmf", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("basis", help="list graded basis atoms")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--maxweight", type=int, required=True)
    p.add_argument("--part", choices=("eis", "new", "old", "all"), default="all")
    p.add_argument("--prec", type=int)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("expand", help="expand a form expression")
    p.add_argument("--form", required=True)
    p.add_argument("--prec", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("decompose", help="decompose a q-series file")
    p.add_argument("--series", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--maxweight", type=int)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("detect", help="prime-detecting verdict")
    p.add_argument("--form", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--xmax", type=int, required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("census", help="prime-vanishing census")
    p.add_argument("--form", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--xmax", type=int, required=True)
    p.add_argument("--delta", required=True)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("macmahon", help="M_a(n) table")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(func=cmd_macmahon)

    p = sub.add_parser("newforms", help="catalog lookups and ingestion")
    p.add_argument("--level", type=int)
    p.add_argument("--weight", type=int)
    p.add_argument("--prec", type=int)
    p.add_argument("--ingest")
    p.set_defaults(func=cmd_newforms)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 1
    # load_qseries puts the same cap on the precision a file declares
    for option in ("prec", "xmax", "nmax"):
        value = getattr(args, option, None)
        if value is not None and value > MAX_PRECISION:
            print(f"error: --{option} {value} is above the cap {MAX_PRECISION}", file=sys.stderr)
            return 1
    try:
        return args.func(args)
    except FormSpecError as exc:
        print(f"parse error {exc}", file=sys.stderr)
        return 1
    except CatalogIncompleteError as exc:
        reason = f": {exc.detail}" if exc.detail else ""
        print(
            f"catalog incomplete: no newform table for level {exc.level}, "
            f"weight {exc.weight}{reason}",
            file=sys.stderr,
        )
        return 1
    except InsufficientPrecisionError as exc:
        print(
            f"insufficient precision: need {exc.required} coefficients, "
            f"have {exc.have}",
            file=sys.stderr,
        )
        return 1
    except (RankDeficientError, DerivationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # last resort: a defect must still end as one line and exit code 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
