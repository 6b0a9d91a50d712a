"""Exact derivation of the newforms of one space S_k(Gamma0(L)).

The catalog (`newforms`) imports this module only for a space whose built-in
and ingested records fall short of its new-subspace dimension.  Derivation
spans the cusp space with products of known forms, then splits it into Hecke
eigenlines.  The span is a rational basis (_span_cusp_space), so T_p is a
rational matrix.  Each piece splits by the kernels of g(T_p), one for each
rational factor g of its characteristic polynomial on the piece; only a
quadratic factor's eigenlines (T_p - lam')w, for w in its kernel and lam'
the other root, and their a(1) normalisation leave Q.
"""
from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .characters import character_group
from .eisenstein import eisenstein_basis
from .errors import CatalogIncompleteError, DerivationError
from .exact import LinearSolver, null_space
from .newforms import (
    NewformRecord,
    _dilations,
    _Expr,
    _Leaf,
    cusp_basis,
    dim_cusp,
    dim_cusp_new,
    hecke_image,
    sturm_bound,
    verify_hecke,
)
from .qseries import QSeries
from .scalars import CycNumber, _reduce_mod_cyclotomic, divisors, factorize, primes_upto

# ---------------------------------------------------------------------------
# recipe nodes that only derivation builds

class _Product(_Expr):
    __slots__ = ("parts",)

    def __init__(self, parts):
        super().__init__()
        self.parts = tuple(parts)

    def _compute(self, precision: int) -> QSeries:
        out = None
        for part in self.parts:
            series = part.expand(precision)
            out = series if out is None else out * series
        return out


class _Linear(_Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        super().__init__()
        self.terms = tuple((c, e) for c, e in terms)

    def _compute(self, precision: int) -> QSeries:
        out = QSeries.zero(precision)
        for c, expr in self.terms:
            if c:
                out = out + expr.expand(precision).scale(c)
        return out


class _Coordinate(_Expr):
    """Power-basis coordinate `index` of an expression over
    Q(zeta_conductor): a rational series."""

    __slots__ = ("inner", "conductor", "index")

    def __init__(self, inner, conductor: int, index: int):
        super().__init__()
        self.inner, self.conductor, self.index = inner, conductor, index

    def _compute(self, precision: int) -> QSeries:
        den, nums = self.inner.expand(precision).embed(self.conductor).numerators()
        return QSeries._make(precision, 1, den, [nums[self.index]])


class _HeckeImage(_Expr):
    __slots__ = ("inner", "p", "weight")

    def __init__(self, inner, p: int, weight: int):
        super().__init__()
        self.inner = inner
        self.p = p
        self.weight = weight

    def _compute(self, precision: int) -> QSeries:
        base = self.inner.expand(self.p * (precision - 1) + 1)
        return hecke_image(base, self.p, self.weight, precision)


# ---------------------------------------------------------------------------
# span and eigenline split

def _derive_space(level: int, weight: int) -> list[NewformRecord]:
    """Derive all weight-`weight` newforms of exact level `level`."""
    dim_new = dim_cusp_new(level, weight)
    if dim_new == 0:
        return []
    if weight == 2:
        # weight-2 cusp forms are never products of lower-weight forms
        raise DerivationError("no product construction reaches weight 2")

    dim_total = dim_cusp(level, weight)
    R = sturm_bound(weight, level)
    basis_exprs, coord_solver = _span_cusp_space(level, weight, dim_total, R)
    eigen = _split_eigenlines(level, weight, basis_exprs, coord_solver, R)
    if len(eigen) != dim_new:
        raise DerivationError(
            f"found {len(eigen)} eigenlines, expected {dim_new} newforms"
        )

    normalized = []
    for expr, series in eigen:
        a1 = series.coefficient(1)
        if a1.is_zero():
            raise DerivationError("eigenline has vanishing leading coefficient")
        inv = a1.inverse()
        # scale the rational basis, not the eigenline's series, by inv:
        # a product of two cyclotomic series costs phi(M)^2 series products
        normalized.append(_Linear([(c * inv, e) for c, e in expr.terms]))
    # deterministic labels: sort by coefficient tuples
    def coeff_key(expr: _Linear):
        f = expr.expand(R + 1)
        return tuple(f.coefficient(n).sort_key() for n in range(1, R + 1))

    normalized.sort(key=coeff_key)
    records = [NewformRecord(level, weight, _index_label(i), expr)
               for i, expr in enumerate(normalized)]
    for rec in records:
        report = verify_hecke(rec, max(R + 10, 40))
        if not report.ok:
            raise DerivationError(
                f"derived eigenline fails Hecke verification: {report.failure}"
            )
    return records


def _index_label(i: int) -> str:
    out = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        out = chr(ord("a") + r) + out
    return out


def _span_candidates(level: int, weight: int):
    """Cusp forms of S_weight(Gamma0(level)), in the order the span tries
    them: dilated lower-level newforms, products of known cusp forms with
    modular forms of complementary weight, and Eisenstein products pushed
    into the cusp space by a Hecke eigenvalue annihilator.  Lazy, so a
    lower space is derived only once the span reaches its candidates."""
    # 1. oldforms: dilations of lower-level newforms
    yield from map(_Leaf, _dilations(level, weight, divisors(level)[:-1]))

    # 2. known cusp forms times modular forms of complementary weight
    for w in range(weight - 2, 1, -2):
        if dim_cusp(level, w) == 0:
            continue
        try:
            cusp_atoms = cusp_basis(level, w)
        except CatalogIncompleteError:
            continue
        multipliers = [_Leaf(atom) for atom in eisenstein_basis(level, weight - w)]
        if dim_cusp(level, weight - w):
            try:
                multipliers += map(_Leaf, cusp_basis(level, weight - w))
            except CatalogIncompleteError:
                pass
        for c_atom in cusp_atoms:
            for mult in multipliers:
                yield _Product((_Leaf(c_atom), mult))

    # 3. Eisenstein products, projected into the cusp space
    projector_ps = [p for p in primes_upto(50) if level % p][:1]
    for w in range(2, weight - 1, 2):
        for a, b in itertools.product(eisenstein_basis(level, w), eisenstein_basis(level, weight - w)):
            expr: _Expr = _Product((_Leaf(a), _Leaf(b)))
            for p in projector_ps:
                expr = _eisenstein_annihilator(expr, level, weight, p)
            yield expr


def _span_cusp_space(level: int, weight: int, dim_total: int, R: int):
    """Linearly independent rational expressions spanning
    S_weight(Gamma0(level)), and the solver of their expansions to q^R.

    A candidate (_span_candidates) over Q(zeta_M) offers its power-basis
    coordinate series: each is a cusp form, as S_weight(Gamma0(level)) has
    a rational basis and power-basis coordinates are unique.  The picks are
    the rank profile of the series in order, which the solver certifies
    over Q: each batch of candidates is factored once with the picks so
    far, and the free columns are dropped.
    """
    candidates = _span_candidates(level, weight)
    picks = []  # (expression, int column, scale) of each series kept
    while len(picks) < dim_total:
        batch = list(itertools.islice(candidates, len(picks) + dim_total))
        if not batch:
            break
        fresh = []
        for expr in batch:
            try:
                series = expr.expand(R + 1)
            except ValueError:
                continue  # an ingested table shorter than R + 1 coefficients
            den, nums = series.numerators()
            fresh += [(expr if series.conductor == 1 else _Coordinate(expr, series.conductor, j), col, den)
                      for j, col in enumerate(nums) if any(col)]
        if fresh:
            picks += fresh
            _, columns, scales = zip(*picks)
            solver = LinearSolver(columns, scales)
            free = set(solver.free_columns())
            picks = [pick for j, pick in enumerate(picks) if j not in free][:dim_total]
    if len(picks) < dim_total:
        raise DerivationError(f"spanned only {len(picks)} of {dim_total} cusp dimensions")
    exprs, columns, scales = zip(*picks)
    if solver.ncols > dim_total:
        solver = LinearSolver(columns, scales)
    return exprs, solver


def _eisenstein_annihilator(expr: _Expr, level: int, weight: int, p: int) -> _Expr:
    """Compose (T_p - lambda) over the distinct Eisenstein eigenvalues at
    this level and weight; the result of applying it to any modular form of
    the level lies in the cusp space."""
    lambdas = []
    for atom in eisenstein_basis(level, weight):
        chi = atom.chi
        lam = chi.inverse()(p) + chi(p) * p ** (weight - 1)
        if all(lam != seen for seen in lambdas):
            lambdas.append(lam)
    out = expr
    for lam in lambdas:
        out = _Linear([(1, _HeckeImage(out, p, weight)), (-lam, out)])
    return out


def _split_eigenlines(level, weight, basis_exprs, coord_solver, R):
    """Split span(basis) into T_p eigenlines; return the 1-dimensional
    pieces as (expression, series to q^R) pairs.  The basis is rational and
    coord_solver factorizes its expansions to q^R, one int column per basis
    element, so every T_p matrix and every piece is rational."""
    rows_precision = R + 1
    expected = dim_cusp_new(level, weight)
    split_primes = [p for p in primes_upto(max(30, R)) if level % p]
    dim = len(basis_exprs)
    lines, pieces = [], [[[int(i == j) for j in range(dim)] for i in range(dim)]]
    for p in split_primes:
        lines += [piece[0] for piece in pieces if len(piece) == 1]
        pieces = [piece for piece in pieces if len(piece) > 1]
        # dilation spans of one old newform stay glued under every T_p with
        # p coprime to the level, so each 1-dimensional piece is new; stop
        # once all expected new lines have separated or nothing is left
        if len(lines) >= expected or not pieces:
            break
        tp_cols = _hecke_matrix(basis_exprs, coord_solver, p, weight, rows_precision)
        pieces = _refine_pieces(pieces, tp_cols, p, weight)
    else:
        lines += [piece[0] for piece in pieces if len(piece) == 1]
    if len(lines) != expected:
        raise DerivationError(
            f"eigenline splitting found {len(lines)} lines, expected {expected}"
        )
    out = []
    for coords in lines:
        expr = _Linear([(c, e) for c, e in zip(coords, basis_exprs) if c])
        # truncates the basis memos that _hecke_matrix filled
        out.append((expr, expr.expand(rows_precision)))
    return out


def _hecke_matrix(basis_exprs, coord_solver, p, weight, rows_precision):
    """Columns of T_p on the basis: column j holds the rational coordinates
    of T_p(basis_j), solved from its integer numerators."""
    cols = []
    need = p * (rows_precision - 1) + 1
    for expr in basis_exprs:
        image = hecke_image(expr.expand(need), p, weight, rows_precision)
        den, nums = image.numerators()
        coords = coord_solver.solve(nums, den)
        if coords is None:
            raise DerivationError(f"T_{p} image left the candidate span")
        cols.append([c.as_rational() for c in coords])
    return cols


def _refine_pieces(pieces, tp_cols, p, weight):
    """Split each piece (a list of at least two rational coordinate
    vectors) by T_p."""
    out = []
    for piece in pieces:
        # restrict T_p to the piece: T * S = S * A
        columns, scales = zip(*map(_integer_form, piece))
        span_solver = LinearSolver(columns, scales)
        a_cols = []
        for v in piece:
            nums, scale = _integer_form(_vec_combination(tp_cols, v))
            col = span_solver.solve([nums], scale)
            if col is None:
                raise DerivationError("piece is not Hecke stable")
            a_cols.append([c.as_rational() for c in col])
        A = [list(row) for row in zip(*a_cols)]
        for sub in _eigen_split_matrix(A, p, weight):
            out.append([_vec_combination(piece, v) for v in sub])
    return out


def _integer_form(values) -> tuple[list[int], int]:
    """(nums, scale) of a rational vector: scale is the lcm of the
    denominators and nums[i] == values[i] * scale."""
    scale = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def _vec_combination(vectors, coeffs):
    out = [0] * len(vectors[0])
    for c, vec in zip(coeffs, vectors):
        if c:
            for i, x in enumerate(vec):
                if x:
                    out[i] += c * x
    return out


def _char_poly(B):
    """The characteristic polynomial of the integer matrix B by the trace
    recurrence, as ints listed from the constant term up; its coefficients
    are integers, so each division by k is exact."""
    n = len(B)
    coeffs = [0] * n + [1]
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        M = _mat_mul(B, M)
        c = coeffs[n - k] = -sum(M[i][i] for i in range(n)) // k
        for i in range(n):
            M[i][i] += c
    return coeffs


def _mat_mul(A, B):
    cols = list(zip(*B))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in A]


def _poly_eval_int(poly: list[int], x: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _monotone_breaks(poly: list[int], lo: int, hi: int) -> list[int]:
    """Integer cut points lo = c0 < ... < cm = hi such that the integer
    polynomial is monotone between consecutive cuts, except on gaps of
    width 1.

    Works down the derivative chain: sign changes of the derivative are
    bisected to unit intervals, whose endpoints become cuts."""
    cuts = {lo, hi}
    if len(poly) <= 2:
        return sorted(cuts)
    deriv = [poly[i] * i for i in range(1, len(poly))]
    dbreaks = _monotone_breaks(deriv, lo, hi)
    cuts.update(c for c in dbreaks if lo < c < hi)
    for x, y in _sign_changes(deriv, dbreaks):
        cuts.update((x, y))
    return sorted(cuts)


def _sign_changes(poly: list[int], breaks: list[int]) -> list[tuple[int, int]]:
    """Bisect the integer polynomial between consecutive breaks: a root m,
    at a break or met while bisecting, gives (m, m), and a strict sign
    change across a gap wider than 1 gives the unit interval holding it."""
    vals = [_poly_eval_int(poly, c) for c in breaks]
    out = [(c, c) for c, v in zip(breaks, vals) if v == 0]
    for a, b, fa, fb in zip(breaks, breaks[1:], vals, vals[1:]):
        if b - a <= 1 or fa == 0 or fb == 0 or (fa < 0) == (fb < 0):
            continue
        x, y, fx = a, b, fa
        while y - x > 1:
            m = (x + y) // 2
            fm = _poly_eval_int(poly, m)
            if fm == 0:
                x = y = m
            elif (fm < 0) == (fx < 0):
                x, fx = m, fm
            else:
                y = m
        out.append((x, y))
    return out


def _integer_roots(poly: list[int], bound: int) -> list[int]:
    """All integers r with |r| <= bound and poly(r) == 0, found exactly by
    bisection on monotone segments; O(deg^2 log bound) evaluations."""
    found = _sign_changes(poly, _monotone_breaks(poly, -bound - 1, bound + 1))
    return sorted({x for x, y in found if x == y and -bound <= x <= bound})


def _eigen_split_matrix(A, p, weight):
    """Split the space acted on by the small matrix A into the kernels of
    g(A), one for each rational factor g of the characteristic polynomial.

    The factors are x - r for each integer eigenvalue r inside the
    coefficient bound |a_p| <= 2 p^((k-1)/2), then the leftover, if any.  A
    leftover quadratic splits its kernel into two eigenlines; a leftover of
    degree >= 3 stays one piece for later primes.  Returns the coordinate
    bases of the pieces.

    A is rational.  With d the lcm of its denominators and B = dA, the
    characteristic polynomial of A with its denominators cleared is
    d^n det(x - A) = det(dx - B), and d^deg(g) g(B/d) is an integer matrix
    with the kernel of g(A), so all of it runs in integers."""
    d = math.lcm(*(x.denominator for row in A for x in row))
    B = [[x.numerator * (d // x.denominator) for x in row] for row in A]
    poly = [c * d**i for i, c in enumerate(_char_poly(B))]
    window = 2 * math.isqrt(p ** (weight - 1)) + 2
    factors = []
    for cand in _integer_roots(poly, window):
        mult = 0
        while len(poly) > 1 and _poly_eval_int(poly, cand) == 0:
            poly = _deflate(poly, cand)
            mult += 1
        factors.append(([-cand, 1], mult))
    if len(poly) > 1:
        factors.append((poly, 1))
    pieces = []
    for g, mult in factors:
        deg = len(g) - 1
        kern = null_space(_poly_matrix_eval([c * d ** (deg - i) for i, c in enumerate(g)], B))
        if len(kern) != mult * deg:
            raise DerivationError("factor kernel has wrong dimension (not semisimple?)")
        if deg == 2:
            monic = [Fraction(c, g[-1]) for c in g]
            pieces.extend([v] for v in _quadratic_eigenlines(A, monic, kern[0]))
        else:
            pieces.append(kern)
    return pieces


def _quadratic_eigenlines(A, g, w):
    """The eigenvectors (A - lam')w, one per root lam of the monic quadratic
    g, where lam' is the other root and w lies in the kernel of g(A).  Each
    is checked to be nonzero with A v == lam v."""
    b, c0 = g[1], g[0]
    disc = b * b - 4 * c0
    if disc <= 0:
        raise DerivationError("non-real quadratic eigenvalue factor")
    sq = _sqrt_cyclotomic(disc)
    half = Fraction(1, 2)
    lam, conj = (sq - b) * half, (-sq - b) * half
    cols = list(zip(*A))
    aw = _vec_combination(cols, w)
    lines = []
    for root, other in ((lam, conj), (conj, lam)):
        v = [x - other * y for x, y in zip(aw, w)]
        # root * v as root * Aw - (lam lam') w, lam lam' = c0, so that no
        # product has two irrational factors
        root_v = [root * x - c0 * y for x, y in zip(aw, w)]
        if not any(v) or _vec_combination(cols, v) != root_v:
            raise DerivationError("quadratic factor kernel holds no eigenline")
        lines.append(v)
    return lines


def _deflate(poly: list[int], root: int) -> list[int]:
    out = [0] * (len(poly) - 1)
    acc = 0
    for i in range(len(poly) - 1, 0, -1):
        acc = poly[i] + acc * root
        out[i - 1] = acc
    return out


def _poly_matrix_eval(poly, A):
    """g(A) by Horner's rule for g = poly, listed from the constant term
    up; degree d costs d - 1 matrix products."""
    out = None
    for c in reversed(poly[:-1]):
        out = [[poly[-1] * x for x in row] for row in A] if out is None else _mat_mul(A, out)
        for i in range(len(A)):
            out[i][i] += c
    return out


def _sqrt_cyclotomic(value: Fraction) -> CycNumber:
    """Exact square root of a positive rational inside a cyclotomic field;
    the result squares back to value.

    With value = (square/den)^2 rest, rest squarefree, sqrt(rest) comes from
    the Gauss sum of chi_D, the even real primitive character mod D = rest
    (rest = 1 mod 4) or 4 rest: sum_a chi_D(a) zeta_D^a = sqrt(D)."""
    if value <= 0:
        raise DerivationError("cyclotomic square root needs a positive rational")
    num, den = value.numerator, value.denominator
    # sqrt(n/d) = sqrt(n*d)/d
    target = num * den
    square = 1
    rest = 1
    for prime, e in factorize(target).items():
        square *= prime ** (e // 2)
        if e % 2:
            rest *= prime
    if rest > 150:
        # the Gauss-sum embedding would need conductor ~rest; every later
        # product of such numbers costs phi(rest)^2 int products and every
        # inverse solves a phi(rest)-square system, which is past the
        # exact-arithmetic budget
        raise DerivationError(
            f"eigenvalue field Q(sqrt({rest})) is too large for exact"
            " cyclotomic representation"
        )
    D = rest if rest % 4 == 1 else 4 * rest
    (chi,) = [c for c in character_group(D) if c.order <= 2 and c(D - 1) == 1 and c.is_primitive()]
    gauss = _reduce_mod_cyclotomic([int(chi(a).as_rational()) for a in range(D)], D)
    out = CycNumber._make(D, 1, gauss) * Fraction(square, den if D == rest else 2 * den)
    assert out * out == value, "square-root construction failed self-check"
    return out
