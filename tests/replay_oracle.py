"""The replay eliminator: exact row-echelon operations on Fractions and
CycNumbers, recorded and replayed on each target.  Its rank is exact for
any matrix over Q(zeta_M), so it is the oracle the modular LinearSolver is
checked against; the package itself does not use it."""

import math
from fractions import Fraction

from qmf.exact import CycNumber


def _plain(c: CycNumber):
    # conductor-1 entries work as bare Fractions; mixed Fraction/CycNumber
    # arithmetic embeds on demand, and both test zero by truthiness
    return Fraction(c.nums[0], c.den) if c.conductor == 1 else c


class ReplayEliminator:
    """Reduced-row-echelon factorization recorded as row operations.

    Rows are indexed by q-exponent; pivoting picks, for each column, the
    first unused row (lowest exponent) with a nonzero entry.  Replaying the
    operations on a target leaves the coordinates in the pivot rows and
    zeros in every other row exactly when the target is in the span.
    Entries are plain values: Fractions, or CycNumbers of conductor > 1.
    """

    def __init__(self, nrows: int):
        # ops: ("scale", row, factor) and ("axpy", dst, factor, src)
        self.ops: list[tuple] = []
        self.pivot_rows: list[int] = []
        self.pivot_cols: list[int] = []
        self.used = [False] * nrows

    def replay(self, vec: list) -> list:
        vec = list(vec)
        for op in self.ops:
            if op[0] == "scale":
                _, r, f = op
                vec[r] = vec[r] * f
            else:
                _, dst, f, src = op
                s = vec[src]
                # skip zero Fractions only: a zero CycNumber still lifts dst
                # into its field, so no coordinate's conductor depends on
                # which zeros were skipped
                if s or isinstance(s, CycNumber):
                    vec[dst] = vec[dst] - s * f
        return vec

    def pivot(self, column: list, index: int) -> bool:
        """Eliminate the column numbered index; False (and no ops) if it is
        dependent on the earlier ones."""
        work = self.replay(column)
        used = self.used
        pr = next((i for i in range(len(used)) if not used[i] and work[i]), None)
        if pr is None:
            return False
        used[pr] = True
        self.pivot_rows.append(pr)
        self.pivot_cols.append(index)
        p = work[pr]
        inv = p.inverse() if isinstance(p, CycNumber) else 1 / p
        self.ops.append(("scale", pr, inv))
        self.ops.extend(
            ("axpy", i, f, pr) for i, f in enumerate(work) if f and i != pr
        )
        return True


class ReplaySolver:
    """The LinearSolver interface on the replay, for a matrix of CycNumber
    rows and CycNumber targets: coordinates in Q(zeta_L), L the lcm of the
    conductors of the matrix and of the target, 0 at free columns."""

    def __init__(self, rows):
        self.nrows = len(rows)
        self._conductor = math.lcm(1, *(c.conductor for row in rows for c in row))
        columns = [[_plain(c) for c in col] for col in zip(*rows)]
        self.ncols = len(columns)
        self._replay = ReplayEliminator(self.nrows)
        self.rank = sum(self._replay.pivot(col, j) for j, col in enumerate(columns))

    def solve(self, target):
        if len(target) != self.nrows:
            raise ValueError("target length does not match row count")
        replay = self._replay
        vec = replay.replay([_plain(c) for c in target])
        if any(v for v, used in zip(vec, replay.used) if not used):
            return None
        conductor = math.lcm(self._conductor, *(c.conductor for c in target))
        out = [CycNumber.zero(conductor) for _ in range(self.ncols)]
        for col, row in zip(replay.pivot_cols, replay.pivot_rows):
            v = vec[row]
            if not isinstance(v, CycNumber):
                v = CycNumber.from_rational(v)
            out[col] = v.embed(math.lcm(conductor, v.conductor))
        return out

    def free_columns(self):
        pivots = set(self._replay.pivot_cols)
        return [c for c in range(self.ncols) if c not in pivots]
