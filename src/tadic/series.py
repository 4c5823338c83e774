"""Truncated power series with residue coefficients, and exact Newton polygons.

Two series layers live here.  _SparseSeries is one sparse truncated series
in an inner variable, with exponent keys in units of 1/den and residue
scalars mod p^prec; TSeries (integer scalars, T throughout the package) and
dwork.ZqPi (Z_q tuples, pi-exponents in (1/D)*Z) name their scalars on top
of it.  TSeries multiplies by Kronecker substitution: a sum of products
sum_i x_i*y_i packs each series into one integer, W bits a coefficient,
takes one big-integer product per pair, cuts the sum to the smallest cap
and reduces it once mod p^prec (_packed_sum).  W puts n*cap*(p^top - 1)^2
below 2^W, for n pairs and top the largest prec, so no slot below the cap
carries (the one lemma is _packed_dot's); a product is the one-pair case
and exp_generating's step the m-pair one.  No loop is kept
below a crossover: at the caps and pair counts of the perfbench jobs
(caps 16 and 24, up to 8 pairs) packing is the quicker, and a traced
families round's exp recurrence takes 5.3 ms packed against 15.5 ms by
a dict double loop (Python 3.11.7, 2 vCPU).  ZqPi's product is that of
dwork._PiSeries, the bare ring of the operator route's determinant
kernel.  SSeries is a polynomial in an outer variable s whose
coefficients are ring elements implementing a small shared protocol
(add/sub/mul/neg/mul_int/divexact_int/is_zero/val_data).

Polygon geometry is exact and lives on the integer grid: every x is a
coefficient index and each hull keeps its ordinates as integers over one
denominator, so hulls are built and compared by integer cross-multiplication,
two hulls at a time in one merged walk over their vertex lists.  A polygon
carries the largest x-coordinate up to which its shape is proven correct
given the truncation caps of the data it was built from.
"""

from __future__ import annotations

import bisect
import math
import operator
import struct
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .errors import DomainError, IntegralityError, PrecisionError, TheoremViolation


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("vp(0) is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def power(x, e: int, mul, one):
    """x^e for e >= 0 by square-and-multiply, with ``mul`` the ring product
    and ``one`` its identity; the last, unused square is skipped."""
    acc = one
    while e:
        if e & 1:
            acc = mul(acc, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return acc


def vp_factorial(n: int, p: int) -> int:
    """ord_p(n!) by Legendre's formula."""
    v = 0
    q = p
    while q <= n:
        v += n // q
        q *= p
    return v


def divexact(values, k: int, p: int, prec: int):
    """Divide residues mod p^prec by a nonzero integer k, asserting that the
    p-part p^v of k divides every one of them exactly.

    Returns (prec - v, quotients): the division costs v digits of
    p-precision, and the quotients are left for the caller to reduce."""
    if k == 0:
        raise ZeroDivisionError
    v = vp(k, p)
    new_prec = prec - v
    if new_prec <= 0:
        raise PrecisionError(f"division by {k} exhausts p-precision {prec}")
    pv = p**v
    inv = pow(k // pv, -1, p**new_prec)
    out = []
    for c in values:
        if c % pv:
            raise IntegralityError(f"residue {c} not divisible by {p}^{v}")
        out.append(c // pv * inv)
    return new_prec, out


# -- Kronecker packing: a sequence of ints in [0, 2^W) as one big integer ----

_SLOT_CODES = {16: "H", 32: "I", 64: "Q"}


def _slot_width(bound: int) -> int:
    """The narrowest slot for ints up to ``bound``: 16, 32 or 64 bits, or
    past 64 the bound's bit length in whole bytes."""
    return next((w for w in _SLOT_CODES if bound >> w == 0), -(-bound.bit_length() // 8) * 8)


def _pack_bytes(xs, W: int) -> bytes:
    """Ints xs in [0, 2^W) as W-bit little-endian slots, W a multiple of 8."""
    code = _SLOT_CODES.get(W)
    if code:
        return struct.pack(f"<{len(xs)}{code}", *xs)
    return b"".join(x.to_bytes(W // 8, "little") for x in xs)


def _pack(xs, W: int) -> int:
    """sum_i xs[i] 2^(W*i) for ints xs in [0, 2^W), W a multiple of 8."""
    return int.from_bytes(_pack_bytes(xs, W), "little")


@lru_cache(maxsize=256)
def _slot_unpacker(W: int, B: int):
    """(the mask of B W-bit slots, bytes -> their B W-bit slots): by struct
    up to 64 bits, else one by one."""
    mask, n = (1 << W * B) - 1, W // 8
    if W in _SLOT_CODES:
        return mask, struct.Struct(f"<{B}{_SLOT_CODES[W]}").unpack
    return mask, lambda buf: [int.from_bytes(buf[i : i + n], "little") for i in range(0, n * B, n)]


def _unpack(v: int, W: int, B: int):
    """The B lowest W-bit slots of an int v >= 0, lowest first; the slots
    at and past B are dropped."""
    mask, unpack = _slot_unpacker(W, B)
    return unpack((v & mask).to_bytes(W // 8 * B, "little"))


def _packed_dot(xs, ys, W: int, B: int, plus: int = 0):
    """The B lowest W-bit slots of plus + sum_i xs[i] * ys[i], over ints
    packed W bits a slot (Kronecker substitution).

    The no-carry lemma, which every packed site rests on: let plus and each
    operand hold nonnegative slots.  If every true slot j < B of the sum
    (plus's slot j and the products' slot-j convolution) is below 2^W, no
    slot below B carries, so the result is those true slots whatever the
    slots at or past B hold.  Callers pick W from their own slot bound."""
    return _unpack(plus + sum(map(operator.mul, xs, ys)), W, B)


def _packed(s: "TSeries", W: int) -> int:
    """sum_j c_j 2^(W*j) over the residues of a TSeries, all below its cap."""
    return _pack([s.coeffs.get(j, 0) for j in range(s.cap)], W)


def _packed_sum(p: int, prec: int, cap: int, W: int, xs, ys) -> "TSeries":
    """sum_i x_i * y_i over TSeries packed W bits a slot, as one TSeries:
    the sum is cut to ``cap`` slots and reduced mod p^prec once.

    Residues are nonnegative, so slot j < cap of the sum is at most
    (number of pairs) * (j + 1) * (p^top - 1)^2, top the largest prec of
    the operands; W must put that below 2^W (_packed_dot)."""
    return TSeries(p, prec, cap, dict(enumerate(_packed_dot(xs, ys, W, cap))))


class _SparseSeries:
    """sum_j c_j X^(j/den) truncated below X^(cap/den), scalars mod p^prec.

    The store and window rules TSeries and ZqPi share.  Only nonzero
    residues are stored.  A sum or a comparison takes the smaller
    p-precision and the smaller cap of its operands, so results are
    certified to their stated moduli, and reading a coefficient at or past
    the cap raises PrecisionError.  A subclass names its scalars (_reduce,
    _add_scalars, _scale, _zero, _one), its ring (_same_ring), how to build
    a sibling (_like) and its own product, whose cap rule is its own.
    """

    __slots__ = ("p", "prec", "cap", "coeffs", "pm")
    den = 1  # exponent keys count units of 1/den
    _units = "exponents"  # what the cap counts, for the error text

    def __init__(self, p: int, prec: int, cap: int, coeffs=None):
        if prec <= 0:
            raise PrecisionError(f"no certified p-digits left (prec={prec})")
        if cap <= 0:
            raise PrecisionError(f"no certified {self._units} left (cap={cap})")
        self.p, self.prec, self.cap = p, prec, cap
        self.pm = pm = p**prec
        reduce = self._reduce
        store = {}
        if coeffs:
            for j, c in coeffs.items():
                if j < 0:
                    raise DomainError(f"negative exponent {j} in a truncated series")
                if j < cap:
                    c = reduce(c, pm)
                    if c is not None:
                        store[j] = c
        self.coeffs = store

    def _window(self, other):
        if type(other) is not type(self) or not self._same_ring(other):
            raise DomainError("series live in different rings")
        return min(self.prec, other.prec), min(self.cap, other.cap)

    def zero_like(self):
        return self._like({}, self.prec, self.cap)

    def one_like(self):
        return self._like({0: self._one()}, self.prec, self.cap)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == {0: self._one()}

    def add(self, other):
        prec, cap = self._window(other)
        add = self._add_scalars
        out = dict(self.coeffs)
        for j, c in other.coeffs.items():
            out[j] = add(out[j], c) if j in out else c
        return self._like(out, prec, cap)

    def sub(self, other):
        return self.add(other.neg())

    def neg(self):
        return self.mul_int(-1)

    def mul_int(self, k: int):
        scale = self._scale
        return self._like({j: scale(c, k) for j, c in self.coeffs.items()}, self.prec, self.cap)

    def with_prec(self, prec: int):
        if prec > self.prec:
            raise PrecisionError("cannot invent p-digits")
        return self._like(self.coeffs, prec, self.cap)

    def coeff(self, j: int):
        if j >= self.cap:
            raise PrecisionError(f"exponent {j}/{self.den} not below the cap {self.cap}/{self.den}")
        return self.coeffs.get(j, self._zero())

    def sorted_items(self):
        return sorted(self.coeffs.items())

    def ord(self) -> Optional[Fraction]:
        """Smallest exponent with a nonzero residue, or None (only '>= cap'
        is known)."""
        return Fraction(min(self.coeffs), self.den) if self.coeffs else None

    def val_data(self):
        """(valuation, cap); valuation None if no nonzero residue survives."""
        return self.ord(), Fraction(self.cap, self.den)

    def agrees_with(self, other) -> bool:
        """Equality on the intersection of the certified windows."""
        prec, cap = self._window(other)
        pm = self.p**prec
        zero, add, scale, reduce = self._zero(), self._add_scalars, self._scale, self._reduce
        mine, theirs = self.coeffs, other.coeffs
        for j in mine.keys() | theirs.keys():
            if j < cap and reduce(add(mine.get(j, zero), scale(theirs.get(j, zero), -1)), pm):
                return False
        return True

    def __repr__(self):
        terms = ", ".join(f"{j}: {c}" for j, c in self.sorted_items())
        window = f"p={self.p}, prec={self.prec}, cap={self.cap}/{self.den}"
        return f"{type(self).__name__}({window}, {{{terms}}})"


def _reduce_int(c: int, pm: int):
    return c % pm or None


class TSeries(_SparseSeries):
    """sum_j c_j T^j truncated below T^cap, with integer residues c_j mod
    p^prec.  A product is cut at the smaller of the two caps."""

    __slots__ = ()
    _reduce = staticmethod(_reduce_int)
    _add_scalars = staticmethod(operator.add)
    _scale = staticmethod(operator.mul)

    @staticmethod
    def _zero():
        return 0

    @staticmethod
    def _one():
        return 1

    def _same_ring(self, other) -> bool:
        return self.p == other.p

    def _like(self, coeffs, prec: int, cap: int) -> "TSeries":
        return TSeries(self.p, prec, cap, coeffs)

    @classmethod
    def const(cls, p, prec, cap, value):
        return cls(p, prec, cap, {0: value})

    @classmethod
    def zero(cls, p, prec, cap):
        return cls(p, prec, cap, {})

    def mul(self, other: "TSeries") -> "TSeries":
        """The one-pair case of _packed_sum."""
        prec, cap = self._window(other)
        W = _slot_width(cap * (self.p ** max(self.prec, other.prec) - 1) ** 2)
        return _packed_sum(self.p, prec, cap, W, (_packed(self, W),), (_packed(other, W),))

    def divexact_int(self, k: int) -> "TSeries":
        """Divide by a nonzero integer; costs vp(k) digits of p-precision."""
        prec, out = divexact(self.coeffs.values(), k, self.p, self.prec)
        return TSeries(self.p, prec, self.cap, dict(zip(self.coeffs, out)))

    def inverse(self) -> "TSeries":
        c0 = self.coeffs.get(0, 0)
        if c0 % self.p == 0:
            raise DomainError("constant term is not a unit")
        inv0 = pow(c0, -1, self.pm)
        out = {0: inv0}
        for j in range(1, self.cap):
            acc = 0
            for i, a in self.coeffs.items():
                if 0 < i <= j:
                    b = out.get(j - i, 0)
                    if b:
                        acc += a * b
            if acc:
                out[j] = (-inv0 * acc) % self.pm
        return TSeries(self.p, self.prec, self.cap, out)

    def pow_int(self, e: int) -> "TSeries":
        if e < 0:
            return self.inverse().pow_int(-e)
        return power(self, e, TSeries.mul, self.one_like())

    def __eq__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        mine, theirs = (self.prec, self.cap, self.coeffs), (other.prec, other.cap, other.coeffs)
        return self.p == other.p and mine == theirs

    def __hash__(self):
        return hash((self.p, self.prec, self.cap, tuple(self.sorted_items())))


class SSeries:
    """Truncated power series in s with ring-element coefficients.

    The coefficient objects carry their own certified precision; SSeries
    only arranges them and runs the generic recurrences.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        if not coeffs:
            raise DomainError("empty s-series")
        self.coeffs = tuple(coeffs)

    def deg(self) -> int:
        return len(self.coeffs) - 1

    def one_like(self) -> "SSeries":
        """1 with this series' coefficient rings and length."""
        return SSeries([self.coeffs[0].one_like()] + [c.zero_like() for c in self.coeffs[1:]])

    def mul(self, other: "SSeries") -> "SSeries":
        a, b = self.coeffs, other.coeffs
        d = min(self.deg(), other.deg())
        return SSeries(
            [_sum_of_products((a[j], b[m - j]) for j in range(m + 1)) for m in range(d + 1)]
        )

    def inverse(self) -> "SSeries":
        if not self.coeffs[0].is_one():
            raise DomainError("s-series inverse requires constant coefficient 1")
        a = self.coeffs
        out = [a[0]]
        for m in range(1, len(a)):
            out.append(_sum_of_products((a[j], out[m - j]) for j in range(1, m + 1)).neg())
        return SSeries(out)

    def pow_int(self, e: int) -> "SSeries":
        if e < 0:
            return self.inverse().pow_int(-e)
        return power(self, e, SSeries.mul, self.one_like())

    def scale_s(self, factor_at) -> "SSeries":
        """Substitute c*s for s: coefficient k picks up factor_at(k)."""
        return SSeries([c.mul_int(factor_at(k)) for k, c in enumerate(self.coeffs)])


def exp_generating(weighted, one) -> SSeries:
    """exp of sum_k g_k s^k given the weighted terms w_k = k*g_k, TSeries
    like ``one``.

    Passing k*g_k instead of g_k keeps the recurrence down to a single
    exact division by m per output coefficient:
        F_m = (1/m) * sum_{j=1..m} w_j F_{m-j}.
    Divisibility is asserted; failures raise IntegralityError.  F_m's
    window is that of the sum of products, the smallest prec and cap of
    the w_j and F_(m-j) it reads: those of w_m and F_(m-1), which carries
    the smallest of the earlier ones.  Each sum is one _packed_sum, and
    every series is packed once, W bits a slot with n*cap*(p^top - 1)^2 <
    2^W for n = len(weighted) and the largest cap and prec of the inputs
    (the F_m have no larger ones).
    """
    p, n, inputs = one.p, len(weighted), (one, *weighted)
    top = max(s.prec for s in inputs)
    W = _slot_width(max(n, 1) * max(s.cap for s in inputs) * (p**top - 1) ** 2)
    ws = [_packed(w, W) for w in weighted]
    out, fs = [one], [_packed(one, W)]
    for m in range(1, n + 1):
        prec, cap = weighted[m - 1]._window(out[m - 1])
        F = _packed_sum(p, prec, cap, W, ws[:m], fs[::-1]).divexact_int(m)
        out.append(F)
        fs.append(_packed(F, W))
    return SSeries(out)


def _sum_of_products(pairs):
    """x1*y1 + x2*y2 + ... over a nonempty iterable of ring-element pairs,
    multiplied and added in order."""
    acc = None
    for x, y in pairs:
        t = x.mul(y)
        acc = t if acc is None else acc.add(t)
    return acc


# ---------------------------------------------------------------------------
# Newton polygons
# ---------------------------------------------------------------------------


def _grid(L: int, xs, ys) -> tuple:
    """A hull on the integer grid: vertex i is (xs[i], ys[i]/L), with xs
    strictly increasing coefficient indices.  L and the ys are divided by
    their common factor, so L is the least common denominator of the
    ordinates and equal hulls have equal grids."""
    ys = tuple(ys)
    g = math.gcd(L, *ys)
    return L // g, tuple(xs), tuple(y // g for y in ys)


def _vertices(grid) -> tuple:
    L, xs, ys = grid
    return tuple((x, Fraction(y, L)) for x, y in zip(xs, ys))


def _edge_value(L, xs, ys, i, x):
    """(num, den) of a hull's value at x = xs[i] or on its edge i."""
    x0 = xs[i]
    if x0 == x:
        return ys[i], L
    x1 = xs[i + 1]
    return ys[i] * (x1 - x) + ys[i + 1] * (x - x0), (x1 - x0) * L


def _at(grid, x):
    """The hull's value at a rational x in its range, as (num, den)."""
    L, xs, ys = grid
    if x < xs[0] or x > xs[-1]:
        raise DomainError(f"x={x} outside polygon range")
    return _edge_value(L, xs, ys, bisect.bisect_right(xs, x) - 1, x)


class NewtonPolygon(NamedTuple):
    """Lower convex hull, on the integer grid, plus the certification bound.

    floor_grid and upper_grid are hulls as (L, xs, ys) (see _grid);
    ``vertices`` and ``upper`` read them as ((x0,y0), (x1,y1), ...) with
    Fraction ordinates, strictly increasing x and nondecreasing slopes.
    certified_upto is the largest x at which the polygon is proven correct
    given the truncation caps of its inputs; vertices beyond it are the best
    value at working precision.

    Every polygon is a sandwich: ``vertices`` is a proven floor up to
    ``floor_upto`` and ``upper`` a proven ceiling up to ``upper_upto``.
    Built from one-sided valuations, ``upper`` is the hull of the visible
    ones; a polygon known exactly (Hodge) has ``upper = vertices``, a floor
    to its last vertex and a ceiling to ``certified_upto``.
    """

    floor_grid: tuple
    certified_upto: Fraction
    upper_grid: tuple
    floor_upto: Fraction
    upper_upto: Fraction

    @classmethod
    def known(cls, L: int, xs, ys):
        """A polygon known exactly, with vertices (xs[i], ys[i]/L): both
        hulls are that one, proven to its last vertex."""
        grid = _grid(L, xs, ys)
        x = grid[1][-1]
        return cls(grid, x, grid, x, x)

    @property
    def vertices(self) -> tuple:
        return _vertices(self.floor_grid)

    @property
    def upper(self) -> tuple:
        return _vertices(self.upper_grid)

    @property
    def last_x(self) -> int:
        return self.floor_grid[1][-1]

    def value_at(self, x) -> Fraction:
        return Fraction(*_at(self.floor_grid, Fraction(x)))

    def slope_at(self, x) -> Fraction:
        """Slope of the floor hull's edge from the last vertex <= x on, or
        of its last edge at its end."""
        L, xs, ys = self.floor_grid
        i = min(bisect.bisect_right(xs, x), len(xs) - 1) - 1
        assert i >= 0
        return Fraction(ys[i + 1] - ys[i], (xs[i + 1] - xs[i]) * L)

    def ceilings(self, upto: int) -> list:
        """ceil(value_at(x)) for the integers x = 0..upto, in integers."""
        return [-(-num // den) for num, den in (_at(self.floor_grid, x) for x in range(upto + 1))]


def _window(a, b, a_upto, b_upto, upto=None):
    """Largest x that both hulls reach and no bound passes."""
    w = min(a_upto, b_upto, a[1][-1], b[1][-1])
    return w if upto is None else min(w, Fraction(upto))


def _checkpoints(a, b, w):
    """(X, sign of a(x) - b(x)) at x = 0, at x = w and at every vertex of
    either hull in [0, w], by increasing x, where X = x*den(w) keeps a
    fractional w on the integer grid (X = x for an integer w).  Both hulls
    are linear between consecutive checkpoints, so comparing them there
    compares them on all of [0, w].  One merged pass over the two vertex
    lists gives each checkpoint both values as (num, den) in O(1); the
    signs come by cross-multiplication, one checkpoint at a time, as the
    caller asks."""
    wn, wd = w.numerator, w.denominator
    La, ax, ay = a
    Lb, bx, by = b
    if wd != 1:
        ax = [x * wd for x in ax]
        bx = [x * wd for x in bx]
    if ax[0] > 0 or bx[0] > 0:
        raise DomainError("x=0 outside polygon range")
    na, nb = len(ax) - 1, len(bx) - 1
    i = j = X = 0
    while True:
        # segment i of a and segment j of b hold X: ax[i] <= X < ax[i + 1]
        while i < na and ax[i + 1] <= X:
            i += 1
        while j < nb and bx[j + 1] <= X:
            j += 1
        an, ad = _edge_value(La, ax, ay, i, X)
        bn, bd = _edge_value(Lb, bx, by, j, X)
        d = an * bd - bn * ad
        yield X, (d > 0) - (d < 0)
        if X >= wn:
            return
        X = wn
        if i < na and ax[i + 1] < X:
            X = ax[i + 1]
        if j < nb and bx[j + 1] < X:
            X = bx[j + 1]


def lower_hull(points):
    """Lower convex hull (as a function of x) of exact points.

    points: iterable of (x, y), all ints (a hull on the integer grid) or
    exact rationals; duplicates in x keep the min y.  Returns the vertex
    list sorted by x.  Points are kept or dropped by cross-multiplication.
    """
    best = {}
    for x, y in points:
        if x not in best or y < best[x]:
            best[x] = y
    pts = sorted(best.items())
    if not pts:
        raise DomainError("no points for hull")
    hull = []
    for x, y in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # drop the middle point if it sits on or above the chord
            if (y1 - y0) * (x - x0) >= (y - y0) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append((x, y))
    return hull


def _cut_x(hull, ts: Fraction, v0: int, slope: int) -> int:
    """The first vertex of a floor hull (x, y*L) from which a chord into
    the ray (from ts on, value v0/L at ts and slope slope/L, a lower bound)
    dips below the outgoing edge: nothing before it can move.  With
    gap = td*(ts - x) for ts = tn/td, every comparison is one of integers."""
    tn, td = ts.numerator, ts.denominator
    for i, (xv, yv) in enumerate(hull):
        gap = tn - xv * td
        if gap <= 0 or i + 1 == len(hull):
            return xv
        x1, y1 = hull[i + 1]
        dx, dy = x1 - xv, y1 - yv
        if yv * td > v0 * td - slope * gap:
            # above the ray's line: the least chord runs to the ray's start
            dips = (v0 - yv) * td * dx < dy * gap
        else:
            dips = slope * dx < dy
        if dips:
            return xv


def certified_polygon(points, ray=None, lower=None, vals_exact=True) -> NewtonPolygon:
    """Build the Newton polygon of valuation data with honest certification.

    points: list of (x, val, cap) with x an integer >= 0, val a Fraction or
        None (meaning only val >= cap is known), cap a Fraction.
    ray: optional (start_x, start_val, slope) giving a proven lower bound
        val(x) >= start_val + slope*(x - start_x) for every x >= start_x
        beyond the computed range (used with the combinatorial lower-bound
        polygon for entire functions).
    lower: optional callable x -> Fraction, a proven pointwise lower bound
        on the true valuation, independent of the computed data.  It lifts
        unknown points above their caps and is the only downward control
        when vals are not exact.
    vals_exact: a coefficient that is a unit times p^prec prints as zero, so
        in a plain power series a stored valuation only bounds the true one
        from above.  Pass False in that situation and the floor hull drops
        such points to max(lower(x), 0); pass True (default) when the
        coefficient ring pushes its invisible tail above the cap, as the
        cyclotomic elements do.

    Certification is a sandwich: one hull takes every value at its lowest
    admissible position (caps, the ray, the lower bound), the other at its
    highest; the polygon is proven on the prefix where the two agree.  Both
    hulls, the ray and the walk between them work on one grid, over the
    least common denominator of every ordinate they read.
    """
    pts = sorted(points)
    if not pts or pts[0][0] != 0:
        raise DomainError("polygon data must start at x=0")

    def lo(x):
        return 0 if lower is None else max(0, lower(x))

    floor_vals, exact = [], []
    for x, v, c in pts:
        if v is None:
            floor_vals.append(max(c, lo(x)))
            continue
        exact.append((x, v))
        if vals_exact:
            floor_vals.append(v)
        else:
            b = lo(x)
            if b > v:
                raise TheoremViolation(
                    f"valuation {v} visible at x={x} undercuts the proven bound {b}"
                )
            floor_vals.append(b)
    if not exact:
        raise DomainError("no certified valuations at all")
    if ray is not None:
        ts, v0, slope = (Fraction(r) for r in ray)
    L = math.lcm(
        *(y.denominator for y in floor_vals),
        *(v.denominator for _, v in exact),
        *(() if ray is None else (v0.denominator, slope.denominator)),
    )

    def on_grid(y):
        return y.numerator * (L // y.denominator)

    hull_floor = lower_hull((x, on_grid(y)) for (x, _, _), y in zip(pts, floor_vals))
    hull_exact = lower_hull((x, on_grid(v)) for x, v in exact)
    if ray is None:
        cut_x = hull_floor[-1][0]
    else:
        cut_x = _cut_x(hull_floor, ts, on_grid(v0), on_grid(slope))
    floor = _grid(L, *zip(*hull_floor))
    upper = _grid(L, *zip(*hull_exact))
    upper_upto = exact[-1][0]

    # proven where the hulls agree, up to where the floor and the visible
    # data reach; the first checkpoint of disagreement ends the prefix
    certified = None
    if upper[1][0] == 0:
        for x, sign in _checkpoints(floor, upper, _window(floor, upper, cut_x, upper_upto)):
            if sign:
                break
            certified = x
    if certified is None:
        raise DomainError("polygons disagree at the left endpoint")
    # The floor hull stays below the true polygon as far as the ray protects
    # it; the visible hull stays above it wherever visible points exist,
    # since extra points (the invisible tail) only push a hull downward.
    return NewtonPolygon(floor, certified, upper, cut_x, upper_upto)


def polygon_from_sseries(F: SSeries, ray=None, lower=None, vals_exact=True) -> NewtonPolygon:
    """Newton polygon of an s-series from its coefficients' val_data()."""
    pts = []
    for k, c in enumerate(F.coeffs):
        v, cap = c.val_data()
        pts.append((k, v, cap))
    return certified_polygon(pts, ray=ray, lower=lower, vals_exact=vals_exact)


def polygon_rescale(P: NewtonPolygon, factor) -> NewtonPolygon:
    """Scale ordinates by an exact rational factor (valuation
    renormalisation): the grid's denominator and ordinates scale, and no
    vertex is rebuilt."""
    f = Fraction(factor)
    if f <= 0:
        raise DomainError("polygon rescale needs a positive factor")

    def scale(grid):
        L, xs, ys = grid
        return _grid(L * f.denominator, xs, (y * f.numerator for y in ys))

    return NewtonPolygon(
        scale(P.floor_grid), P.certified_upto, scale(P.upper_grid), P.floor_upto, P.upper_upto
    )


def polygon_dominates(P: NewtonPolygon, Q: NewtonPolygon, upto=None) -> bool:
    """True iff P >= Q pointwise on the common certified range."""
    a, b = P.floor_grid, Q.floor_grid
    w = _window(a, b, P.certified_upto, Q.certified_upto, upto)
    if w <= 0:
        raise DomainError("no common certified range to compare polygons on")
    return all(sign >= 0 for _, sign in _checkpoints(a, b, w))


def polygon_verdict(P: NewtonPolygon, Q: NewtonPolygon, upto=None) -> str:
    """Three-way answer to "does P equal Q?" when P >= Q is known a priori.

    The caller must hold a proof that the true P lies on or above the true Q
    (Hodge bound, specialisation, and the like); this routine only decides
    whether the computed sandwiches settle the equality question.

    'false' needs a single x where P's proven floor sits strictly above Q's
    visible ceiling: no resolution of the uncertified digits can close that
    gap.  'true' needs P's ceiling to come down to Q's floor across a
    positive shared window, which together with the premise pins P = Q
    there; like every 'true' here it speaks only about that prefix.
    Anything else is 'uncertified'.
    """
    a, b = P.floor_grid, Q.upper_grid
    w = _window(a, b, P.floor_upto, Q.upper_upto, upto)
    if w > 0 and any(sign > 0 for _, sign in _checkpoints(a, b, w)):
        return "false"
    a, b = P.upper_grid, Q.floor_grid
    w = _window(a, b, P.upper_upto, Q.floor_upto, upto)
    if w > 0 and all(sign <= 0 for _, sign in _checkpoints(a, b, w)):
        return "true"
    return "uncertified"
