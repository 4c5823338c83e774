"""Truncated power series with residue coefficients, and exact Newton polygons.

Two series layers live here.  _SparseSeries is one sparse truncated series
in an inner variable, with exponent keys in units of 1/den and residue
scalars mod p^prec; TSeries (integer scalars, T throughout the package) and
dwork.ZqPi (Z_q tuples, pi-exponents in (1/D)*Z) name their scalars on top
of it.  TSeries keeps its own product, cut at the smaller cap; ZqPi's is
the product of dwork._PiSeries, the bare ring of the operator route's
determinant kernel.  SSeries is a polynomial in an outer variable s whose
coefficients are ring elements implementing a small shared protocol
(add/sub/mul/neg/mul_int/divexact_int/is_zero/val_data).

Polygon geometry is exact: vertices are pairs of Fractions, never floats.
A polygon carries the largest x-coordinate up to which its shape is proven
correct given the truncation caps of the data it was built from.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

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
        prec, cap = self._window(other)
        out = {}
        bi = other.coeffs.items()
        for j, c in self.coeffs.items():
            for k, d in bi:
                e = j + k
                if e < cap:
                    out[e] = out.get(e, 0) + c * d
        return TSeries(self.p, prec, cap, out)

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
    """exp of sum_k g_k s^k given the weighted terms w_k = k*g_k.

    Passing k*g_k instead of g_k keeps the recurrence down to a single
    exact division by m per output coefficient:
        F_m = (1/m) * sum_{j=1..m} w_j F_{m-j}.
    Divisibility is asserted; failures raise IntegralityError.
    """
    out = [one]
    for m in range(1, len(weighted) + 1):
        acc = _sum_of_products((weighted[j - 1], out[m - j]) for j in range(1, m + 1))
        out.append(acc.divexact_int(m))
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


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull as a vertex list, plus the certification bound.

    vertices: ((x0,y0), (x1,y1), ...) with strictly increasing x and
    nondecreasing slopes.  certified_upto is the largest x at which the
    polygon is proven correct given the truncation caps of its inputs;
    vertices beyond it are the best value at working precision.

    Every polygon is a sandwich: ``vertices`` is a proven floor up to
    ``floor_upto`` and ``upper`` a proven ceiling up to ``upper_upto``.
    Built from one-sided valuations, ``upper`` is the hull of the visible
    ones; a polygon known exactly (Hodge) has ``upper = vertices``, a floor
    to its last vertex and a ceiling to ``certified_upto``.
    """

    vertices: tuple
    certified_upto: Fraction
    upper: tuple
    floor_upto: Fraction
    upper_upto: Fraction

    @property
    def last_x(self) -> Fraction:
        return self.vertices[-1][0]

    def value_at(self, x) -> Fraction:
        return _hull_value(self.vertices, Fraction(x))


def _hull_value(vs, x: Fraction) -> Fraction:
    if x < vs[0][0] or x > vs[-1][0]:
        raise DomainError(f"x={x} outside polygon range")
    for (x0, y0), (x1, y1) in zip(vs, vs[1:]):
        if x0 <= x <= x1:
            if x == x0:
                return y0
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return vs[-1][1]


def _window(a, b, a_upto, b_upto, upto=None) -> Fraction:
    """Largest x that both hulls reach and no bound passes."""
    w = min(a_upto, b_upto, a[-1][0], b[-1][0])
    return w if upto is None else min(w, Fraction(upto))


def _checkpoints(a, b, w):
    """(x, a(x), b(x)) at 0, at w and at every vertex of either hull in
    [0, w], by increasing x.  Both hulls are linear between consecutive
    checkpoints, so comparing them there compares them on all of [0, w];
    the values are computed one checkpoint at a time, as the caller asks."""
    xs = {Fraction(0), w}
    xs.update(x for x, _ in a if 0 <= x <= w)
    xs.update(x for x, _ in b if 0 <= x <= w)
    for x in sorted(xs):
        yield x, _hull_value(a, x), _hull_value(b, x)


def lower_hull(points):
    """Lower convex hull (as a function of x) of exact points.

    points: iterable of (x, y) Fractions; duplicates in x keep the min y.
    Returns the vertex list sorted by x.
    """
    best = {}
    for x, y in points:
        x, y = Fraction(x), Fraction(y)
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
    highest; the polygon is proven on the prefix where the two agree.
    """
    pts = sorted(points)
    if not pts or pts[0][0] != 0:
        raise DomainError("polygon data must start at x=0")

    def lo(x):
        if lower is None:
            return Fraction(0)
        return max(Fraction(0), Fraction(lower(x)))

    floor_pts = []
    for x, v, c in pts:
        fx = Fraction(x)
        if v is None:
            floor_pts.append((fx, max(Fraction(c), lo(fx))))
        elif vals_exact:
            floor_pts.append((fx, Fraction(v)))
        else:
            b = lo(fx)
            if b > Fraction(v):
                raise TheoremViolation(
                    f"valuation {v} visible at x={x} undercuts the proven bound {b}"
                )
            floor_pts.append((fx, b))
    exact_pts = [(Fraction(x), Fraction(v)) for x, v, c in pts if v is not None]
    if not exact_pts:
        raise DomainError("no certified valuations at all")
    hull_floor = lower_hull(floor_pts)
    hull_exact = lower_hull(exact_pts)

    cut_x = hull_floor[-1][0]
    if ray is not None:
        ts, v0, slope = Fraction(ray[0]), Fraction(ray[1]), Fraction(ray[2])
        # Walk the floor hull and find the first vertex from which a chord to
        # the ray dips below the outgoing edge; nothing before it can move.
        cut_x = None
        for i, (xv, yv) in enumerate(hull_floor):
            if xv >= ts:
                cut_x = xv
                break
            # minimal chord slope from (xv, yv) into the ray region
            at_start = (v0 - yv) / (ts - xv)
            line_val = v0 + slope * (xv - ts)
            min_chord = at_start if yv > line_val else slope
            out_slope = None
            if i + 1 < len(hull_floor):
                x1, y1 = hull_floor[i + 1]
                out_slope = (y1 - yv) / (x1 - xv)
            if out_slope is None or min_chord < out_slope:
                cut_x = xv
                break
        if cut_x is None:
            cut_x = hull_floor[-1][0]

    # proven where the hulls agree, up to where the floor and the visible
    # data reach; the first checkpoint of disagreement ends the prefix
    certified = None
    if hull_exact[0][0] == 0:
        w = _window(hull_floor, hull_exact, cut_x, exact_pts[-1][0])
        for x, fv, ev in _checkpoints(hull_floor, hull_exact, w):
            if fv != ev:
                break
            certified = x
    if certified is None:
        raise DomainError("polygons disagree at the left endpoint")
    # The floor hull stays below the true polygon as far as the ray protects
    # it; the visible hull stays above it wherever visible points exist,
    # since extra points (the invisible tail) only push a hull downward.
    return NewtonPolygon(
        vertices=tuple(hull_floor),
        certified_upto=certified,
        upper=tuple(hull_exact),
        floor_upto=cut_x,
        upper_upto=exact_pts[-1][0],
    )


def polygon_from_sseries(F: SSeries, ray=None, lower=None, vals_exact=True) -> NewtonPolygon:
    """Newton polygon of an s-series from its coefficients' val_data()."""
    pts = []
    for k, c in enumerate(F.coeffs):
        v, cap = c.val_data()
        pts.append((k, v, cap))
    return certified_polygon(pts, ray=ray, lower=lower, vals_exact=vals_exact)


def polygon_rescale(P: NewtonPolygon, factor) -> NewtonPolygon:
    """Scale ordinates by an exact rational factor (valuation renormalisation)."""
    f = Fraction(factor)
    if f <= 0:
        raise DomainError("polygon rescale needs a positive factor")
    return NewtonPolygon(
        vertices=tuple((x, y * f) for x, y in P.vertices),
        certified_upto=P.certified_upto,
        upper=tuple((x, y * f) for x, y in P.upper),
        floor_upto=P.floor_upto,
        upper_upto=P.upper_upto,
    )


def polygon_dominates(P: NewtonPolygon, Q: NewtonPolygon, upto=None) -> bool:
    """True iff P >= Q pointwise on the common certified range."""
    w = _window(P.vertices, Q.vertices, P.certified_upto, Q.certified_upto, upto)
    if w <= 0:
        raise DomainError("no common certified range to compare polygons on")
    return all(pv >= qv for _, pv, qv in _checkpoints(P.vertices, Q.vertices, w))


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
    w = _window(P.vertices, Q.upper, P.floor_upto, Q.upper_upto, upto)
    if w > 0 and any(pv > qv for _, pv, qv in _checkpoints(P.vertices, Q.upper, w)):
        return "false"
    w = _window(P.upper, Q.vertices, P.upper_upto, Q.floor_upto, upto)
    if w > 0 and all(pv <= qv for _, pv, qv in _checkpoints(P.upper, Q.vertices, w)):
        return "true"
    return "uncertified"
