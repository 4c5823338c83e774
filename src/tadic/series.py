"""Truncated power series with residue coefficients, and exact Newton polygons.

Two series layers live here.  TSeries is a truncated series in one inner
variable (T throughout the package, but pi-adic expansions with exponents in
(1/D)*Z reuse the class through the ``den`` field) whose coefficients are
integers mod p^prec.  SSeries is a polynomial in an outer variable s whose
coefficients are ring elements implementing a small shared protocol
(add/sub/mul/neg/mul_int/divexact_int/is_zero/val_data).

Polygon geometry is exact: vertices are pairs of Fractions, never floats.
A polygon carries the largest x-coordinate up to which its shape is proven
correct given the truncation caps of the data it was built from.
"""

from __future__ import annotations

import math
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


class TSeries:
    """sum_j c_j X^j truncated below X^cap, with c_j mod p^prec.

    Only nonzero residues are stored.  Operations take the minimum of the
    operands' p-precision and exponent caps, so results are always certified
    to their stated moduli.
    """

    __slots__ = ("p", "prec", "cap", "coeffs", "pm")

    def __init__(self, p: int, prec: int, cap: int, coeffs=None):
        if prec <= 0:
            raise PrecisionError(f"no certified p-digits left (prec={prec})")
        if cap <= 0:
            raise PrecisionError(f"no certified exponents left (cap={cap})")
        self.p = p
        self.prec = prec
        self.cap = cap
        self.pm = p**prec
        clean = {}
        if coeffs:
            for j, c in coeffs.items():
                if 0 <= j < cap:
                    c %= self.pm
                    if c:
                        clean[j] = c
                elif j < 0:
                    raise DomainError("negative exponent in truncated series")
        self.coeffs = clean

    @classmethod
    def const(cls, p, prec, cap, value):
        return cls(p, prec, cap, {0: value})

    @classmethod
    def zero(cls, p, prec, cap):
        return cls(p, prec, cap, {})

    # -- protocol helpers ------------------------------------------------

    def zero_like(self):
        return TSeries(self.p, self.prec, self.cap, {})

    def one_like(self):
        return TSeries(self.p, self.prec, self.cap, {0: 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == {0: 1}

    def val_data(self):
        """(valuation, cap); valuation None if no nonzero residue survives
        (i.e. only '>= cap' is known)."""
        if self.coeffs:
            return Fraction(min(self.coeffs)), Fraction(self.cap)
        return None, Fraction(self.cap)

    def _common(self, other):
        if self.p != other.p:
            raise DomainError("series live in different rings")
        return min(self.prec, other.prec), min(self.cap, other.cap)

    # -- ring operations -------------------------------------------------

    def add(self, other: "TSeries") -> "TSeries":
        prec, cap = self._common(other)
        out = dict(self.coeffs)
        for j, c in other.coeffs.items():
            out[j] = out.get(j, 0) + c
        return TSeries(self.p, prec, cap, out)

    def sub(self, other: "TSeries") -> "TSeries":
        return self.add(other.neg())

    def neg(self) -> "TSeries":
        return TSeries(self.p, self.prec, self.cap, {j: self.pm - c for j, c in self.coeffs.items()})

    def mul(self, other: "TSeries") -> "TSeries":
        prec, cap = self._common(other)
        out = {}
        bi = other.coeffs.items()
        for j, c in self.coeffs.items():
            for k, d in bi:
                e = j + k
                if e < cap:
                    out[e] = out.get(e, 0) + c * d
        return TSeries(self.p, prec, cap, out)

    def mul_int(self, c: int) -> "TSeries":
        return TSeries(self.p, self.prec, self.cap, {j: v * c for j, v in self.coeffs.items()})

    def divexact_int(self, k: int) -> "TSeries":
        """Divide by a nonzero integer, asserting exact divisibility of every
        residue by the p-part of k.  Costs vp(k) digits of p-precision."""
        if k == 0:
            raise ZeroDivisionError
        sign = -1 if k < 0 else 1
        k = abs(k)
        v = vp(k, self.p) if k % self.p == 0 else 0
        unit = k // self.p**v
        new_prec = self.prec - v
        if new_prec <= 0:
            raise PrecisionError(f"division by {sign * k} exhausts p-precision {self.prec}")
        pv = self.p**v
        pm = self.p**new_prec
        inv = pow(unit, -1, pm)
        out = {}
        for j, c in self.coeffs.items():
            if c % pv:
                raise IntegralityError(
                    f"residue at exponent {j} not divisible by {self.p}^{v}"
                )
            out[j] = (c // pv) * inv * sign
        return TSeries(self.p, new_prec, self.cap, out)

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

    # -- structural operations --------------------------------------------

    def truncate(self, cap: int) -> "TSeries":
        return TSeries(self.p, self.prec, min(cap, self.cap), self.coeffs)

    def with_prec(self, prec: int) -> "TSeries":
        if prec > self.prec:
            raise PrecisionError("cannot invent p-digits")
        return TSeries(self.p, prec, self.cap, self.coeffs)

    def shift(self, units: int) -> "TSeries":
        """Multiply by X^units; truncation cap moves with the shift."""
        if units < 0 and any(j + units < 0 for j in self.coeffs):
            raise DomainError("shift would create negative exponents")
        return TSeries(
            self.p,
            self.prec,
            self.cap + units,
            {j + units: c for j, c in self.coeffs.items()},
        )

    # -- inspection ---------------------------------------------------------

    def coeff(self, j: int) -> int:
        return self.coeffs.get(j, 0)

    def sorted_items(self):
        return sorted(self.coeffs.items())

    def agrees_with(self, other: "TSeries", cap_units: Optional[int] = None, prec: Optional[int] = None) -> bool:
        prec = min(self.prec, other.prec) if prec is None else prec
        cap = min(self.cap, other.cap) if cap_units is None else cap_units
        pm = self.p**prec
        for j in range(cap):
            if (self.coeffs.get(j, 0) - other.coeffs.get(j, 0)) % pm:
                return False
        return True

    def __repr__(self):
        terms = ", ".join(f"{j}: {c}" for j, c in self.sorted_items())
        return f"TSeries(p={self.p}, prec={self.prec}, cap={self.cap}, {{{terms}}})"

    def __eq__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        return (
            self.p == other.p
            and self.prec == other.prec
            and self.cap == other.cap
            and self.coeffs == other.coeffs
        )

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

    def mul(self, other: "SSeries") -> "SSeries":
        d = min(self.deg(), other.deg())
        out = []
        for m in range(d + 1):
            acc = None
            for j in range(m + 1):
                t = self.coeffs[j].mul(other.coeffs[m - j])
                acc = t if acc is None else acc.add(t)
            out.append(acc)
        return SSeries(out)

    def inverse(self) -> "SSeries":
        if not self.coeffs[0].is_one():
            raise DomainError("s-series inverse requires constant coefficient 1")
        one = self.coeffs[0]
        out = [one]
        for m in range(1, len(self.coeffs)):
            acc = None
            for j in range(1, m + 1):
                t = self.coeffs[j].mul(out[m - j])
                acc = t if acc is None else acc.add(t)
            out.append(acc.neg() if acc is not None else one.zero_like())
        return SSeries(out)

    def pow_int(self, e: int) -> "SSeries":
        if e < 0:
            return self.inverse().pow_int(-e)
        one = SSeries([self.coeffs[0].one_like()] + [c.zero_like() for c in self.coeffs[1:]])
        return power(self, e, SSeries.mul, one)

    def scale_s(self, factor_at) -> "SSeries":
        """Substitute c*s for s: coefficient k picks up factor_at(k)."""
        return SSeries([c.mul_int(factor_at(k)) for k, c in enumerate(self.coeffs)])

    def truncate(self, deg: int) -> "SSeries":
        return SSeries(self.coeffs[: deg + 1])


def exp_generating(weighted, one) -> SSeries:
    """exp of sum_k g_k s^k given the weighted terms w_k = k*g_k.

    Passing k*g_k instead of g_k keeps the recurrence down to a single
    exact division by m per output coefficient:
        F_m = (1/m) * sum_{j=1..m} w_j F_{m-j}.
    Divisibility is asserted; failures raise IntegralityError.
    """
    out = [one]
    for m in range(1, len(weighted) + 1):
        acc = None
        for j in range(1, m + 1):
            t = weighted[j - 1].mul(out[m - j])
            acc = t if acc is None else acc.add(t)
        out.append(acc.divexact_int(m))
    return SSeries(out)


def log_generating(F: SSeries):
    """Inverse of exp_generating: returns the weighted list w_k = k*g_k.

    Division-free:  w_m = m*a_m - sum_{j<m} w_j a_{m-j}  (a_0 = 1 required).
    """
    if not F.coeffs[0].is_one():
        raise DomainError("log requires constant coefficient 1")
    w = []
    for m in range(1, len(F.coeffs)):
        acc = F.coeffs[m].mul_int(m)
        for j in range(1, m):
            acc = acc.sub(w[j - 1].mul(F.coeffs[m - j]))
        w.append(acc)
    return w


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

    When the input valuations are themselves only one-sided bounds, the
    polygon is a sandwich: ``vertices`` is the proven floor (valid up to
    ``floor_upto``) and ``upper`` the hull of the visible valuations, a
    proven ceiling up to ``upper_upto``.  Both optional fields default to
    the exact reading, where the vertex list plays both roles on the
    certified prefix.
    """

    vertices: tuple
    certified_upto: Fraction
    upper: Optional[tuple] = None
    floor_upto: Optional[Fraction] = None
    upper_upto: Optional[Fraction] = None

    @property
    def last_x(self) -> Fraction:
        return self.vertices[-1][0]

    @property
    def floor_valid_to(self) -> Fraction:
        """Largest x where ``vertices`` provably lower-bounds the true polygon."""
        return self.last_x if self.floor_upto is None else self.floor_upto

    @property
    def upper_hull(self) -> tuple:
        return self.vertices if self.upper is None else self.upper

    @property
    def upper_valid_to(self) -> Fraction:
        """Largest x where ``upper_hull`` provably upper-bounds the true polygon."""
        if self.upper_upto is not None:
            return self.upper_upto
        # exact data is a ceiling only where it is pinned
        return self.certified_upto

    def value_at(self, x) -> Fraction:
        return _hull_value(self.vertices, Fraction(x))

    def edges(self):
        """(slope, width) per edge, slopes nondecreasing."""
        out = []
        for (x0, y0), (x1, y1) in zip(self.vertices, self.vertices[1:]):
            out.append(((y1 - y0) / (x1 - x0), x1 - x0))
        return out

    def unit_slopes(self, upto: int):
        """Slope over each unit interval [i, i+1) for i < upto."""
        if upto > self.last_x:
            raise DomainError("polygon too short for requested slopes")
        return [self.value_at(i + 1) - self.value_at(i) for i in range(upto)]


def _hull_value(vs, x: Fraction) -> Fraction:
    if x < vs[0][0] or x > vs[-1][0]:
        raise DomainError(f"x={x} outside polygon range")
    for (x0, y0), (x1, y1) in zip(vs, vs[1:]):
        if x0 <= x <= x1:
            if x == x0:
                return y0
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return vs[-1][1]


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


def _equal_prefix(f_verts, g_verts) -> Fraction:
    """Largest x such that two piecewise-linear functions agree on [x0, x]."""

    def val(verts, x):
        for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
            if x0 <= x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        if x == verts[0][0] == verts[-1][0]:
            return verts[0][1]
        return None

    hi = min(f_verts[-1][0], g_verts[-1][0])
    checkpoints = sorted(
        {x for x, _ in f_verts if x <= hi} | {x for x, _ in g_verts if x <= hi}
    )
    good = None
    for x in checkpoints:
        fv, gv = val(f_verts, x), val(g_verts, x)
        if fv is None or gv is None or fv != gv:
            break
        good = x
    if good is None:
        raise DomainError("polygons disagree at the left endpoint")
    return good


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

    certified = min(_equal_prefix(hull_floor, hull_exact), cut_x, exact_pts[-1][0])
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
        upper=None if P.upper is None else tuple((x, y * f) for x, y in P.upper),
        floor_upto=P.floor_upto,
        upper_upto=P.upper_upto,
    )


def _common_range(P: NewtonPolygon, Q: NewtonPolygon, upto=None) -> Fraction:
    hi = min(P.certified_upto, Q.certified_upto, P.last_x, Q.last_x)
    if upto is not None:
        hi = min(hi, Fraction(upto))
    if hi <= 0:
        raise DomainError("no common certified range to compare polygons on")
    return hi

def polygon_dominates(P: NewtonPolygon, Q: NewtonPolygon, upto=None) -> bool:
    """True iff P >= Q pointwise on the common certified range."""
    hi = _common_range(P, Q, upto)
    xs = {Fraction(0), hi}
    for x, _ in P.vertices:
        if 0 <= x <= hi:
            xs.add(x)
    for x, _ in Q.vertices:
        if 0 <= x <= hi:
            xs.add(x)
    return all(P.value_at(x) >= Q.value_at(x) for x in sorted(xs))


def polygons_equal_on(P: NewtonPolygon, Q: NewtonPolygon, upto=None) -> bool:
    hi = _common_range(P, Q, upto)
    return polygon_dominates(P, Q, hi) and polygon_dominates(Q, P, hi)


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
    cap = None if upto is None else Fraction(upto)

    def window(a, a_valid, b, b_valid):
        w = min(a_valid, b_valid, a[-1][0], b[-1][0])
        return w if cap is None else min(w, cap)

    def checkpoints(a, b, w):
        xs = {Fraction(0), w}
        xs.update(x for x, _ in a if 0 <= x <= w)
        xs.update(x for x, _ in b if 0 <= x <= w)
        return sorted(xs)

    pf, pu = P.vertices, P.upper_hull
    qf, qu = Q.vertices, Q.upper_hull

    w = window(pf, P.floor_valid_to, qu, Q.upper_valid_to)
    if w > 0 and any(
        _hull_value(pf, x) > _hull_value(qu, x) for x in checkpoints(pf, qu, w)
    ):
        return "false"

    w = window(pu, P.upper_valid_to, qf, Q.floor_valid_to)
    if w > 0 and all(
        _hull_value(pu, x) <= _hull_value(qf, x) for x in checkpoints(pu, qf, w)
    ):
        return "true"
    return "uncertified"


# ---------------------------------------------------------------------------
# Slope multisets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlopeSeries:
    """Finite multiset of slopes with multiplicities, sorted ascending.

    ``cap`` is the bound below which the multiset is complete (None for a
    finite, fully known multiset such as the slopes of a polynomial).
    """

    items: tuple
    cap: Optional[Fraction] = None

    @classmethod
    def from_polygon(cls, P: NewtonPolygon, upto: int) -> "SlopeSeries":
        if Fraction(upto) > P.certified_upto:
            raise DomainError("cannot read slopes beyond the certified prefix")
        counts = {}
        for s in P.unit_slopes(upto):
            counts[s] = counts.get(s, 0) + 1
        top = max(counts) if counts else Fraction(0)
        return cls(items=tuple(sorted(counts.items())), cap=top + 1)

    def to_polygon(self) -> NewtonPolygon:
        verts = [(Fraction(0), Fraction(0))]
        x, y = Fraction(0), Fraction(0)
        for s, m in self.items:
            x, y = x + m, y + s * m
            verts.append((x, y))
        return NewtonPolygon(vertices=tuple(verts), certified_upto=x)

    def prefix(self, count: int):
        """First ``count`` slopes with multiplicity, flattened."""
        out = []
        for s, m in self.items:
            for _ in range(m):
                out.append(s)
                if len(out) == count:
                    return out
        return out


def slope_series_mul(A: SlopeSeries, B: SlopeSeries, slope_cap) -> SlopeSeries:
    """Multiset convolution {a+b}, truncated to slopes < slope_cap.

    The factors must be complete below the relevant ranges: slopes of A+B
    below slope_cap only need a-slopes and b-slopes below slope_cap minus
    the other factor's minimum, which the caller guarantees by generating
    both inputs at least that far.
    """
    cap = Fraction(slope_cap)
    for S in (A, B):
        if S.cap is not None and S.cap < cap:
            raise DomainError("slope factor not complete below requested cap")
    counts = {}
    for sa, ma in A.items:
        for sb, mb in B.items:
            s = sa + sb
            if s < cap:
                counts[s] = counts.get(s, 0) + ma * mb
    return SlopeSeries(items=tuple(sorted(counts.items())), cap=cap)


def geometric_slopes(n: int, slope_cap: int) -> SlopeSeries:
    """Slope multiset of 1/(1-t)^n: slope j with multiplicity C(n+j-1, j)."""
    items = tuple((Fraction(j), math.comb(n + j - 1, j)) for j in range(slope_cap))
    return SlopeSeries(items=items, cap=Fraction(slope_cap))
