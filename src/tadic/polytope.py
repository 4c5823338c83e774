"""Laurent polynomials, their text parser, and their Newton polytopes.

Everything here is exact: integer lattice work uses unimodular column
reduction, hyperplanes use primitive integer normals, and degrees are
Fractions.  The polytope Delta of f is the convex hull of the origin and
the exponent vectors; when that hull is lower-dimensional the lattice
points of its span are mapped to a saturated coordinate system first, so
all downstream code can assume a full-dimensional polytope; the column
reduction's integer left inverse reads those coordinates off.  Delta
depends only on the support, so newton_data keeps one DegreeData each.

Facet search is exhaustive over point subsets (dimensions <= 4), which
avoids any convex-hull dependency at the scales this package targets.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Optional

from .arith import TORUS_LIMIT, FieldContext
from .errors import DomainError, ParseError
from .series import NewtonPolygon, polygon_rescale


# ---------------------------------------------------------------------------
# exact integer linear algebra
# ---------------------------------------------------------------------------


def column_echelon(rows, n):
    """(E, U, V, rank): the column echelon E = M*U, as rows, of an integer
    matrix M with n columns, U unimodular and V = U^-1.  Row by row,
    Euclid's steps leave one nonzero entry among the columns not yet
    pivoted, moved to the next pivot column: so column j < rank is zero
    above its pivot row, and the columns from rank on are zero."""
    M = [list(r) for r in rows]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    V = [row[:] for row in U]
    rank = 0
    for row in M:
        while True:
            nz = sorted((j for j in range(rank, n) if row[j]), key=lambda j: abs(row[j]))
            if len(nz) <= 1:
                break
            j0, j1 = nz[:2]
            quo = row[j1] // row[j0]
            for r in M + U:
                r[j1] -= quo * r[j0]
            V[j0] = [a + quo * b for a, b in zip(V[j0], V[j1])]
        if nz:
            j = nz[0]
            for r in M + U:
                r[rank], r[j] = r[j], r[rank]
            V[rank], V[j] = V[j], V[rank]
            rank += 1
    return M, U, V, rank


def integer_kernel(rows, n):
    """Basis of the lattice {x in Z^n : M x = 0} for an integer matrix M,
    and an integer left inverse of it: the columns of U past the rank of
    M's column echelon (saturated, as U is unimodular), and the rows of
    V = U^-1 over that range."""
    _, U, V, rank = column_echelon(rows, n)
    return [tuple(r[j] for r in U) for j in range(rank, n)], [tuple(V[j]) for j in range(rank, n)]


def primitive(vec):
    g = 0
    for c in vec:
        g = gcd(g, c)
    if g == 0:
        return None
    out = tuple(c // g for c in vec)
    for c in out:
        if c:
            return out if c > 0 else tuple(-x for x in out)
    return None


def saturated_span(vectors, n):
    """Integer basis of span_Q(vectors) ∩ Z^n (empty list for zero span),
    and an integer left inverse of it."""
    identity = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    normals = integer_kernel(vectors, n)[0] if vectors else identity
    return integer_kernel(normals, n) if normals else (identity, identity)


def _combine(basis, c, n):
    return tuple(sum(b[i] * x for b, x in zip(basis, c)) for i in range(n))


def _coordinates(basis, inverse, u):
    """Coordinates of the integer vector u in a saturated basis, read off by
    its left inverse and confirmed by recombining; None off its span."""
    c = tuple(sum(a * b for a, b in zip(row, u)) for row in inverse)
    return c if _combine(basis, c, len(u)) == u else None


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentPoly:
    """Laurent polynomial over F_q: exponent vectors -> nonzero coefficients.

    Coefficients are field-element tuples of ``ctx``; a polynomial supported
    only on the origin carries no geometry and is rejected.
    """

    n: int
    terms: tuple  # ((exps, coeff), ...) sorted by exps
    ctx: object = field(compare=False)

    @classmethod
    def make(cls, n, term_map, ctx):
        clean = {}
        for exps, coeff in term_map.items():
            if len(exps) != n:
                raise DomainError("exponent arity mismatch")
            if coeff == ctx.zero():
                raise DomainError("zero coefficient in Laurent polynomial")
            if exps in clean:
                raise DomainError("duplicate exponent")
            clean[tuple(int(e) for e in exps)] = coeff
        if not clean:
            raise DomainError("empty polynomial")
        if all(not any(e) for e in clean):
            raise DomainError("polynomial supported only at the origin")
        return cls(n=n, terms=tuple(sorted(clean.items())), ctx=ctx)

    def exponents(self):
        return [e for e, _ in self.terms]

    def coeff_map(self):
        return dict(self.terms)

    def partial(self, i: int) -> dict:
        """Formal partial derivative as exponent -> coefficient (may be empty).

        Distinct source exponents shift to distinct targets, so no merging
        can occur; terms with p | exponent simply drop out.
        """
        out = {}
        for exps, coeff in self.terms:
            ui = exps[i] % self.ctx.p
            if ui:
                e2 = tuple(e - (1 if j == i else 0) for j, e in enumerate(exps))
                out[e2] = tuple(c * ui % self.ctx.p for c in coeff)
        return out


# ---------------------------------------------------------------------------
# Laurent polynomial parser
# ---------------------------------------------------------------------------

_WS = re.compile(r"\s*")
_INT = re.compile(r"-?\d+")
_VAR = re.compile(r"x(\d+)")


class _Scanner:
    __slots__ = ("text", "i")

    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def skip_ws(self):
        self.i = _WS.match(self.text, self.i).end()

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def match(self, pat):
        self.skip_ws()
        m = pat.match(self.text, self.i)
        if m:
            self.i = m.end()
        return m


def _parse_power(sc: _Scanner) -> int:
    if sc.peek() == "^":
        sc.i += 1
        m = sc.match(_INT)
        if not m:
            raise ParseError("expected integer exponent after '^'", sc.i)
        return int(m.group())
    return 1


def _parse_factor(sc: _Scanner, exps: dict):
    """One '*'-joined variable power x_i^e, added into ``exps``."""
    m = sc.match(_VAR)
    if not m:
        raise ParseError("expected a variable like x1", sc.i)
    idx = int(m.group(1))
    if idx < 1:
        raise ParseError("variable indices start at x1", sc.i)
    exps[idx] = exps.get(idx, 0) + _parse_power(sc)


def _parse_coeff(sc: _Scanner, ctx: FieldContext):
    """Leading coefficient of a term, or None if the term starts with a variable."""
    c = sc.peek()
    if c == "g":
        start = sc.i
        sc.i += 1
        if sc.peek() != "^":
            raise ParseError("generator powers are written g^k", start)
        sc.i += 1
        m = sc.match(_INT)
        if not m:
            raise ParseError("expected integer exponent after 'g^'", sc.i)
        return ctx.pow(ctx.generator, int(m.group()))
    if c.isdigit() or c == "-":
        start = sc.i
        m = sc.match(_INT)
        if not m:
            raise ParseError("expected an integer coefficient", sc.i)
        val = ctx.from_int(int(m.group()))
        if val == ctx.zero():
            raise ParseError(
                f"coefficient {m.group()} reduces to zero mod {ctx.p}", start
            )
        return val
    return None


def parse_laurent(text: str, ctx: FieldContext) -> LaurentPoly:
    """Parse `term (+|- term)*` where a term is an optional coefficient
    (integer, or g^k in generator notation) times a product of variable
    powers x1^e1*x2^e2...  The variable count is the largest index used."""
    sc = _Scanner(text)
    if sc.peek() == "":
        raise ParseError("empty polynomial", 0)
    raw = []
    sign = 1
    first = True
    while True:
        c = sc.peek()
        if not first:
            if c == "":
                break
            if c == "+":
                sign = 1
            elif c == "-":
                sign = -1
            else:
                raise ParseError("expected '+' or '-' between terms", sc.i)
            sc.i += 1
        first = False
        term_at = sc.i
        coeff = _parse_coeff(sc, ctx)
        exps: dict = {}
        if coeff is None:
            coeff = ctx.one()
            _parse_factor(sc, exps)
        while sc.peek() == "*":
            sc.i += 1
            _parse_factor(sc, exps)
        if sign < 0:
            coeff = ctx.neg(coeff)
        raw.append((exps, coeff, term_at))
    n = max((max(e) for e, _, _ in raw if e), default=0)
    if n == 0:
        raise ParseError("no variables: a constant has no exponential sum", 0)
    merged: dict = {}
    for e, coeff, at in raw:
        key = tuple(e.get(i, 0) for i in range(1, n + 1))
        if key in merged:
            merged[key] = ctx.add(merged[key], coeff)
            if merged[key] == ctx.zero():
                raise ParseError("terms cancel to a zero coefficient", at)
        else:
            merged[key] = coeff
    return LaurentPoly.make(n, merged, ctx)


# ---------------------------------------------------------------------------
# degree data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Facet:
    normal: tuple  # primitive integer normal in reduced coordinates
    offset: int  # <normal, x> <= offset on Delta; offset >= 0, 0 = through origin
    points: tuple  # reduced points of the defining set lying on the facet


@dataclass(frozen=True)
class Face:
    """Closed face of Delta: the points of the defining set it contains and
    the facet equalities cutting it out (reduced coordinates)."""

    cuts: tuple  # ((normal, offset), ...)
    points: tuple  # reduced coordinates
    contains_origin: bool


def common_points(facets) -> tuple:
    """The points of the defining set on every one of ``facets``, in the
    order of their points: the intersection of their incidence sets."""
    first, *rest = facets
    others = [set(f.points) for f in rest]
    return tuple(q for q in first.points if all(q in s for s in others))


# hard ceiling on the lattice box cone_points_upto scans, checked before
# the scan; each box point costs one cone test
BOX_LIMIT = 2**18


class DegreeData:
    """Polytope Delta = conv(0, exponents) with its weight function.

    deg(u) = min{c >= 0 : u in c*Delta} for lattice u in the cone over
    Delta; D is the common denominator lcm of the facet offsets; W(k)
    counts cone lattice points of degree k/D.  The deepest cone scan is kept
    (one per support, as newton_data shares the object), and every smaller
    depth is read off it.
    """

    def __init__(self, exponents, n):
        pts = {tuple(int(c) for c in e) for e in exponents}
        pts.add((0,) * n)
        self.n = n
        self.points = tuple(sorted(pts))
        span = saturated_span([p for p in self.points if any(p)], n)
        self.basis, self.inverse = map(tuple, span)
        self.rank = len(self.basis)
        if self.rank == 0:
            raise DomainError("polytope is a single point")
        red = [self.to_reduced(p) for p in self.points]
        assert all(r is not None for r in red)
        self.red_points = tuple(sorted(set(red)))
        facets = _facets_of(self.red_points, self.rank)
        # origin evaluates to 0 <= offset, so offsets are never negative here
        assert all(f.offset >= 0 for f in facets)
        self.facets = tuple(sorted(facets, key=lambda f: (f.offset, f.normal)))
        self.facets_origin = tuple(f for f in self.facets if f.offset == 0)
        self.facets_height = tuple(f for f in self.facets if f.offset > 0)
        if not self.facets_height:
            raise DomainError("polytope has no facet away from the origin")
        self.D = lcm(*[f.offset for f in self.facets_height])
        # each height facet's normal times D/offset: <normal, u>/offset is
        # <grid normal, u>/D, so degrees are integers on the 1/D grid
        self.grid_normals = tuple(
            tuple(c * (self.D // f.offset) for c in f.normal) for f in self.facets_height
        )
        self._cone = None  # the deepest cone scan, see _scan

    # -- coordinates --------------------------------------------------------

    def to_reduced(self, u) -> Optional[tuple]:
        """Integer coordinates of u in the saturated span basis, or None."""
        return _coordinates(self.basis, self.inverse, tuple(int(c) for c in u))

    # -- cone and degree ------------------------------------------------------

    def in_cone_reduced(self, ur) -> bool:
        return all(
            sum(a * b for a, b in zip(f.normal, ur)) <= 0 for f in self.facets_origin
        )

    def grid_degree(self, ur) -> int:
        """D*deg(ur) for a reduced point of the cone (not checked)."""
        return max(0, *(sum(a * b for a, b in zip(g, ur)) for g in self.grid_normals))

    # -- lattice point enumeration --------------------------------------------

    def _box(self, K: int):
        """The lattice points of the box of K/D * Delta, as one range per
        coordinate: ceiling division at the low end, floor division at the
        high end.  Refused past BOX_LIMIT points, before any scan."""
        D = self.D
        los = [0] * self.rank
        his = [0] * self.rank
        for p in self.red_points:
            for i, c in enumerate(p):
                los[i] = min(los[i], c * K)
                his[i] = max(his[i], c * K)
        ranges = [range(-(-lo // D), hi // D + 1) for lo, hi in zip(los, his)]
        box = math.prod(map(len, ranges))
        if box > BOX_LIMIT:
            raise DomainError(
                f"cone enumeration too large: the box scanned for degree <= {Fraction(K, D)} "
                f"holds {box} lattice points, past the box limit {BOX_LIMIT}"
            )
        return ranges

    def _scan(self, K: int):
        """(depth, points, W) of the deepest cone scan kept so far, first
        deepened to K when K is past it: the reduced points of grid degree
        <= depth with their grid degrees, and W[g] the count of degree g/D.
        The box of K is refused past BOX_LIMIT whether or not a deeper scan
        is kept, so no answer depends on what was asked before."""
        ranges = self._box(K)
        if self._cone is None or K > self._cone[0]:
            pts = []
            W = [0] * (K + 1)
            for ur in itertools.product(*ranges):
                if self.in_cone_reduced(ur):
                    g = self.grid_degree(ur)
                    if g <= K:
                        pts.append((ur, g))
                        W[g] += 1
            self._cone = (K, pts, W)
        return self._cone

    def cone_points_upto(self, K: int):
        """All reduced lattice points of the cone with D*deg <= K, each with
        its grid degree D*deg, read off the deepest scan kept."""
        depth, pts, _ = self._scan(K)
        return list(pts) if K == depth else [t for t in pts if t[1] <= K]

    def weight_counts(self, K: int):
        """W(k) for k = 0..K: cone lattice points of degree exactly k/D."""
        return self._scan(K)[2][: max(K + 1, 0)]

    # -- faces ------------------------------------------------------------------

    def closed_faces(self):
        """All nonempty proper closed faces, including the facets themselves."""
        seen = {}
        for size in range(1, len(self.facets) + 1):
            for combo in itertools.combinations(self.facets, size):
                pts = common_points(combo)
                if pts and pts not in seen:
                    seen[pts] = Face(
                        cuts=tuple((f.normal, f.offset) for f in combo),
                        points=pts,
                        contains_origin=all(f.offset == 0 for f in combo),
                    )
        return tuple(seen.values())

    def codim1_faces_no_origin(self):
        return tuple(
            Face(cuts=((f.normal, f.offset),), points=f.points, contains_origin=False)
            for f in self.facets_height
        )

    def face_contains(self, face: Face, u) -> bool:
        """Whether u is one of the points of the defining set on ``face``."""
        return self.to_reduced(u) in face.points

    # -- volume -------------------------------------------------------------------

    def normalized_volume(self) -> int:
        if self.n > 4:
            raise DomainError("volume supported for dimension <= 4")
        return _nvol(self.red_points, self.rank)


def _nvol(points, rank) -> int:
    """rank! times the volume of conv(points) in its own lattice."""
    points = sorted(set(points))
    if rank == 0:
        return 1
    if rank == 1:
        vals = [p[0] for p in points]
        return max(vals) - min(vals)
    base = points[0]
    total = 0
    for f in _facets_of(points, rank):
        height = sum(a * b for a, b in zip(f.normal, base)) - f.offset
        if height == 0:
            continue
        shifted = [tuple(a - b for a, b in zip(p, f.points[0])) for p in f.points]
        sub, inverse = saturated_span([s for s in shifted if any(s)], rank)
        red = [_coordinates(sub, inverse, s) for s in shifted]
        # the facet's points are integer combinations of its saturated basis
        assert None not in red
        total += abs(height) * _nvol(red, len(sub))
    return total


def _facets_of(points, rank):
    out = {}
    for subset in itertools.combinations(points, rank):
        diffs = [tuple(a - b for a, b in zip(s, subset[0])) for s in subset[1:]]
        normals = integer_kernel(diffs, rank)[0]
        if len(normals) != 1:
            continue
        l = primitive(normals[0])
        if l is None:
            continue
        c = sum(a * b for a, b in zip(l, subset[0]))
        vals = [sum(a * b for a, b in zip(l, p)) for p in points]
        if all(v <= c for v in vals):
            key = (l, c)
        elif all(v >= c for v in vals):
            key = (tuple(-x for x in l), -c)
        else:
            continue
        if key not in out:
            out[key] = Facet(*key, points=tuple(p for p, v in zip(points, vals) if v == c))
    return tuple(out.values())


@lru_cache(maxsize=256)
def _support_data(exponents: tuple, n: int) -> DegreeData:
    return DegreeData(exponents, n)


def newton_data(f: LaurentPoly) -> DegreeData:
    """The DegreeData of f's support: one immutable object per support,
    shared by polynomials over any field with any coefficients."""
    return _support_data(tuple(f.exponents()), f.n)


# ---------------------------------------------------------------------------
# Hodge polygons
# ---------------------------------------------------------------------------


def hodge_polygon(dd: DegreeData, p: int, a: int, K: int) -> NewtonPolygon:
    """q-normalized combinatorial polygon: width W(k), slope a(p-1)k/D."""
    return polygon_rescale(hodge_polygon_absolute(dd, K), a * (p - 1))


def hodge_polygon_absolute(dd: DegreeData, K: int) -> NewtonPolygon:
    """Absolute variant with slope k/D of width W(k); q-variant = a(p-1) times this."""
    if K < 0:
        raise DomainError("cutoff must be >= 0")
    xs, ys = [0], [0]  # ordinates in units of 1/D
    for k, w in enumerate(dd.weight_counts(K)):
        if w:
            xs.append(xs[-1] + w)
            ys.append(ys[-1] + w * k)
    return NewtonPolygon.known(dd.D, xs, ys)


def hodge_polygon_to_width(dd: DegreeData, p: int, a: int, width: int):
    """Smallest-depth q-Hodge polygon whose horizontal extent is >= width:
    the extent at depth K counts the cone points of degree <= K/D."""
    K = dd.D
    while sum(dd.weight_counts(K)) < width:
        K += dd.D
    return hodge_polygon(dd, p, a, K)


def hodge_ray(P: NewtonPolygon, start_x: int):
    """A proven linear lower bound (start, value, slope) for the polygon's
    extension beyond start_x: convexity makes the last incident slope a safe
    underestimate of every later slope."""
    x = Fraction(start_x)
    if x > P.last_x:
        raise DomainError("ray start beyond computed polygon")
    return (x, P.value_at(x), P.slope_at(x))


# ---------------------------------------------------------------------------
# non-degeneracy
# ---------------------------------------------------------------------------


def restrict_to_face(f: LaurentPoly, dd: DegreeData, face: Face) -> LaurentPoly:
    kept = {e: c for e, c in f.terms if dd.face_contains(face, e)}
    if not kept or all(not any(e) for e in kept):
        raise DomainError("empty face restriction")
    return LaurentPoly.make(f.n, kept, f.ctx)


# largest r of the F_{q^r} torus search for a degeneracy witness
NONDEGENERACY_SEARCH_DEGREE = 2


def _face_poly_verdict(f: LaurentPoly, dd: DegreeData, face: Face):
    """(status, witness) for one face: 'pass' (definitive), 'degenerate',
    or 'open' (bounded search found nothing).  Search rounds grow with r,
    and none runs over a torus (q^r - 1)^n past TORUS_LIMIT."""
    ctx = f.ctx
    g = restrict_to_face(f, dd, face)
    partials = [g.partial(i) for i in range(f.n)]
    if all(not d for d in partials):
        # every gradient component vanishes identically: all of the torus
        return "degenerate", ("all-ones", 1)
    if any(len(d) == 1 for d in partials):
        # a single-monomial partial never vanishes on the torus
        return "pass", None
    # brute search over (F_{q^r}^x)^n
    for r in range(1, NONDEGENERACY_SEARCH_DEGREE + 1):
        if (ctx.q**r - 1) ** f.n > TORUS_LIMIT:
            break
        big = ctx.ext(r)
        phi = ctx.embed_into(big)
        lifted = [
            {e: phi(c) for e, c in d.items()} for d in partials if d
        ]
        units = [big.decode(x) for x in big.subfield_logs(big.q)]
        for point in itertools.product(units, repeat=f.n):
            ok = True
            for d in lifted:
                acc = big.zero()
                for e, c in d.items():
                    mono = c
                    for xi, ei in zip(point, e):
                        mono = big.mul(mono, big.pow(xi, ei))
                    acc = big.add(acc, mono)
                if acc != big.zero():
                    ok = False
                    break
            if ok:
                return "degenerate", (tuple(big.encode(x) for x in point), r)
    return "open", None


def is_nondegenerate(f: LaurentPoly):
    """'nondegenerate' | ('degenerate', witness) | 'unknown'.

    Definitive passes come from monomial certificates (a face whose gradient
    has a single-monomial component cannot vanish on the torus); otherwise a
    torus search over F_{q^r}, r <= NONDEGENERACY_SEARCH_DEGREE, within
    TORUS_LIMIT points, either finds a witness or leaves the face open.
    """
    dd = newton_data(f)
    all_pass = True
    for face in dd.closed_faces():
        if face.contains_origin:
            continue
        status, witness = _face_poly_verdict(f, dd, face)
        if status == "degenerate":
            return ("degenerate", witness)
        if status == "open":
            all_pass = False
    return "nondegenerate" if all_pass else "unknown"
