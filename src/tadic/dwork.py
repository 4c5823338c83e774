"""The operator route to the generating functions: splitting kernel, the
semilinear transfer matrix on weighted monomials, its characteristic series,
and the determinant criteria for sharpness of the combinatorial bound.

Module sums reaches C by summing over torus points.  Here the same series
is det(1 - Mx*s) for a finite matrix Mx assembled from the coefficients of
a kernel product, truncated to monomials of bounded polytope degree.  The
two routes share no arithmetic beyond the ground field, which is what makes
their agreement a meaningful end-to-end check.

Conventions.  The inner uniformizer is written pi; series in pi^(1/D) carry
Z_q coefficients at precision p^M.  They live in ZqPi, or in the transfer
matrix and the determinant kernel as bare dicts mod pi^K (_PiSeries), and
ZqPi.mul is their dot at its own cap.  All lattice work happens in the
reduced coordinates of DegreeData (exponents of f are mapped through
dd.to_reduced), where degrees, cones and defects are exactly the same as in
the ambient coordinates.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .arith import FieldContext, teichmuller_lift
from .errors import DomainError, IntegralityError, PrecisionError, TheoremViolation
from .polytope import LaurentPoly, common_points, newton_data, restrict_to_face, saturated_span
from .series import SSeries, TSeries, _SparseSeries, vp


# ---------------------------------------------------------------------------
# the splitting kernel, exact rationals
# ---------------------------------------------------------------------------


def artin_hasse(p: int, N: int) -> tuple:
    """E(pi) = exp(sum_i pi^(p^i)/p^i) mod pi^N as its N exact rational
    coefficients, the j-th multiplying pi^j.

    They come from E'(pi) = E(pi) * sum_i pi^(p^i - 1), that is
    k*e_k = sum_{p^i <= k} e_{k - p^i}; Fraction absorbs the division by k.
    Every coefficient is p-integral; the check below makes a denominator
    divisible by p a loud bug instead of a silent wrong answer."""
    if N < 1:
        raise DomainError("need at least one kernel coefficient")
    powers = [p**i for i in range(N.bit_length()) if p**i < N]
    e = [Fraction(1)]
    for k in range(1, N):
        e.append(sum(e[k - q] for q in powers if q <= k) / k)
    for j, c in enumerate(e):
        if c.denominator % p == 0:
            raise IntegralityError(f"kernel coefficient {j} has denominator {c.denominator}")
    return tuple(e)


def _frac_mod(fr: Fraction, p: int, prec: int) -> int:
    pm = p**prec
    if fr.denominator % p == 0:
        raise IntegralityError(f"{fr} is not p-integral")
    return fr.numerator * pow(fr.denominator, -1, pm) % pm


# ---------------------------------------------------------------------------
# pi-series with Z_q coefficients
# ---------------------------------------------------------------------------


class ZqPi(_SparseSeries):
    """sum_j c_j pi^(j/den) with c_j in Z_q mod p^prec, truncated below
    pi^(cap/den).

    Coefficients are the tuple representation of FieldContext's Z_q layer;
    exponent keys are nonnegative integers in units of 1/den.  The store
    and window rules are _SparseSeries'; the product's cap is sharper than
    TSeries' (see mul).  Implements the coefficient protocol of SSeries.
    """

    __slots__ = ("ctx", "den")
    _units = "pi-digits"

    def __init__(self, ctx: FieldContext, prec: int, cap: int, coeffs=None, den: int = 1):
        self.ctx = ctx
        self.den = den
        super().__init__(ctx.p, prec, cap, coeffs)

    @staticmethod
    def _reduce(t, pm: int):
        red = tuple(c % pm for c in t)
        return red if any(red) else None

    @staticmethod
    def _add_scalars(s, t):
        return tuple(map(operator.add, s, t))

    @staticmethod
    def _scale(t, k: int):
        return tuple(c * k for c in t)

    def _zero(self):
        return (0,) * self.ctx.a

    def _one(self):
        return embed_int(self.ctx, 1, self.prec)

    def _same_ring(self, other) -> bool:
        return self.ctx is other.ctx and self.den == other.den

    def _like(self, coeffs, prec: int, cap: int) -> "ZqPi":
        return ZqPi(self.ctx, prec, cap, coeffs, self.den)

    def mul(self, other: "ZqPi") -> "ZqPi":
        """The product is known below min(capA + ordB, capB + ordA), a zero
        operand's cap standing in for its ord: the unknown tail of one
        factor only meets the other from its leading term on.  Below that
        cap it is the truncated dot of the transfer matrix (_pi_dot)."""
        prec, _ = self._window(other)
        xs, ys = self.coeffs, other.coeffs
        cap = min(self.cap + min(ys, default=other.cap), other.cap + min(xs, default=self.cap))
        sc = _zq_scalars(self.ctx, prec)
        ft, tt = sc.from_tuple, sc.to_tuple
        pair = ({k: ft(t) for k, t in xs.items()}, {k: ft(t) for k, t in ys.items()})
        out = _pi_dot(sc, cap, [pair])
        return ZqPi(self.ctx, prec, cap, {k: tt(v) for k, v in out.items()}, self.den)

    def rescale_den(self, den: int) -> "ZqPi":
        """Re-grid from units 1/self.den to the finer 1/den."""
        if den % self.den:
            raise DomainError("new grid must refine the old one")
        f = den // self.den
        return ZqPi(
            self.ctx,
            self.prec,
            self.cap * f,
            {j * f: t for j, t in self.coeffs.items()},
            den,
        )


def embed_int(ctx: FieldContext, c: int, prec: int):
    """Z_p scalar as a Z_q tuple."""
    return (c % ctx.p**prec,) + (0,) * (ctx.a - 1)


# ---------------------------------------------------------------------------
# bare rings for the hot loops: no object per product
# ---------------------------------------------------------------------------


class _ZqScalars:
    """Z_q mod p^prec as bare scalars: ints for a = 1, Z_q tuples otherwise.

    The pi-series ring uses zero, one, neg, is_zero and dot: dot(pairs,
    plus) is plus + sum of x*y over the pairs, summed unreduced and reduced
    once (for a >= 3, which no operator job reaches, per product).
    Elimination adds mul, add, ord (the least valuation over the
    coordinates, Z_q being unramified), shr (exact division by p^k) and
    unit_inv.
    """

    def __init__(self, ctx: FieldContext, prec: int):
        p = ctx.p
        pm = p**prec
        self.prec = prec
        if ctx.a == 1:
            self.zero, self.one = 0, 1
            self.mul = lambda x, y: x * y % pm
            self.add = lambda x, y: (x + y) % pm

            def dot(pairs, plus=0):
                return (sum(itertools.starmap(operator.mul, pairs)) + plus) % pm

            self.neg = lambda x: -x % pm
            self.is_zero = operator.not_
            self.from_tuple = lambda t: t[0]
            self.to_tuple = lambda x: (x,)
            self.ord = lambda x: vp(x, p)
            self.shr = lambda x, k: x // p**k
            self.unit_inv = lambda x: pow(x, -1, pm)
        else:
            self.zero = (0,) * ctx.a
            self.one = embed_int(ctx, 1, prec)
            if ctx.a == 2:
                # x^2 = -l1*x - l0 mod the defining polynomial, inline
                l0, l1 = ctx.poly_low

                def mul(x, y):
                    (x0, x1), (y0, y1) = x, y
                    c2 = x1 * y1
                    return (x0 * y0 - c2 * l0) % pm, (x0 * y1 + x1 * y0 - c2 * l1) % pm

                def dot(pairs, plus=(0, 0)):
                    c0, c1 = plus
                    c2 = 0
                    for (x0, x1), (y0, y1) in pairs:
                        c0 += x0 * y0
                        c1 += x0 * y1 + x1 * y0
                        c2 += x1 * y1
                    return (c0 - c2 * l0) % pm, (c1 - c2 * l1) % pm

                self.mul = mul
                self.add = lambda x, y: ((x[0] + y[0]) % pm, (x[1] + y[1]) % pm)
            else:
                zq_mul, zq_add = ctx.zq_mul, ctx.zq_add
                self.mul = lambda x, y: zq_mul(x, y, prec)
                self.add = lambda x, y: zq_add(x, y, prec)

                def dot(pairs, plus=self.zero):
                    for x, y in pairs:
                        plus = zq_add(plus, zq_mul(x, y, prec), prec)
                    return plus

            self.neg = lambda x: tuple(-c % pm for c in x)
            # every scalar is reduced, so zero is the one all-zero tuple
            self.is_zero = self.zero.__eq__
            self.from_tuple = self.to_tuple = lambda t: t
            self.ord = lambda x: min(vp(c, p) for c in x if c)
            self.shr = lambda x, k: tuple(c // p**k for c in x)
            two = embed_int(ctx, 2, prec)

            def unit_inv(x):
                # the inverse mod p in F_q, then Newton's y <- y*(2 - x*y),
                # which doubles the p-digits it is right to
                y = ctx.inv(tuple(c % p for c in x))
                k = 1
                while k < prec:
                    y = self.mul(y, self.add(two, self.neg(self.mul(x, y))))
                    k *= 2
                return y

            self.unit_inv = unit_inv
        self.dot = dot


@functools.lru_cache(maxsize=256)
def _zq_scalars(ctx: FieldContext, prec: int) -> _ZqScalars:
    """The one _ZqScalars per (ctx, prec), so that its closures are built
    once, not once per ring or product."""
    return _ZqScalars(ctx, prec)


def _pi_dot(sc: _ZqScalars, K: int, pairs, plus=None):
    """plus + sum of x*y over the (x, y) pairs of {key: scalar} dicts, mod
    pi^K: each key below K is one scalar dot over every product that lands
    on it, so each coefficient is reduced once.  Zeros are dropped."""
    hits = {}
    for xs, ys in pairs:
        for i, s in xs.items():
            for j, t in ys.items():
                k = i + j
                if k < K:
                    if k in hits:
                        hits[k].append((s, t))
                    else:
                        hits[k] = [(s, t)]
    sdot, is_zero, zero = sc.dot, sc.is_zero, sc.zero
    out = dict(plus) if plus else {}
    for k, terms in hits.items():
        v = sdot(terms, out.get(k, zero))
        if is_zero(v):
            out.pop(k, None)
        else:
            out[k] = v
    return out


class _PiSeries:
    """The ring of the transfer matrix: pi-series mod pi^K as bare {key:
    scalar} dicts, every key below K and every scalar (as in _ZqScalars)
    nonzero, so the zero is the empty dict.

    Every cell psi_a_matrix assembles is known to the spectral cap K, and a
    product of two series known to K is known to K + ord >= K, so by
    induction every value the determinant kernel and the traces form is
    known to K, and plain truncation mod pi^K carries no per-entry cap.
    ZqPi.mul, whose operands carry their own caps, finds its cap and takes
    the same dot there.
    """

    is_zero = staticmethod(operator.not_)

    def __init__(self, ctx: FieldContext, prec: int, den: int, K: int):
        self.ctx, self.prec, self.den, self.K = ctx, prec, den, K
        self.sc = sc = _zq_scalars(ctx, prec)
        self.zero = {}
        self.one = {0: sc.one}

    def dot(self, pairs, plus=None):
        return _pi_dot(self.sc, self.K, pairs, plus)

    def neg(self, x):
        sneg = self.sc.neg
        return {k: sneg(v) for k, v in x.items()}

    def to_zqpi(self, x) -> ZqPi:
        tt = self.sc.to_tuple
        return ZqPi(self.ctx, self.prec, self.K, {k: tt(v) for k, v in x.items()}, self.den)


def _berkowitz(ring: _PiSeries, rows, keep: int):
    """Division-free det(1 - A*s) mod pi^K, one row at a time.

    Yields, after row r, the first min(r, keep) + 1 coefficients of
    det(1 - A_r*s) for the leading r x r block A_r: that vector is the
    previous one convolved with (1, -a_rr, -s_0, -s_1, ...), where s_j is
    row*block^j*column.  Truncating every vector at keep + 1 terms is exact
    because the convolution is lower triangular, and the step for row r
    reads the Toeplitz entries only up to index min(r, keep), so it forms
    min(r, keep) - 1 of the s_j.  Every entry of a Krylov vector and of the
    convolution is one ring.dot over the pairs of nonzero entries, rows
    walked through their nonzero entries, with one exception: a Krylov
    entry is the zero, and is not formed, when its row's least key in the
    block plus the least key of the vector it multiplies is >= K, since
    every product lands at or past pi^K.  Keys never fall along the Krylov
    sequence, so once s_j is such a zero, so is every later s, and the row
    stops there.  Over the spectral cap this drops every row w with
    (p-1)*deg(w) >= the cap, and the valuation pattern of the transfer
    matrix prunes the Krylov entries of rows near it.
    """
    K, dot, neg, one = ring.K, ring.dot, ring.neg, ring.one
    sparse = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
    lead = []  # lead[i]: least key of row i inside the current block, or K

    def krylov(i, col, lo, width):
        if lead[i] + lo >= K:
            return {}
        pairs = []
        for j, x in sparse[i]:
            if j >= width:
                break
            if col[j]:
                pairs.append((x, col[j]))
        return dot(pairs)

    cv = [one]
    for r in range(1, len(rows) + 1):
        w = r - 1
        for i in range(w):
            if rows[i][w - 1]:
                lead[i] = min(lead[i], min(rows[i][w - 1]))
        lead.append(min((min(x) for j, x in sparse[w] if j < w), default=K))
        top = min(r, keep)
        toep = [one, neg(rows[w][w])]
        col = [rows[i][w] for i in range(w)]
        for j in range(top - 1):
            lo = min((min(y) for y in col if y), default=K)
            if lead[w] + lo >= K:
                break
            toep.append(neg(krylov(w, col, lo, w)))
            if j + 2 < top:
                col = [krylov(i, col, lo, w) for i in range(w)]
        new = []
        for m in range(top + 1):
            pairs = [
                (cv[i], toep[m - i])
                for i in range(max(0, m - len(toep) + 1), min(m, len(cv)))
                if cv[i] and toep[m - i]
            ]
            new.append(dot(pairs, cv[m] if m < len(cv) else None))
        cv = new
        yield cv


def _det_mod(sc: _ZqScalars, rows):
    """det of a square matrix over Z_q mod p^prec, by elimination.

    Each step takes a pivot p^v * unit of least valuation v in the remaining
    block, so every entry of the block is divisible by p^v.  An entry c of
    the pivot column is cleared with the multiplier (c / p^v) * unit^-1,
    known mod p^(prec - v); it only multiplies pivot-row entries divisible by
    p^v, so the Schur complement is exact mod p^prec.  det = +-(product of
    the pivots) * det(what is left), which is zero once the pivots'
    valuations reach prec or the block vanishes.
    """
    mul, add, neg, is_zero, ord_, shr = sc.mul, sc.add, sc.neg, sc.is_zero, sc.ord, sc.shr
    a = [list(row) for row in rows]
    n = len(a)
    det, spent = sc.one, 0
    for k in range(n):
        best = None
        block = (
            (ord_(x), i, j) for i in range(k, n) for j, x in enumerate(a[i][k:], k) if not is_zero(x)
        )
        for cand in block:
            if best is None or cand[0] < best[0]:
                best = cand
                if not cand[0]:  # a unit: nothing lower
                    break
        if best is None:
            return sc.zero
        v, i, j = best
        spent += v
        if spent >= sc.prec:
            return sc.zero
        if i != k:
            a[i], a[k] = a[k], a[i]
            det = neg(det)
        if j != k:
            for row in a[k:]:
                row[j], row[k] = row[k], row[j]
            det = neg(det)
        prow = a[k]
        det = mul(det, prow[k])
        inv = neg(sc.unit_inv(shr(prow[k], v)))
        tail = [(j, y) for j, y in enumerate(prow[k + 1 :], k + 1) if not is_zero(y)]
        for row in a[k + 1 :]:
            c = row[k]
            if is_zero(c):
                continue
            fac = mul(shr(c, v), inv)
            for j, y in tail:
                row[j] = add(row[j], mul(fac, y))
    return det


def _cutoff_dets(sc: _ZqScalars, mat, sizes):
    """{r: det of the leading r x r block of mat} for each r in sizes."""
    return {r: _det_mod(sc, [row[:r] for row in mat[:r]]) for r in set(sizes)}


def e_factor(ah: tuple, ctx: FieldContext, c, prec: int, cap: int) -> ZqPi:
    """E(pi*c) for a Z_q scalar c, as a pi-series on the integer grid, from
    E's coefficients ah over ctx.p; at c = 1 every power c^m is 1 and no
    product is taken."""
    if len(ah) < cap:
        raise PrecisionError("kernel expansion shorter than the requested cap")
    out = {}
    cm = embed_int(ctx, 1, prec)
    step = c != cm
    for m in range(cap):
        lam = _frac_mod(ah[m], ctx.p, prec)
        out[m] = tuple(lam * x % ctx.p**prec for x in cm)
        if step and m + 1 < cap:
            cm = ctx.zq_mul(cm, c, prec)
    return ZqPi(ctx, prec, cap, out, den=1)


def t_to_pi(ts: TSeries, ah: tuple, ctx: FieldContext, den: int = 1) -> ZqPi:
    """Substitute T = E(pi) - 1 into a T-series over Z_p, E's coefficients
    being ah.

    The substitution sends O(T^N) to O(pi^N), so the T-cap carries over as
    the pi-cap unchanged.
    """
    cap = min(ts.cap, len(ah))
    prec = ts.prec
    e = e_factor(ah, ctx, embed_int(ctx, 1, prec), prec, cap)
    e_minus_1 = e.sub(e.one_like())
    res = e.zero_like()
    for j in range(cap - 1, -1, -1):
        res = res.mul(e_minus_1)
        c = ts.coeff(j)
        if c:
            res = res.add(ZqPi(ctx, prec, cap, {0: embed_int(ctx, c, prec)}, den=1))
    return res.rescale_den(den) if den != 1 else res


# ---------------------------------------------------------------------------
# kernel product and monomial coefficients
# ---------------------------------------------------------------------------


class _LatticeCode:
    """Reduced exponent vectors as ints: enc(v) = sum_i v_i * R^i with
    radix R = 2*bound + 1.

    enc is linear, so v + m*u and q*w - u are one integer operation on
    codes.  On the box |v_i| <= bound it is injective: v + (bound, ...,
    bound) has base-R digits v_i + bound in [0, R), so enc(v) fixes v.
    """

    __slots__ = ("bound", "weights")

    def __init__(self, rank: int, bound: int):
        self.bound = bound
        self.weights = tuple((2 * bound + 1) ** i for i in range(rank))

    def enc(self, v) -> int:
        return sum(map(operator.mul, v, self.weights))


def _box(vectors) -> int:
    """The least bound with every coordinate of every vector in [-bound, bound]."""
    return max((abs(x) for v in vectors for x in v), default=0)


def _kernel_product(code: _LatticeCode, ctx: FieldContext, factors, prec: int, budget: dict):
    """The coefficient of x^v mod pi^budget[v] in prod E(pi * c * x^u) over
    the given (c, u_reduced) factors, for each code of a reduced exponent v
    in `budget`.

    Returns {code: {j: coefficient of pi^j}} for j < budget[code], scalars
    as in _ZqScalars(ctx, prec), leaving out zero digits and the v whose
    coefficient vanishes mod pi^budget[v].  Every factor is known mod pi^C
    for C the largest budget, and so is every coefficient of the product;
    the budgets only say which of its digits are wanted.

    States are keyed by code.  A state before or after any factor is sum_i
    m_i*u_i with pi-exponent sum_i m_i < C, so each coordinate is at most
    (C - 1) * max|u| in size.  The caller's code must cover that box, which
    is asserted here, and every vector of `budget`, so that enc is injective
    on all of them.

    A factor term pi^m x^(m*u) moves a coefficient of x^v at pi^j to x^(v +
    m*u) at pi^(j + m), so a key j at state v after factor i can only reach
    a wanted digit if j < budget_i(v) = max over the next factor's terms m
    of budget_(i+1)(v + m*u) - m (and budget_n = `budget`).  An
    arithmetic-free forward pass finds the states each prefix of the
    product reaches, with their least pi-exponent; a backward pass gives
    each of them its budget and the terms that lead somewhere; the
    arithmetic pass multiplies only the keys below those budgets.  Every
    key it drops has all its descendants at or past their budgets, so the
    wanted digits come out as the full expansion's.
    """
    if not budget:
        return {}
    cap = max(budget.values())
    assert (cap - 1) * _box(u for _, u in factors) <= code.bound, "states escape the code's box"
    sc = _zq_scalars(ctx, prec)
    mul, add, is_zero = sc.mul, sc.add, sc.is_zero
    ah = artin_hasse(ctx.p, cap)
    # per factor, its terms (m, code of m*u, scalar), by m
    terms = []
    for c, u in factors:
        uc = code.enc(u)
        series = sorted(e_factor(ah, ctx, c, prec, cap).coeffs.items())
        terms.append([(m, m * uc, sc.from_tuple(t)) for m, t in series])
    # forward: the least pi-exponent of each state before each factor
    leads = [{0: 0}]
    for fac in terms[:-1]:
        nxt = {}
        for v, lead in leads[-1].items():
            for m, mu, _ in fac:
                j = lead + m
                if j >= cap:
                    break
                v2 = v + mu
                if nxt.get(v2, cap) > j:
                    nxt[v2] = j
        leads.append(nxt)
    # backward: per state, the terms (target, m, key bound, scalar) that
    # reach a wanted digit; its budget is the largest key bound
    plans = []
    bud = budget
    for fac, states in zip(reversed(terms), reversed(leads)):
        plan, prev = {}, {}
        for v, lead in states.items():
            edges = []
            for m, mu, t in fac:
                if lead + m >= cap:
                    break
                v2 = v + mu
                b = bud.get(v2)
                if b is not None and lead + m < b:
                    edges.append((v2, m, b - m, t))
            if edges:
                plan[v] = edges
                prev[v] = max(e[2] for e in edges)
        plans.append(plan)
        bud = prev
    acc = {0: {0: sc.one}}
    for plan in reversed(plans):
        new = {}
        for v, ser in acc.items():
            for v2, m, top, t in plan.get(v, ()):
                out = new.setdefault(v2, {})
                for j, s in ser.items():
                    if j < top:
                        x = mul(s, t)
                        k = j + m
                        out[k] = add(out[k], x) if k in out else x
        acc = {}
        for v, ser in new.items():
            ser = {k: x for k, x in ser.items() if not is_zero(x)}
            if ser:
                acc[v] = ser
    return acc


def _lifted_factors(f: LaurentPoly, dd, prec: int, power_of_p: int = 0):
    """(teichmuller(a_u)^(p^i), reduced exponent * p^i) per term, sorted."""
    ctx = f.ctx
    out = []
    for u, c in sorted(f.coeff_map().items()):
        t = teichmuller_lift(ctx, c, prec)
        if power_of_p:
            t = ctx.zq_pow(t, ctx.p**power_of_p, prec)
        ur = dd.to_reduced(u)
        assert ur is not None
        scale = ctx.p**power_of_p
        out.append((t, tuple(scale * x for x in ur)))
    return out


# ---------------------------------------------------------------------------
# the transfer matrix
# ---------------------------------------------------------------------------


class DworkMatrix:
    """Transfer operator on the weighted monomial basis pi^deg(u) x^u,
    deg(u) <= B, rows and columns sorted by (degree, lex).

    rows[w][u] multiplies the u-th basis vector's contribution to the w-th,
    a {key: scalar} dict of `ring` = _PiSeries(ctx, M, D, N_pi*D), known to
    the spectral cap K = N_pi*D; every entry satisfies ord_pi >=
    (p-1)*deg(row), which is asserted at assembly time and is what makes
    the finite truncation certifiable.

    Basis points beyond degree B only touch terms above (p-1)(B + 1/D), and
    psi_a_matrix refuses B < N_pi/(p-1), so (p-1)(B*D + 1) > N_pi*D: the
    certified pi-modulus of spectral data is the requested N_pi itself.
    """

    def __init__(self, N_pi: int, D: int, ctx: FieldContext, basis, degrees, ring: _PiSeries, rows):
        self.N_pi = N_pi
        self.D = D
        self.ctx = ctx
        self.basis = basis  # reduced exponent tuples
        self.dim = len(basis)
        self.degrees = degrees  # Fractions
        self.ring = ring
        self.rows = rows  # tuple of tuples of ring elements

    def cert_cap(self) -> int:
        """Certified pi-modulus of spectral data, in 1/D units."""
        return self.N_pi * self.D

    def torus_cap(self) -> int:
        """No cross-check against this matrix reads its torus sums past
        T^N_pi, since no spectral cap exceeds pi^N_pi."""
        return self.N_pi

    @functools.cached_property
    def entries(self) -> tuple:
        """rows as ZqPi (den D), built on first read, for readers outside
        the kernel; each distinct cell object (every zero cell of
        psi_a_matrix is ring.zero) is converted once."""
        distinct = {id(x): x for row in self.rows for x in row}
        conv = {key: self.ring.to_zqpi(x) for key, x in distinct.items()}
        return tuple(tuple(conv[id(x)] for x in row) for row in self.rows)


# hard ceilings on the operator basis size and on the criterion matrix.
# Berkowitz grows like dim^3 * deg_s, less the rows past the spectral cap:
# in-process on a 2-vCPU VM (Python 3.11.7) a 136-point `dwork` on the
# simplex at p = 2, prec_t 9 takes 0.23 s at deg_s 9 and 1.09 s at deg_s
# 136.  The criterion takes one elimination, about dim^3, per degree cutoff:
# the simplex at p = 3 runs `faces` in 23 ms at 64 points (depth 6) and
# 40 ms at 109 (depth 8), where all leading minors by Berkowitz took 1.24 s
# at depth 8.  The criterion limit stays at the 64 it was set to under that
# dim^4 cost until one cost model sets them all.
DIM_LIMIT = 150
CRITERION_DIM_LIMIT = 64


def _cone_prefix(dd, K: int, limit: int, what: str, limit_name: str):
    """Cone points of degree <= K/D sorted by (degree, lex), refused with a
    DomainError past ``limit`` points before any work on them.

    rank independent points of Delta have degree <= 1, so their sums of at
    most K/D terms are C(K//D + rank, rank) distinct cone points; checking
    that bound first keeps a huge K from enumerating a huge box.
    """

    def refuse(dim):
        return DomainError(f"{what} too large: dimension {dim} exceeds the {limit_name} {limit}")

    if K >= 0:
        least = math.comb(K // dd.D + dd.rank, dd.rank)
        if least > limit:
            raise refuse(f"at least {least}")
    pts = sorted(dd.cone_points_upto(K), key=lambda t: (t[1], t[0]))
    if len(pts) > limit:
        raise refuse(len(pts))
    return pts


def psi_a_matrix(f: LaurentPoly, B: int, M: int, N_pi: int) -> DworkMatrix:
    """Assemble the degree-B truncation of the transfer operator.

    The kernel product g = prod_{i<a} E_{f^(sigma^i)}(x^(p^i)) is expanded
    once, to the pi-digits the cells read; the entry at (row w, column u)
    is the coefficient of x^(q*w - u) in g times pi^(deg(u) - deg(w)).

    Lattice vectors are _LatticeCode ints on one box.  The kernel's states
    have |coord| <= (C - 1)*max|u| over the factors, twists included, for
    its cap C <= N_pi + B + 1 (see _kernel_product), and a cell has
    |q*w_i - u_i| <= q*|w_i| + |u_i| <= (q + 1)*max|w| over the basis; the
    box is the larger bound, so no cell code meets another vector's.
    """
    if B < 0 or M < 1 or N_pi < 1:
        raise DomainError("operator job needs B >= 0 and M, N_pi >= 1")
    ctx = f.ctx
    p, a, q = ctx.p, ctx.a, ctx.q
    if a not in (1, 2):
        raise DomainError("operator path supports a in {1, 2}; use the sums path instead")
    if B < Fraction(N_pi, p - 1):
        raise PrecisionError(
            f"basis degree bound {B} below N_pi/(p-1) = {N_pi}/{p - 1}: matrix too small "
            "to certify the requested pi-precision"
        )
    dd = newton_data(f)
    D = dd.D
    pts = _cone_prefix(dd, B * D, DIM_LIMIT, "operator basis", "dimension limit")
    basis = tuple(ur for ur, _ in pts)
    grid = [g for _, g in pts]
    factors = []
    for i in range(a):
        factors.extend(_lifted_factors(f, dd, M, power_of_p=i))
    # the raw keys j each cell reads: j*D + e_u - e_w < N_pi*D survives into
    # the entry, and j*D + e_u - e_w < p*e_w is what the valuation check
    # below looks at; the raw product is never wanted past pi^(N_pi + B + 1)
    cap_raw = N_pi + B + 1
    code = _LatticeCode(
        dd.rank, max((cap_raw - 1) * _box(u for _, u in factors), (q + 1) * _box(basis))
    )
    codes = [code.enc(w) for w in basis]
    cells = [[q * cw - cu for cu in codes] for cw in codes]  # codes of q*w - u
    budget = {}
    for row_cells, ew in zip(cells, grid):
        need = max(N_pi * D + ew, p * ew)
        for v, eu in zip(row_cells, grid):
            top = min(cap_raw, -((eu - need) // D))
            if top > budget.get(v, 0):
                budget[v] = top
    raw = _kernel_product(code, ctx, factors, M, budget)
    ring = _PiSeries(ctx, M, D, N_pi * D)
    K = ring.K
    rows = []
    for w, ew, row_cells in zip(basis, grid, cells):
        bound = (p - 1) * ew
        row = []
        for u, eu, v in zip(basis, grid, row_cells):
            ser = raw.get(v)
            if ser is None:
                row.append(ring.zero)
                continue
            lead_raw = min(ser)
            if lead_raw * D + eu - ew < bound:
                raise TheoremViolation(
                    f"entry at row {w}, column {u} has ord "
                    f"{Fraction(lead_raw * D + eu - ew, D)} below the valuation "
                    f"pattern bound {Fraction(bound, D)}"
                )
            # ser, known mod pi^budget[v], re-gridded to 1/D and shifted by
            # pi^(deg u - deg w); the bound above keeps every key >= 0, and
            # budget[v]*D + e_u - e_w >= N_pi*D (e_w <= B*D), so the cell is
            # known to the cap K
            shift = eu - ew
            row.append({j * D + shift: t for j, t in ser.items() if j * D + shift < K})
        rows.append(tuple(row))
    return DworkMatrix(
        N_pi=N_pi,
        D=D,
        ctx=ctx,
        basis=basis,
        degrees=tuple(Fraction(g, D) for g in grid),
        ring=ring,
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# characteristic series and traces
# ---------------------------------------------------------------------------


def char_series(Mx: DworkMatrix, deg_s: int) -> SSeries:
    """det(1 - Mx*s) up to s^deg_s, coefficients certified to the matrix's
    spectral cap."""
    if deg_s < 0:
        raise DomainError("need deg_s >= 0")
    if deg_s > Mx.dim:
        raise DomainError(f"deg_s={deg_s} exceeds the matrix dimension {Mx.dim}")
    ring, rows = Mx.ring, Mx.rows
    cv = [ring.one]
    for cv in _berkowitz(ring, rows, deg_s):
        pass
    cv = cv + [ring.zero] * (deg_s + 1 - len(cv))
    return SSeries([ring.to_zqpi(c) for c in cv])


def operator_trace(Mx: DworkMatrix, k: int) -> ZqPi:
    """Trace of the k-th power, certified to the spectral cap."""
    if k < 1:
        raise DomainError("trace wants k >= 1")
    ring, rows = Mx.ring, Mx.rows
    if k == 1:
        return ring.to_zqpi(ring.dot((rows[i][i], ring.one) for i in range(Mx.dim)))
    # Mx^(k-1) in full, then only the diagonal of its product with Mx
    cols = list(zip(*rows))
    power = rows
    for _ in range(k - 2):
        power = [[ring.dot(zip(row, col)) for col in cols] for row in power]
    return ring.to_zqpi(ring.dot(pair for row, col in zip(power, cols) for pair in zip(row, col)))


# ---------------------------------------------------------------------------
# cross-checks against the sums route
# ---------------------------------------------------------------------------


def verify_trace_formula(Mx: DworkMatrix, f: LaurentPoly, k: int, walks=None) -> dict:
    """Compare Tr(Mx^k) with the normalized torus sum of order k, for Mx
    = psi_a_matrix(f, B, M, N_pi) at the matrix's p-adic precision M.

    The two sides come from unrelated computations: one is a matrix trace
    over Z_q, the other a sum of binomial characters over torus points,
    pushed through the uniformizer change T = E(pi) - 1.  A caller running
    several checks on one operator passes sums.torus_walks(f, ks, deg_s,
    M, Mx.torus_cap()) as `walks` to walk each torus once.

    The report is one entry of the `verify` document's checks: what
    ("trace"), k, pass, and modulus "pi^x, p^y", the comparison being
    certified below pi^x and p^y.
    """
    from .sums import s_f_T

    M = Mx.ring.prec
    lhs = operator_trace(Mx, k)
    cap_pi = Fraction(lhs.cap, Mx.D)
    n_t = math.ceil(cap_pi)
    S = s_f_T(f, k, M, n_t, walks)
    pm = f.ctx.p**M
    inv = pow((f.ctx.q**k - 1) % pm, -1, pm)
    rhs_t = S.mul_int(pow(inv, f.n, pm))
    rhs = t_to_pi(rhs_t, artin_hasse(f.ctx.p, n_t + 1), f.ctx, den=Mx.D)
    mod, prec = min(cap_pi, Fraction(rhs.cap, Mx.D)), min(lhs.prec, rhs.prec)
    return {
        "what": "trace",
        "k": k,
        "pass": lhs.agrees_with(rhs),
        "modulus": f"pi^{mod}, p^{prec}",
    }


def char_c_crosscheck(Mx: DworkMatrix, f: LaurentPoly, deg_s: int, walks=None) -> dict:
    """The central two-path check: det(1 - Mx*s) against the torus-sum C,
    coefficient by coefficient after the uniformizer change.  `Mx` and
    `walks` are as in verify_trace_formula.

    The report is one entry of the `verify` document's checks: what
    ("char"), deg_s, pass, modulus as in verify_trace_formula, and
    mismatched_coefficients, the s-exponents where the routes disagree."""
    from .sums import c_function

    M = Mx.ring.prec
    det_side = char_series(Mx, deg_s)
    cap = Fraction(det_side.coeffs[0].cap, Mx.D)
    n_t = math.ceil(cap)
    C = c_function(f, deg_s, M, n_t, walks)
    ah = artin_hasse(f.ctx.p, n_t + 1)
    bad = []
    prec = M
    mod = cap
    for j, (lhs, c_t) in enumerate(zip(det_side.coeffs, C.coeffs)):
        rhs = t_to_pi(c_t, ah, f.ctx, den=Mx.D)
        if not lhs.agrees_with(rhs):
            bad.append(j)
        prec = min(prec, lhs.prec, rhs.prec)
        mod = min(mod, Fraction(min(lhs.cap, rhs.cap), Mx.D))
    return {
        "what": "char",
        "deg_s": deg_s,
        "pass": not bad,
        "modulus": f"pi^{mod}, p^{prec}",
        "mismatched_coefficients": bad,
    }


# ---------------------------------------------------------------------------
# sharpness criteria: determinants mod pi^(1/D)
# ---------------------------------------------------------------------------


class _Criterion(NamedTuple):
    """The criterion matrix on cone points sorted by (degree, lex), with the
    grid data it was read from: height[i][k] = <grid normal k, pts[i]>,
    grid[i] = D*deg(pts[i]) = max(0, *height[i]), and defects[i][j]
    = g(p*w - u) + g(u) - p*g(w) for w = pts[i], u = pts[j] (None off the
    cone), where g = D*deg."""

    pts: tuple
    height: list
    grid: tuple
    defects: tuple
    sc: _ZqScalars
    mat: list


def _criterion_data(f: LaurentPoly, dd, K: int, M: int) -> _Criterion:
    """The reduced criterion matrix on the points of degree <= K/D.

    The entry at (w, u) is alpha_(p*w - u) mod pi^(1/D) on the cofacial
    cells (defect 0) and zero elsewhere.  alpha_v mod pi^(1/D) is the
    coefficient of pi^deg(v) x^v in the kernel product, so _kernel_product
    gives each cofacial v a budget one digit past its degree and the cell
    reads that last digit.
    """
    ctx = f.ctx
    p, D = ctx.p, dd.D
    cone = _cone_prefix(dd, K, CRITERION_DIM_LIMIT, "criterion matrix", "criterion dimension limit")
    pts = tuple(ur for ur, _ in cone)
    grid = tuple(g for _, g in cone)

    def values(normals):
        return [[sum(a * b for a, b in zip(nv, ur)) for nv in normals] for ur in pts]

    # <n, p*w - u> = p*<n, w> - <n, u>: the facet values of each point, once,
    # give the cone test (through-origin facets) and g (grid normals) of
    # every cell
    height = values(dd.grid_normals)
    through = values([fc.normal for fc in dd.facets_origin])
    factors = _lifted_factors(f, dd, M)
    # a cofacial cell has g(p*w - u) = p*g(w) - g(u) <= p*K, so the kernel's
    # cap is at most p*K//D + 1 and its states have |coord| <= (p*K//D)*max|u|;
    # the cells have |p*w_i - u_i| <= (p + 1)*max|w|
    code = _LatticeCode(dd.rank, max(p * K // D * _box(u for _, u in factors), (p + 1) * _box(pts)))
    codes = [code.enc(w) for w in pts]
    defects = []
    cells = []  # (row, column, code of p*w - u) of the cofacial cells
    # a cofacial v off the 1/D grid has no digit at pi^(g(v)/D): zero cell
    budget = {}
    for i, (cw, gw) in enumerate(zip(codes, grid)):
        ph = [p * x for x in height[i]]
        po = [p * x for x in through[i]]
        row = []
        for j, (hu, ou, gu) in enumerate(zip(height, through, grid)):
            if any(map(operator.gt, po, ou)):
                row.append(None)
                continue
            g = max(0, *map(operator.sub, ph, hu))
            defect = g + gu - p * gw
            assert defect >= 0
            row.append(defect)
            if defect == 0:
                v = p * cw - codes[j]
                cells.append((i, j, v))
                if g % D == 0:
                    budget[v] = g // D + 1
        defects.append(tuple(row))
    digits = _kernel_product(code, ctx, factors, M, budget)
    sc = _zq_scalars(ctx, M)
    mat = [[sc.zero] * len(pts) for _ in pts]
    for i, j, v in cells:
        if v in digits:
            k, low = budget[v] - 1, min(digits[v])
            if low < k:
                v = tuple(p * x - y for x, y in zip(pts[i], pts[j]))
                raise IntegralityError(f"kernel term pi^{low} x^{v} lies below its degree {k}")
            mat[i][j] = digits[v].get(k, sc.zero)
    # g is subadditive, so a term below its degree that reaches no cell
    # comes from a factor term pi x^u of degree above 1 (checked after the
    # cells, which name the term itself)
    for _, u in factors:
        deg = Fraction(dd.grid_degree(u), D)
        if deg > 1:
            raise IntegralityError(f"kernel factor x^{u} has degree {deg} above 1")
    return _Criterion(pts=pts, height=height, grid=grid, defects=tuple(defects), sc=sc, mat=mat)


def _report(dd, crit: _Criterion, K: int, M: int):
    """Per-cutoff verdicts and the determinant at each cutoff size: the
    points of degree <= k/D are a prefix of the (degree, lex) order."""
    sizes = tuple(sum(1 for g in crit.grid if g <= k) for k in range(K + 1))
    dets = _cutoff_dets(crit.sc, crit.mat, sizes)
    rep = {
        "depth": K,
        "denominator": dd.D,
        "M": M,
        "block_sizes": sizes,
        "verdicts": tuple(not crit.sc.is_zero(dets[r]) for r in sizes),
    }
    return rep, dets


def _whole_criterion(f: LaurentPoly, K: int, M: int):
    """(dd, criterion data, report, cutoff determinants) of f's whole
    polytope, after the checks on K and M both criteria make."""
    if K < 0:
        raise DomainError("cutoff must be >= 0")
    if M < 1:
        raise DomainError("criterion job needs M >= 1")
    dd = newton_data(f)
    crit = _criterion_data(f, dd, K, M)
    return (dd, crit, *_report(dd, crit, K, M))


def ordinariness_determinants(f: LaurentPoly, K: int, M: int) -> dict:
    """Nonvanishing mod pi^(1/D) of the degree-block minors.

    The k-th minor lives on cone points of degree <= k/D; its entry at
    (w, u) is alpha_{pw-u} when pw-u is cofacial with u and zero otherwise.
    All minors being nonzero is the sharpness criterion for the T-adic
    polygon against the combinatorial bound; we can only test a prefix, so
    the verdicts are per-cutoff.

    The report holds depth (K), denominator (D), M, block_sizes (the size
    of each minor) and verdicts, one per cutoff k = 0..K.  verdicts[k]
    speaks about the minor on basis points of degree <= k/D: True means
    the determinant is a certified nonzero mod p^M, False that it vanishes
    at working precision (the criterion fails there unless more p-digits
    reveal a unit).
    """
    return _whole_criterion(f, K, M)[2]


def facial_criterion(f: LaurentPoly, K: int, M: int) -> dict:
    """Face-by-face sharpness with the decomposition identities asserted.

    Splits the criterion matrix by the relatively open facial cones, checks
    the non-cofaciality valuation fact that makes the split block-triangular,
    asserts det(whole) = prod(det(blocks)) for every cutoff, and checks each
    closed face's own criterion determinant against the matching product of
    open-cone blocks.  Any mismatch is a theorem violation, i.e. a bug.

    The report holds whole, the ordinariness_determinants report of f;
    conjunction, a bool per cutoff k on the whole polytope's grid; and
    faces, one per facet missing 0: its label (the facet equality in
    reduced coordinates), vertices (f's ambient exponents on it) and the
    keys of its own ordinariness_determinants report.
    """
    dd, crit, whole, dets = _whole_criterion(f, K, M)
    pts, grid, sc, mat = crit.pts, crit.grid, crit.sc, crit.mat

    # open facial cone of each basis point: carrier facets (the height
    # facets attaining its grid degree g > 0) + face dimension
    carriers = [
        frozenset(i for i, h in enumerate(hs) if h == g) if g > 0 else None
        for hs, g in zip(crit.height, grid)
    ]
    dims = {}
    for c in set(c for c in carriers if c is not None):
        face_pts = common_points([dd.facets_height[i] for i in c])
        # affine dimension: the rank of the (distinct, so nonzero) differences
        diffs = [tuple(x - y for x, y in zip(q, face_pts[0])) for q in face_pts[1:]]
        dims[c] = len(saturated_span(diffs, dd.rank)[0]) if face_pts else -1

    for (i, cw), (j, cu) in itertools.product(enumerate(carriers), repeat=2):
        if cw is None or cu is None or cw == cu:
            continue
        if dims[cw] > dims[cu]:
            continue
        if crit.defects[i][j] == 0:
            raise TheoremViolation(
                f"points {pts[i]} and {pts[j]} in distinct facial cones of dimensions "
                f"{dims[cw]} <= {dims[cu]} are co-facial across the operator step"
            )

    # each open cone's points, in basis order, so every degree cutoff takes
    # a prefix of each block
    blocks = {}
    for i, c in enumerate(carriers):
        if c is not None:
            blocks.setdefault(c, []).append(i)
    block_dets = {
        c: _cutoff_dets(
            sc,
            [[mat[i][j] for j in idx] for i in idx],
            [sum(1 for i in idx if grid[i] <= k) for k in range(K + 1)],
        )
        for c, idx in blocks.items()
    }

    def block_product(k: int, facet=None):
        """Product of the block minors on points of degree <= k/D, over the
        blocks whose carrier holds `facet` (all when None), and whether
        every factor is nonzero."""
        prod = sc.one
        all_nonzero = True
        for c, idx in blocks.items():
            r = sum(1 for i in idx if grid[i] <= k)
            if r == 0 or (facet is not None and facet not in c):
                continue
            dblk = block_dets[c][r]
            all_nonzero = all_nonzero and not sc.is_zero(dblk)
            prod = sc.mul(prod, dblk)
        return prod, all_nonzero

    conjunction = []
    for k in range(K + 1):
        prod, blocks_ok = block_product(k)
        if dets[whole["block_sizes"][k]] != prod:
            raise TheoremViolation(
                f"cutoff {k}: whole determinant differs from the product of "
                "its facial blocks"
            )
        conjunction.append(blocks_ok)
        # a vanishing block forces the whole determinant to vanish; the
        # converse can fail mod p^M when nonzero blocks share p-divisibility
        if not blocks_ok and whole["verdicts"][k]:
            raise TheoremViolation(
                f"cutoff {k}: a facial block vanishes but the whole "
                "determinant does not"
            )

    faces = []
    for facet_index, facet in enumerate(dd.facets_height):
        f_face = restrict_to_face(f, dd, facet.points)
        dd_face = newton_data(f_face)
        K_face = int(Fraction(K, dd.D) * dd_face.D)
        crit_f = _criterion_data(f_face, dd_face, K_face, M)
        rep, dets_f = _report(dd_face, crit_f, K_face, M)
        for k_face in range(K_face + 1):
            # the face's cutoff k_face/D_face on the whole polytope's grid
            k, off_grid = divmod(k_face * dd.D, dd_face.D)
            if off_grid or k > K:
                continue
            prod, _ = block_product(k, facet_index)
            if dets_f[rep["block_sizes"][k_face]] != prod:
                raise TheoremViolation(
                    f"face {(facet.normal, facet.offset)}: criterion determinant at cutoff "
                    f"{k_face} (its grid) differs from the matching blocks "
                    "of the whole matrix"
                )
        faces.append(
            {
                "label": f"<{facet.normal}, u> = {facet.offset}",
                "vertices": tuple(sorted(f_face.exponents())),
                **rep,
            }
        )
    return {"whole": whole, "faces": faces, "conjunction": tuple(conjunction)}
