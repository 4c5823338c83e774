"""Exponential sums over the torus and their generating functions.

The direct computation path: enumerate torus points, accumulate binomial
characters (1+T)^trace, assemble L- and C-functions, read off certified
Newton polygons, and compare them against the combinatorial lower bounds.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Optional

from .arith import (
    FIELD_LIMIT,
    CycContext,
    CycElement,
    FieldContext,
    _reduce_mod,
    _times_x,
    binomial_guard,
    binomial_period,
    binomial_sum,
    field_context,
    specialize_tseries,
    teichmuller_lift,
)
from .errors import DomainError, PrecisionError, TheoremViolation
from .polytope import (
    LaurentPoly,
    hodge_polygon_to_width,
    hodge_ray,
    is_nondegenerate,
    newton_data,
)
from .series import (
    NewtonPolygon,
    SSeries,
    TSeries,
    exp_generating,
    polygon_dominates,
    polygon_from_sseries,
    polygon_rescale,
    polygon_verdict,
    vp,
    vp_factorial,
)

# hard ceiling on (q^k - 1)^n; everything here is exact big-int work
TORUS_LIMIT = 4_000_000

FLAG_TRUE = "true"
FLAG_FALSE = "false"
FLAG_UNCERTIFIED = "uncertified"


@dataclass(frozen=True)
class SumJob:
    """One torus sum request: polynomial, extension degree, precisions."""

    f: LaurentPoly
    k: int
    M: int  # p-adic digits on output coefficients
    N: int  # T-adic cap
    m: Optional[int] = None  # character level, when specializing

    def __post_init__(self):
        if self.k < 1 or self.M < 1 or self.N < 1:
            raise DomainError("sum job needs k, M, N >= 1")
        if self.m is not None and self.m < 1:
            raise DomainError("character level m must be >= 1")
        ctx = self.f.ctx
        # q >= 2, so k past the limit's bit length is too large without
        # computing q^k
        if self.k >= FIELD_LIMIT.bit_length() or ctx.q**self.k > FIELD_LIMIT:
            raise DomainError(
                f"field too large: q^k = {ctx.p}^{ctx.a * self.k} exceeds "
                f"the field-size limit p^(a*k) <= 2^{FIELD_LIMIT.bit_length() - 1}"
            )
        if (ctx.q**self.k - 1) ** self.f.n > TORUS_LIMIT:
            raise DomainError(
                f"torus too large to enumerate: (q^k - 1)^n exceeds "
                f"the torus limit {TORUS_LIMIT}"
            )


# ---------------------------------------------------------------------------
# torus enumeration
# ---------------------------------------------------------------------------


# trace tables kept across calls, least recently used first; the bound is
# on their total entry count (2^15 entries of 30 p-adic digits are about
# 1.5 MB), and a table past it alone is not kept
TABLE_CACHE_ENTRIES = 1 << 15
_TABLES: dict = {}


def _trace_table(big: FieldContext, prec: int) -> tuple:
    """Tr(teich(g)^j) mod p^prec for j = 0..q-2, g the generator of ``big``.

    Tables depend only on (p, [F:F_p], prec), so they are shared by every
    caller in the process, as tuples no caller can alter; each one is
    checked when it is built.
    """
    key = (big.p, big.a, prec)
    table = _TABLES.pop(key, None)
    if table is None:
        table = _build_trace_table(big, prec)
    _TABLES[key] = table
    while _TABLES and sum(map(len, _TABLES.values())) > TABLE_CACHE_ENTRIES:
        del _TABLES[next(iter(_TABLES))]
    return table


def _build_trace_table(big: FieldContext, prec: int) -> tuple:
    """The power sums of chi(x) = prod_{i<d} (x - w^(p^i)), the
    characteristic polynomial of w = teich(g) over Z_p (d = [F:F_p]).

    s_1..s_d come from Newton's identities and every later entry from the
    order-d recurrence chi(w) = 0: d multiply-adds per entry.
    """
    p, d = big.p, big.a
    pm = p**prec
    Q1 = big.q - 1
    conj = teichmuller_lift(big, big.generator, prec)
    chi = [big.one()]  # Z_q coefficients, lowest first
    for i in range(d):
        if i:
            conj = big.zq_pow(conj, p, prec)
        nxt = [big.zero()] + chi
        for e, c in enumerate(chi):
            wc = big.zq_mul(conj, c, prec)
            nxt[e] = tuple((u - v) % pm for u, v in zip(nxt[e], wc))
        chi = nxt
    if any(any(c[1:]) for c in chi):
        raise TheoremViolation("characteristic polynomial of teich(g) is not over Z_p")
    c = [co[0] for co in chi[:d]]
    s = [d % pm]
    for k in range(1, min(d, Q1 - 1) + 1):
        s.append(-(k * c[d - k] + sum(c[d - i] * s[k - i] for i in range(1, k))) % pm)
    neg_c = [-ci for ci in c]
    for k in range(len(s), Q1):
        s.append(sum(map(mul, neg_c, s[k - d : k])) % pm)
    return tuple(s)


def _coefficient_logs(f: LaurentPoly, big: FieldContext):
    """dlog_g of each coefficient of f embedded in ``big``.

    The coefficients lie in F_q^x, the subgroup generated by
    h = g^((q^k-1)/(q-1)), so only q-1 powers of h are walked.
    """
    ctx = f.ctx
    phi = ctx.embed_into(big)
    step = (big.q - 1) // (ctx.q - 1)
    h = big.pow(big.generator, step)
    targets = {big.encode(phi(c)) for _, c in f.terms}
    dlog = {}
    cur = big.one()
    for i in range(ctx.q - 1):
        e = big.encode(cur)
        if e in targets and e not in dlog:
            dlog[e] = i * step
        cur = big.mul(cur, h)
    return [dlog[big.encode(phi(c))] for _, c in f.terms]


def _orbit_size(jvec, q: int, Q1: int) -> int:
    """Size of the orbit of a dlog vector under j -> q*j mod Q1 (Frobenius
    x -> x^q on the torus of F_{q^k}, Q1 = q^k - 1), or 0 unless ``jvec``
    is the orbit's lex-smallest member."""
    cur = jvec
    size = 0
    while True:
        cur = tuple(j * q % Q1 for j in cur)
        size += 1
        if cur < jvec:
            return 0
        if cur == jvec:
            return size


def torus_trace_counts(f: LaurentPoly, k: int, prec: int) -> dict:
    """Multiset {trace mod p^prec: multiplicity} of Tr(f^(x)) over all
    (q^k - 1)^n torus points of the k-th extension.

    Every monomial value lies in the unit group, so its Teichmuller lift is
    teich(g)^dlog and its trace a table entry.  The walk fixes the first
    n-1 coordinates of the dlog vector and takes the last one a whole row at
    a time: each term's row is the table rotated to the term's offset and
    read at stride u_n, and the rows add elementwise.  x -> x^q fixes the
    coefficients of f, so the row of q*prefix is a permutation of the row
    of prefix: only the lex-smallest prefix of each Frobenius orbit is
    walked, its row counted once per orbit size.  Unreduced sums are
    counted and reduced mod p^prec once per distinct sum.
    """
    big = f.ctx.ext(k)
    table = _trace_table(big, prec)
    Q1 = len(table)
    q = f.ctx.q
    pm = f.ctx.p**prec
    terms = [(cl, u[:-1], u[-1] % Q1) for cl, (u, _) in zip(_coefficient_logs(f, big), f.terms)]
    reads = {e: [e * j % Q1 for j in range(Q1)] for _, _, e in terms if e > 1}
    by_size = defaultdict(Counter)  # orbit size -> unreduced row sums
    for prefix in itertools.product(range(Q1), repeat=f.n - 1):
        size = _orbit_size(prefix, q, Q1)
        if not size:
            continue
        raw = by_size[size]
        const = 0
        rows = []
        for cl, head, e in terms:
            base = (cl + sum(map(mul, head, prefix))) % Q1
            if e == 0:
                const += table[base]
                continue
            row = table[base:] + table[:base]
            rows.append(row if e == 1 else list(map(row.__getitem__, reads[e])))
        if not rows:
            raw[const] += Q1
            continue
        acc = rows[0]
        for row in rows[1:]:
            acc = map(add, acc, row)
        if const:
            acc = map(const.__add__, acc)
        raw.update(acc)
    counts = {}
    for size, raw in by_size.items():
        for t, c in raw.items():
            t %= pm
            counts[t] = counts.get(t, 0) + c * size
    return counts


def s_f_T(f: LaurentPoly, k: int, M: int, N: int, walks=None) -> TSeries:
    """Sum of (1+T)^Tr(f^(x)) over the k-th extension's torus points,
    exact mod (p^M, T^N).

    The traces are walked mod p^(M+L), L = binomial_period(N, p) =
    floor(log_p(N-1)), below binomial_sum's working precision M +
    ord_p((N-1)!).  That loses nothing: for 1 <= i <= j < N, ord_p(i) <= L
    and ord_p binom(p^r u, i) >= r - ord_p(i) (the prime-power period of
    binomials; Granville, "Arithmetic properties of binomial coefficients
    I", 1997), so by Vandermonde
    binom(t + p^(M+L) u, j) = sum_i binom(t, j-i) binom(p^(M+L) u, i)
    = binom(t, j) mod p^M.  The keys are integers in [0, p^(M+L)), so every
    aggregate binomial_sum divides by j! is still an exact multiple of it.

    ``walks`` (see torus_walks) may keep this torus walked at a higher
    precision; the multiset is then read off that walk.
    """
    SumJob(f, k, M, N)
    p = f.ctx.p
    prec = M + binomial_period(N, p)
    counts = walks.counts(k, prec) if walks is not None else None
    if counts is None:
        counts = torus_trace_counts(f, k, prec)
    return binomial_sum(counts, p, M, N, M + binomial_guard(N, p))


def s_f_psi(f: LaurentPoly, k: int, m: int, M: int) -> CycElement:
    """Classical character sum of order p^m: sum of zeta^Tr(f^(x)) with
    zeta = 1 + pi, exact mod p^M (= pi^(e*M))."""
    SumJob(f, k, M, 1, m)
    cyc = CycContext(f.ctx.p, m)
    pm_order = cyc.p**m
    zeta = cyc.zeta(M)
    powers = {0: cyc.one(M)}
    acc = cyc.zero(M)
    for t, c in sorted(torus_trace_counts(f, k, m).items()):
        r = t % pm_order
        if r not in powers:
            powers[r] = zeta.pow_int(r)
        acc = acc.add(powers[r].mul_int(c))
    return acc


# ---------------------------------------------------------------------------
# L and C functions
# ---------------------------------------------------------------------------


def power_sums_T(f: LaurentPoly, deg_s: int, M: int, N: int, walks=None):
    """S_f(k, T) for k = 1..deg_s; the largest torus is checked first.
    ``walks`` is as in s_f_T."""
    if deg_s >= 1:
        SumJob(f, deg_s, M, N)
    return [s_f_T(f, k, M, N, walks) for k in range(1, deg_s + 1)]


class TorusWalks:
    """Trace multisets of some of f's tori at one precision, each walked
    on first use and kept: every sum reading one of them walks it once."""

    def __init__(self, f: LaurentPoly, ks, prec: int):
        self.f, self.ks, self.prec = f, frozenset(ks), prec
        self._walked = {}

    def counts(self, k: int, prec: int):
        """torus_trace_counts(f, k, prec) for a kept torus, else None: the
        kept walk's keys reduced mod p^prec, which is exactly that walk."""
        if k not in self.ks:
            return None
        if prec > self.prec:
            raise PrecisionError(f"traces walked mod p^{self.prec} but the sum needs p^{prec}")
        raw = self._walked.get(k)
        if raw is None:
            raw = self._walked[k] = torus_trace_counts(self.f, k, self.prec)
        pm = self.f.ctx.p**prec
        out = {}
        for t, c in raw.items():
            t %= pm
            out[t] = out.get(t, 0) + c
        return out


def torus_walks(f: LaurentPoly, ks, deg_s: int, M: int, N: int) -> TorusWalks:
    """The tori k <= deg_s in ks, kept at the precision c_function(f,
    deg_s, M, N) walks them at, which also covers s_f_T(f, k, M, N') for
    N' <= N: a caller comparing both against one operator walks each of
    them once.  Each walk happens where the first sum reading it would
    have walked, after that sum's size checks."""
    p = f.ctx.p
    prec = M + vp_factorial(deg_s, p) + binomial_period(N, p)
    return TorusWalks(f, [k for k in ks if 1 <= k <= deg_s], prec)


def _exp_path(
    f: LaurentPoly, deg_s: int, M: int, N: int, normalized: bool, walks=None
) -> SSeries:
    if deg_s < 0:
        raise DomainError("need deg_s >= 0")
    if M < 1:  # checked before the guard digits below could lift it to 1
        raise DomainError("sum job needs k, M, N >= 1")
    # exp's recurrence divides by k <= deg_s, so work with guard digits and
    # renormalize down; divexact_int still asserts integrality on the way
    # (torus_walks adds the same guard)
    p = f.ctx.p
    guard = vp_factorial(deg_s, p)
    Mw = M + guard
    weighted = power_sums_T(f, deg_s, Mw, N, walks)
    if normalized:
        q, n = f.ctx.q, f.n
        pm = p**Mw
        scaled = []
        for k, Sk in enumerate(weighted, start=1):
            inv = pow((q**k - 1) % pm, -1, pm)
            scaled.append(Sk.mul_int(-pow(inv, n, pm)))
        weighted = scaled
    F = exp_generating(weighted, TSeries.const(p, Mw, N, 1))
    return SSeries([c.with_prec(M) for c in F.coeffs])


def l_function(f: LaurentPoly, deg_s: int, M: int, N: int) -> SSeries:
    """L(s) = exp(sum_k S_f(k,T) s^k / k) mod s^(deg_s+1), coefficients
    exact mod (p^M, T^N)."""
    return _exp_path(f, deg_s, M, N, normalized=False)


def c_function(f: LaurentPoly, deg_s: int, M: int, N: int, walks=None) -> SSeries:
    """C(s) = exp(-sum_k (q^k-1)^(-n) S_f(k,T) s^k / k): the torus-volume
    normalized variant whose Newton polygon the reports read.  ``walks`` is
    as in power_sums_T."""
    return _exp_path(f, deg_s, M, N, normalized=True, walks=walks)


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


def convert_l_to_c(F: SSeries, n: int, q: int, direction: str) -> SSeries:
    """The product identities tying L and C together.

    'c_to_l' is the finite product L(s) = prod_i C(q^i s)^(sign * binom);
    'l_to_c' is the infinite one, truncated once q^(j*k) is 0 mod p^M for
    every k >= 1, i.e. at j = ceil(M / ord_p(q)).
    """
    p = F.coeffs[0].p
    a = vp(q, p)
    if q != p**a or q < 2:
        raise DomainError("q must be a power of the coefficient prime")
    if direction == "c_to_l":
        out = F.one_like()
        for i in range(n + 1):
            e = _sign(n - i - 1) * math.comb(n, i)
            out = out.mul(F.scale_s(lambda k, qi=q**i: qi**k).pow_int(e))
        return out
    if direction == "l_to_c":
        M = min(c.prec for c in F.coeffs)
        acc = F.one_like()
        for j in range(-(-M // a)):
            e = math.comb(n + j - 1, j)
            acc = acc.mul(F.scale_s(lambda k, qj=q**j: qj**k).pow_int(e))
        return acc if n % 2 else acc.inverse()
    raise DomainError("direction must be 'l_to_c' or 'c_to_l'")


def specialize(obj, m: int, prec_out: int):
    """Substitute T = pi for the order-p^m character: a TSeries becomes a
    CycElement, an SSeries specializes coefficientwise."""
    if isinstance(obj, SSeries):
        cyc = CycContext(obj.coeffs[0].p, m)
        return SSeries([specialize_tseries(c, cyc, prec_out) for c in obj.coeffs])
    cyc = CycContext(obj.p, m)
    return specialize_tseries(obj, cyc, prec_out)


# ---------------------------------------------------------------------------
# Newton polygon reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NPReport:
    """Certified polygons of C plus the tri-state verdicts derived from
    them.  A 'false' flag is decisive (the proven floor of one polygon
    clears the visible ceiling of the other somewhere); a 'true' flag
    certifies equality on the shared window the data covers, no further;
    polygons carry their own certified_upto."""

    p: int
    a: int
    deg_s: int
    np_t: NewtonPolygon
    np_pi: dict  # m -> pi-adic polygon, ord(pi) = 1
    hp_q: NewtonPolygon
    hp_absolute: NewtonPolygon
    flags: dict  # t_ordinary / rigid / ordinary -> true|false|uncertified
    per_m: dict  # m -> {"rigid": ..., "ordinary": ...}
    nondegenerate: str  # nondegenerate | degenerate | unknown


def _verdict_label(verdict) -> str:
    if verdict == "nondegenerate":
        return "nondegenerate"
    if isinstance(verdict, tuple):
        return "degenerate"
    return "unknown"


def _flag_equal(P: NewtonPolygon, Q: NewtonPolygon) -> str:
    # premise P >= Q holds for every pairing below (Hodge bound, or the
    # specialisation T -> pi which can only raise valuations)
    return polygon_verdict(P, Q)


def _combine(flags) -> str:
    if any(s == FLAG_FALSE for s in flags):
        return FLAG_FALSE
    if flags and all(s == FLAG_TRUE for s in flags):
        return FLAG_TRUE
    return FLAG_UNCERTIFIED


def _dominates_or_incomparable(P: NewtonPolygon, Q: NewtonPolygon) -> bool:
    try:
        return polygon_dominates(P, Q)
    except DomainError:
        return True


def np_report(f: LaurentPoly, m_list, deg_s: int, M: int, N: int) -> NPReport:
    """Certified Newton polygons of C for T and for each requested pi, the
    combinatorial bounds, and ordinariness/rigidity verdicts.

    The combinatorial bound holds with no hypothesis on f, so it doubles as
    certification data: every coefficient of C obeys ord(c_k) >= HP_q(k),
    which pins down T-adic valuations that the working p-precision cannot
    see directly, and the polygon's outgoing ray controls the coefficients
    beyond the computed window.  The pi-adic side needs neither: cyclotomic
    valuations are exact below their caps.  Certified violations of
    NP_pi >= NP_T >= HP_q raise TheoremViolation: they would mean an
    arithmetic bug, not interesting mathematics.
    """
    if deg_s < 1:
        raise DomainError("need deg_s >= 1")
    dd = newton_data(f)
    p, a = f.ctx.p, f.ctx.a
    nd = _verdict_label(is_nondegenerate(f))
    hp = hodge_polygon_to_width(dd, p, a, deg_s + 2)
    hp_abs = polygon_rescale(hp, Fraction(1, a * (p - 1)))
    ray = hodge_ray(hp, deg_s + 1)

    def hp_floor(x):
        # coefficient valuations live on the integer grid in both rings
        return Fraction(math.ceil(hp.value_at(Fraction(x))))

    C = c_function(f, deg_s, M, N)
    np_t = polygon_from_sseries(C, ray=ray, lower=hp_floor, vals_exact=False)
    np_pi = {}
    per_m = {}
    for m in sorted(set(m_list)):
        cyc = CycContext(p, m)
        prec_out = min(M, N // cyc.e)
        if prec_out < 1:
            raise PrecisionError(f"T-cap {N} below one pi-digit (e={cyc.e}) at m={m}")
        P = polygon_from_sseries(specialize(C, m, prec_out), ray=ray, lower=hp_floor)
        np_pi[m] = P
        per_m[m] = {"rigid": _flag_equal(P, np_t), "ordinary": _flag_equal(P, hp)}
    flags = {
        "t_ordinary": _flag_equal(np_t, hp),
        "rigid": _combine([d["rigid"] for d in per_m.values()]),
        "ordinary": _combine([d["ordinary"] for d in per_m.values()]),
    }
    if not _dominates_or_incomparable(np_t, hp):
        raise TheoremViolation("certified NP_T dips below the combinatorial bound")
    for m, P in np_pi.items():
        if not _dominates_or_incomparable(P, np_t):
            raise TheoremViolation(f"certified pi-adic polygon (m={m}) dips below NP_T")
        if not _dominates_or_incomparable(P, hp):
            raise TheoremViolation(
                f"certified pi-adic polygon (m={m}) dips below the combinatorial bound"
            )
    return NPReport(
        p=p,
        a=a,
        deg_s=deg_s,
        np_t=np_t,
        np_pi=np_pi,
        hp_q=hp,
        hp_absolute=hp_abs,
        flags=flags,
        per_m=per_m,
        nondegenerate=nd,
    )


# ---------------------------------------------------------------------------
# the divisibility check on high s-coefficients
# ---------------------------------------------------------------------------


def congruence_modulus(p: int, m: int):
    """((1+T)^(p^m) - 1)/T as integer coefficients, lowest first: monic of
    degree p^m - 1, constant term p^m; its roots are zeta - 1 over the
    nontrivial p^m-th roots of unity zeta."""
    pm = p**m
    return [math.comb(pm, j + 1) for j in range(pm)]


def _tail_ord_floor(g, start: int, p: int) -> int:
    """Lower bound on ord_p(T^j mod g), uniform over all j >= start.

    T^(p^m) mod g is p times an integral polynomial, so each step of p^m in
    j gains at least one factor of p; the minimum over the window
    T^(start-1) .. T^(start+deg-1), of length p^m, therefore bounds the
    entire tail.  The powers are exact integers, stepped by x-steps mod g.
    """
    deg = len(g) - 1
    if start <= deg:
        return 0
    low = g[:deg]
    red = [0] * (deg - 1) + [1]  # T^(deg-1)
    for _ in range(start - deg):
        red = _times_x(red, low)
    floors = []
    for _ in range(deg + 1):
        floors.append(min(vp(c, p) for c in red if c))
        red = _times_x(red, low)
    return min(floors)


@dataclass(frozen=True)
class CongruenceCheck:
    k: int
    status: str  # pass | fail | skipped | inconclusive
    proven_mod_exponent: int


@dataclass(frozen=True)
class CongruenceReport:
    m: int
    degree_bound: int
    modulus_degree: int
    tail_floor: int
    checks: tuple
    nondegenerate: str
    override: bool


def congruence_check(
    f: LaurentPoly, m: int, k_range, M: int, N: int, override_nondegenerate: bool = False
) -> CongruenceReport:
    """Divisibility of the s^k coefficients of L^(+-1) by ((1+T)^(p^m)-1)/T
    for k past the degree bound n! * Vol * p^(n(m-1)); a k_range of None
    checks the two k just past the bound.

    The head is reduced modulo (g, p^M) by Horner's rule; the unseen T-tail is
    bounded by _tail_ord_floor, so every verdict names the power of p it is
    proven at.  The nondegeneracy hypothesis is checked, or attested via
    the override and recorded.
    """
    if m < 1:
        raise DomainError("character level m must be >= 1")
    dd = newton_data(f)
    p, n = f.ctx.p, f.n
    bound = dd.normalized_volume() * p ** (n * (m - 1))
    nd = _verdict_label(is_nondegenerate(f))
    if nd != "nondegenerate" and not override_nondegenerate:
        raise DomainError(
            "nondegeneracy is not certified; pass override_nondegenerate to attest it"
        )
    if k_range is None:
        k_range = (bound + 1, bound + 2)
    ks = sorted({int(k) for k in k_range})
    if not ks or ks[0] < 1:
        raise DomainError("k range must be positive")
    if dd.rank < f.n:
        raise DomainError("degree bound needs full-dimensional support")
    g = congruence_modulus(p, m)
    applicable = [k for k in ks if k > bound]
    tail = 0
    checks = []
    if applicable:
        L = l_function(f, max(applicable), M, N)
        P = L if n % 2 else L.inverse()
        tail = _tail_ord_floor(g, N, p)
        eff = min(M, tail)
        pm_eff = p**eff
        for k in ks:
            if k <= bound:
                checks.append(CongruenceCheck(k, "skipped", 0))
            elif eff == 0:
                checks.append(CongruenceCheck(k, "inconclusive", 0))
            else:
                ts = P.coeffs[k]
                rem = _reduce_mod([ts.coeff(j) for j in range(ts.cap)], g[:-1], p**M)
                status = "pass" if all(c % pm_eff == 0 for c in rem) else "fail"
                checks.append(CongruenceCheck(k, status, eff))
    else:
        checks = [CongruenceCheck(k, "skipped", 0) for k in ks]
    return CongruenceReport(
        m=m,
        degree_bound=bound,
        modulus_degree=len(g) - 1,
        tail_floor=tail,
        checks=tuple(checks),
        nondegenerate=nd,
        override=override_nondegenerate,
    )


# ---------------------------------------------------------------------------
# family surveys
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurveyReport:
    p: int
    a: int
    exponents: tuple
    sample_count: int
    seed: int
    deg_s: int
    histogram: tuple  # ((certified NP_T prefix vertices, count), ...) by frequency
    t_ordinary: int
    not_t_ordinary: int
    uncertified: int
    nondegenerate_failures: int


def _certified_prefix(P: NewtonPolygon):
    hi = min(P.certified_upto, P.last_x)
    verts = [v for v in P.vertices if v[0] < hi]
    verts.append((hi, P.value_at(hi)))
    return tuple(verts)


def survey_family(
    exponents, p: int, a: int, sample_count: int, seed: int, deg_s: int, M: int, N: int
) -> SurveyReport:
    """Seeded survey over one exponent support: coefficients drawn uniformly
    from the nonzero field elements, NP_T prefixes and T-ordinariness
    tallied.  Same seed, same report."""
    exps = tuple(tuple(int(e) for e in u) for u in exponents)
    if not exps:
        raise DomainError("empty support")
    if sample_count < 0:
        raise DomainError("need sample_count >= 0")
    n = len(exps[0])
    ctx = field_context(p, a)
    units = [x for x in ctx.elements() if x != ctx.zero()]
    rng = random.Random(seed)
    hist = {}
    t_ord = t_not = t_unc = nd_fail = 0
    for _ in range(sample_count):
        f = LaurentPoly.make(n, {u: rng.choice(units) for u in exps}, ctx)
        rep = np_report(f, [], deg_s, M, N)
        if rep.nondegenerate != "nondegenerate":
            nd_fail += 1
        flag = rep.flags["t_ordinary"]
        if flag == FLAG_TRUE:
            t_ord += 1
        elif flag == FLAG_FALSE:
            t_not += 1
        else:
            t_unc += 1
        key = _certified_prefix(rep.np_t)
        hist[key] = hist.get(key, 0) + 1
    ordered = tuple(sorted(hist.items(), key=lambda kv: (-kv[1], kv[0])))
    return SurveyReport(
        p=p,
        a=a,
        exponents=exps,
        sample_count=sample_count,
        seed=seed,
        deg_s=deg_s,
        histogram=ordered,
        t_ordinary=t_ord,
        not_t_ordinary=t_not,
        uncertified=t_unc,
        nondegenerate_failures=nd_fail,
    )
