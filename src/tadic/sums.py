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
from fractions import Fraction
from functools import lru_cache
from operator import add, mul
from typing import Optional

from .arith import (
    FIELD_LIMIT,
    TORUS_LIMIT,
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
    column_echelon,
    hodge_polygon_to_width,
    hodge_ray,
    is_nondegenerate,
    newton_data,
)
from .series import (
    NewtonPolygon,
    SSeries,
    TSeries,
    _pack,
    _pack_bytes,
    _packed_dot,
    _slot_width,
    _unpack,
    exp_generating,
    polygon_dominates,
    polygon_from_sseries,
    polygon_rescale,
    polygon_verdict,
    vp,
    vp_factorial,
)

FLAG_TRUE = "true"
FLAG_FALSE = "false"
FLAG_UNCERTIFIED = "uncertified"


def _decimal(n: int) -> str:
    """n in decimal, or its bit length past the interpreter's int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:
        return f"<{n.bit_length()}-bit integer>"


def check_sum(f: LaurentPoly, k: int, M: int, N: int, m: Optional[int] = None):
    """Refuse a torus sum request before any work: extension degree k,
    p-adic digits M on output coefficients, T-adic cap N and, when
    specializing, character level m, with the field and torus limits."""
    if k < 1 or M < 1 or N < 1:
        raise DomainError("sum job needs k, M, N >= 1")
    if m is not None and m < 1:
        raise DomainError("character level m must be >= 1")
    ctx = f.ctx
    # q >= 2, so k past the limit's bit length is too large without
    # computing q^k
    if k >= FIELD_LIMIT.bit_length() or ctx.q**k > FIELD_LIMIT:
        raise DomainError(
            f"field too large: q^k = {ctx.p}^{_decimal(ctx.a * k)} exceeds "
            f"the field-size limit p^(a*k) <= 2^{FIELD_LIMIT.bit_length() - 1}"
        )
    if (ctx.q**k - 1) ** f.n > TORUS_LIMIT:
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
    checked when it is built.  A miss reduces a kept table of the same
    field at a higher precision mod p^prec when there is one, and builds
    otherwise.
    """
    key = (big.p, big.a, prec)
    table = _TABLES.pop(key, None)
    if table is None:
        finer = next((t for (p, a, m), t in _TABLES.items() if (p, a) == key[:2] and m > prec), None)
        if finer is None:
            table = _build_trace_table(big, prec)
        else:
            pm = big.p**prec
            table = tuple(x % pm for x in finer)
    _TABLES[key] = table
    while _TABLES and sum(map(len, _TABLES.values())) > TABLE_CACHE_ENTRIES:
        del _TABLES[next(iter(_TABLES))]
    return table


def _build_trace_table(big: FieldContext, prec: int) -> tuple:
    """The power sums of chi(x) = prod_{i<d} (x - w^(p^i)), the
    characteristic polynomial of w = teich(g) over Z_p (d = [F:F_p]).

    s_1..s_d come from Newton's identities and every later entry from the
    order-d recurrence chi(w) = 0, a whole block of B entries at a time.
    A block is a fixed linear image of the d entries before it,
    s_{k+t} = sum_{i<d} M[t][i] s_{k-d+i} for t < B, where column i of M
    is the recurrence run from the unit state e_i, mod p^prec (Fiduccia
    1985).  Each column is packed into one integer, sum_t M[t][i] << W*t
    (Kronecker substitution), so a block is V = sum_i s_{k-d+i} col_i, d
    big-int products, and its entries are V's W-bit slots, each reduced
    mod p^prec.  Entries and column values lie in [0, p^prec), so a slot
    holds at most d*(p^prec - 1)^2 < 2^W, W = _slot_width of that bound
    (_packed_dot).
    B ~ sqrt((q-1)/d) balances the d*B recurrence steps that build the
    columns against the (q-1)/B block steps; the last block is cut at q-1.
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
    B = math.isqrt(Q1 // d)  # >= 1, as q - 1 >= d
    W = _slot_width(d * (pm - 1) ** 2)
    cols = []
    for i in range(d):
        u = [0] * d
        u[i] = 1
        for k in range(d, d + B):
            u.append(sum(map(mul, neg_c, u[k - d : k])) % pm)
        cols.append(_pack(u[d:], W))
    for k in range(len(s), Q1, B):
        block = _packed_dot(s[k - d : k], cols, W, B)
        s += [x % pm for x in block[: Q1 - k]]
    return tuple(s)


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


def _strided(table, r: int, e: int, L: int) -> list:
    """table[(r + e*i) % len(table)] for i < L, a C-level slice per pass
    over the table (a negative e reads it backwards)."""
    out = []
    while len(out) < L:
        run = table[r::e]
        out += run
        r = (r + e * len(run)) % len(table)
    del out[L:]
    return out


def _add_shifted(counts: dict, hist, shifts, pm: int) -> None:
    """counts[(v + C) % pm] += c*w over v: c in ``hist``, C: w in ``shifts``;
    pair by pair when there are few pairs, else one product of the count
    vectors packed a slot per residue mod pm, its upper half folded back."""
    if len(hist) * len(shifts) <= 2 * pm:
        for C, w in shifts.items():
            for v, c in hist.items():
                t = (v + C) % pm
                counts[t] = counts.get(t, 0) + c * w
        return
    W = _slot_width(sum(hist.values()) * sum(shifts.values()))
    prod = 1
    for d in (hist, shifts):
        vec = [0] * pm
        for t, c in d.items():
            vec[t % pm] += c
        prod *= _pack(vec, W)
    prod = _unpack(prod, W, 2 * pm)
    for t, c in enumerate(map(add, prod[:pm], prod[pm:])):
        if c:
            counts[t] = counts.get(t, 0) + c


def torus_trace_counts(f: LaurentPoly, k: int, prec: int) -> dict:
    """Multiset {trace mod p^prec: multiplicity} of Tr(f^(x)) over all
    (q^k - 1)^n torus points of the k-th extension.

    Every monomial value lies in the unit group, so its Teichmuller lift is
    teich(g)^dlog and its trace a table entry.  The walk fixes the first
    n-1 coordinates of the dlog vector and takes the last one a whole row at
    a time: r(i) = sum_t T[b_t + e_t*i] + C, e_t = u_n mod Q1, C the traces
    of the terms with e_t = 0.  x -> x^q fixes the coefficients of f, so
    the row of q*prefix is a permutation of the row of prefix: only the
    lex-smallest prefix of each Frobenius orbit is walked, its row counted
    once per orbit size.  Unreduced sums are counted and reduced mod
    p^prec once per distinct sum.

    Rows are big integers of W-bit slots (Kronecker packing).  A slot
    holds at most len(terms)*(p^prec - 1) < 2^W, so rows add as integers
    (_packed_dot).  Reading at stride e stays in one class r mod g =
    gcd(e, Q1) and repeats with period L = Q1/g, so the row is a rotation
    of the copy table[(r + e*i) % Q1], i < L, repeated g times.  Each
    (e, r) copy is packed twice end to end on first use, so a slice of at
    most L slots never wraps; the negative stride e - Q1 is read when it
    is shorter.  Two row classes skip the whole row:
    - One moving term: its copy runs over table[r::g] (e/g is a unit mod
      L), so the row is that slice shifted by C, g times.  C gets weight
      g*size in class (g, r); each class is shifted once, after the walk.
      With no moving term the first term is taken as one (e = 0, g = Q1).
    - Strides e and -e, e*h = b2 - b1 (mod Q1) solvable: r(h - i) =
      T[b1 + e*h - e*i] + T[b2 - e*h + e*i] + C = r(i).  Slots h//2 + 1 ..
      h//2 + L//2 (h even if L is odd) hold one of each pair {i, h - i} and
      count at 2*g*size; the fixed slot h/2 (h even) adds g*size, and the
      fixed slot h/2 + L/2 (h, L even), counted twice, takes g*size back.
    """
    big = f.ctx.ext(k)
    table = _trace_table(big, prec)
    Q1 = len(table)
    q = f.ctx.q
    pm = f.ctx.p**prec
    W = _slot_width(len(f.terms) * (pm - 1))
    nb = W // 8
    terms = []
    for u, c in f.terms:
        e = u[-1] % Q1
        if e > Q1 // 2:
            e -= Q1
        g = math.gcd(e, Q1)
        L = Q1 // g
        # i0 = ((base - r) // g) * inv mod L puts r + e*i0 at base
        terms.append((f.ctx.dlog_in(big, c), u[:-1], e, g, L, pow(e // g, -1, L)))
    terms.sort(key=lambda t: t[2] == 0)  # moving terms first
    nm = sum(1 for t in terms if t[2]) or 1  # moving terms; at least one
    e, g, L, inv = terms[0][2:]
    # the all-ones row, for terms constant along the row
    ones = _pack([1] * Q1, W) if nm < len(terms) else 0
    mirror = nm == 2 and (e + terms[1][2]) % Q1 == 0
    H = L // 2  # slots counted per mirrored row
    ones_half = ones >> W * (Q1 - H)
    copies = {}  # (e, r) -> packed copy, twice end to end
    counts = {}
    by_weight = defaultdict(Counter)  # weight -> unreduced row sums
    shifts = defaultdict(Counter)  # one-term class (g, r) -> {C: weight}
    for prefix in itertools.product(range(Q1), repeat=f.n - 1):
        size = _orbit_size(prefix, q, Q1)
        if not size:
            continue
        bases = [(cl + sum(map(mul, head, prefix))) % Q1 for cl, head, *_ in terms]
        const = sum(map(table.__getitem__, bases[nm:]))
        b = bases[0]
        if nm == 1:
            shifts[g, b % g][const] += g * size
            continue
        # the whole row: L slots of each copy, g times over
        start, span, weight, B, row = 0, 0, size, Q1, const * ones
        if mirror and (bases[1] - b) % g == 0:
            h = (bases[1] - b) // g * inv % L
            if L % 2 and h % 2:
                h += L
            if h % 2 == 0:  # the fixed points, where both terms read T[b + e*i]
                for i, c in ((h // 2, g * size), (h // 2 + H, -g * size))[: 2 - L % 2]:
                    t = (2 * table[(b + e * i) % Q1] + const) % pm
                    counts[t] = counts.get(t, 0) + c
            start, span, weight = h // 2 + 1, H, 2 * g * size
            B, row = H, const * ones_half
        for bt, (_, _, et, gt, Lt, it) in zip(bases, terms[:nm]):
            r = bt % gt
            packed = copies.get((et, r))
            if packed is None:
                packed = copies[et, r] = _pack_bytes(_strided(table, r, et, Lt), W) * 2
            i = ((bt - r) // gt * it + start) % Lt
            piece = packed[i * nb : (i + (span or Lt)) * nb]
            row += int.from_bytes(piece if span else piece * gt, "little")
        by_weight[weight].update(_unpack(row, W, B))
    for w, raw in by_weight.items():
        for t, c in raw.items():
            t %= pm
            counts[t] = counts.get(t, 0) + c * w
    for (g, r), weights in shifts.items():
        _add_shifted(counts, Counter(table[r::g]), weights, pm)
    return counts


# S_f(k, T) kept per coefficient class and (k, M, N), least recently used
# first; one entry is a series of at most N residues
SUM_CACHE_SIZE = 256
_SUMS: dict = {}


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
    = binom(t, j) mod p^M.  The keys are integers in [0, p^(M+L)): a dense
    multiset is summed by binomial_sum's stepped pass, which reads keys only
    mod p^(M+L) and divides by nothing, and on a sparse one every aggregate
    the moment pass divides by j! is still an exact multiple of it.

    The sum depends only on f's coefficient class (see
    _coefficient_class), so the process keeps the last SUM_CACHE_SIZE
    sums by class and (k, M, N), and a polynomial of a class already
    summed walks no torus.  Callers must not alter the series returned.

    ``walks`` (see torus_walks) may keep this torus walked at a higher
    precision; the multiset is then read off that walk, and the kept sums
    are neither read nor written.
    """
    check_sum(f, k, M, N)
    p = f.ctx.p
    prec, guard = M + binomial_period(N, p), M + binomial_guard(N, p)
    if walks is not None:
        return binomial_sum(walks.counts(k, prec), p, M, N, guard)
    key = (_coefficient_class(f), k, M, N)
    S = _SUMS.pop(key, None)
    if S is None:
        S = binomial_sum(torus_trace_counts(f, k, prec), p, M, N, guard)
    _SUMS[key] = S
    if len(_SUMS) > SUM_CACHE_SIZE:
        del _SUMS[next(iter(_SUMS))]
    return S


@lru_cache(maxsize=256)
def _scaling_basis(exps: tuple, Q1: int) -> tuple:
    """Triangular basis of the lattice U*Z^n + Q1*Z^r, U the r x n matrix
    whose rows are the exponent vectors ``exps``: row i is zero before
    column i and holds its pivot d_i > 0 there (a Hermite basis).

    The lattice has rank r, so the first r columns of the column echelon
    of [U | Q1*I] span it, column i pivoting at row i; each is read as a
    row here, its sign made positive.
    """
    r = len(exps)
    gens = [list(u) + [Q1 * (i == j) for j in range(r)] for i, u in enumerate(exps)]
    E = column_echelon(gens, len(gens[0]))[0]
    return tuple(tuple(row[i] if E[i][i] > 0 else -row[i] for row in E) for i in range(r))


def _lattice_reduce(v, basis) -> tuple:
    """The representative of v + L with 0 <= v_i < d_i, L spanned by the
    triangular ``basis``: one per coset, as a difference of two of them
    in L has its first nonzero entry, a multiple of that pivot, inside
    (-d_i, d_i)."""
    v = list(v)
    for i, row in enumerate(basis):
        t = v[i] // row[i]
        if t:
            v = [x - t * y for x, y in zip(v, row)]
    return tuple(v)


def _coefficient_class(f: LaurentPoly) -> tuple:
    """(p, a, support, ell): one value per orbit of f's coefficient vector
    under torus scaling and Frobenius, and different values for different
    orbits.

    x -> lambda*x with lambda in (F_q^*)^n, and c -> c^p on every
    coefficient, permute the torus of each F_{q^k} and keep the trace of
    every Teichmuller monomial, so every f of one orbit has the same
    S_f(k, T) (the torus and Galois invariance of Adolphson and Sperber,
    Ann. Math. 130, 1989).  With ell_i = dlog_g c_i mod Q1 = q - 1,
    scaling by lambda = g^mu adds U*mu, so the scaling orbits are the
    cosets of U*Z^n + Q1*Z^r, and Frobenius multiplies ell by p; ell is
    taken as the least of the a cosets of p^s*ell, s < a, each reduced
    against _scaling_basis.  p and a are part of the value because equal
    LaurentPoly values over different fields compare equal.
    """
    ctx = f.ctx
    Q1 = ctx.q - 1
    exps = tuple(u for u, _ in f.terms)
    logs = ctx.subfield_logs(ctx.q)
    ell = [logs[ctx.encode(c)] for _, c in f.terms]
    basis = _scaling_basis(exps, Q1)
    ell = min(_lattice_reduce([e * ctx.p**s % Q1 for e in ell], basis) for s in range(ctx.a))
    return ctx.p, ctx.a, exps, ell


def s_f_psi(f: LaurentPoly, k: int, m: int, M: int, walks=None) -> CycElement:
    """Classical character sum of order p^m: sum of zeta^Tr(f^(x)) with
    zeta = 1 + pi, exact mod p^M (= pi^(e*M)).  ``walks`` is as in
    s_f_T."""
    check_sum(f, k, M, 1, m)
    cyc = CycContext(f.ctx.p, m)
    pm_order = cyc.p**m
    zeta = cyc.zeta(M)
    powers = {0: cyc.one(M)}
    acc = cyc.zero(M)
    counts = walks.counts(k, m) if walks is not None else torus_trace_counts(f, k, m)
    for t, c in sorted(counts.items()):
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
        check_sum(f, deg_s, M, N)
    return [s_f_T(f, k, M, N, walks) for k in range(1, deg_s + 1)]


class TorusWalks:
    """Trace multisets of some of f's tori at one precision, each walked
    on first use and kept: every sum reading one of them walks it once."""

    def __init__(self, f: LaurentPoly, ks, prec: int):
        self.f, self.ks, self.prec = f, frozenset(ks), prec
        self._walked = {}

    def counts(self, k: int, prec: int):
        """torus_trace_counts(f, k, prec): for a kept torus, the kept
        walk's keys reduced mod p^prec, which is exactly that walk."""
        if k not in self.ks:
            return torus_trace_counts(self.f, k, prec)
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
    if deg_s >= 1:  # the largest torus, before the guard digits are counted
        check_sum(f, deg_s, M, N)
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


def _verdict_label(verdict) -> str:
    if verdict == "nondegenerate":
        return "nondegenerate"
    if isinstance(verdict, tuple):
        return "degenerate"
    return "unknown"


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


def np_report(f: LaurentPoly, m_list, deg_s: int, M: int, N: int) -> dict:
    """Certified Newton polygons of C for T and for each requested pi, the
    combinatorial bounds, and ordinariness/rigidity verdicts.

    The report is the `np` command's document: deg_s; np_t; np_pi, m ->
    pi-adic polygon with ord(pi) = 1; hp_q and hp_absolute; flags,
    t_ordinary / rigid / ordinary -> true | false | uncertified; per_m,
    m -> {"rigid": ..., "ordinary": ...}; and nondegenerate, one of
    nondegenerate | degenerate | unknown.  A "false" flag is decisive: the
    proven floor of one polygon clears the visible ceiling of the other
    somewhere.  A "true" flag certifies equality on the shared window the
    data covers, no further; polygons carry their own certified_upto.

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

    # coefficient valuations live on the integer grid in both rings; the
    # Hodge floor of each coefficient is read once, for every polygon below
    hp_floor = hp.ceilings(deg_s).__getitem__

    C = c_function(f, deg_s, M, N)
    np_t = polygon_from_sseries(C, ray=ray, lower=hp_floor, vals_exact=False)
    np_pi = {}
    per_m = {}
    for m in sorted(set(m_list)):
        # checked before specialize builds Z_p[pi], of degree e over Z_p
        if m < 1:
            raise DomainError("character level m must be >= 1")
        # e >= 2^(m-1) > N from N's bit length on: refused before p^(m-1) is built
        if m - 1 >= N.bit_length():
            raise PrecisionError(f"T-cap {N} below one pi-digit (e={p}^{m - 1}*{p - 1}) at m={m}")
        e = p ** (m - 1) * (p - 1)
        prec_out = min(M, N // e)
        if prec_out < 1:
            raise PrecisionError(f"T-cap {N} below one pi-digit (e={e}) at m={m}")
        P = polygon_from_sseries(specialize(C, m, prec_out), ray=ray, lower=hp_floor)
        np_pi[m] = P
        # polygon_verdict's premise P >= Q: the specialisation T -> pi can
        # only raise valuations, and every polygon lies on or above Hodge
        per_m[m] = {"rigid": polygon_verdict(P, np_t), "ordinary": polygon_verdict(P, hp)}
    flags = {
        "t_ordinary": polygon_verdict(np_t, hp),  # premise: the Hodge bound
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
    return {
        "deg_s": deg_s,
        "np_t": np_t,
        "np_pi": np_pi,
        "hp_q": hp,
        "hp_absolute": hp_abs,
        "flags": flags,
        "per_m": per_m,
        "nondegenerate": nd,
    }


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


def congruence_check(
    f: LaurentPoly, m: int, k_range, M: int, N: int, override_nondegenerate: bool = False
) -> dict:
    """Divisibility of the s^k coefficients of L^(+-1) by ((1+T)^(p^m)-1)/T
    for k past the degree bound n! * Vol * p^(n(m-1)); a k_range of None
    checks the two k just past the bound.

    The report is one level's entry of the `congruence` document:
    degree_bound, modulus_degree, tail_floor, nondegenerate, override, and
    checks, one {"k", "status", "proven_mod_exponent"} per k in increasing
    order, status one of pass | fail | skipped | inconclusive.

    A bound at or past FIELD_LIMIT is refused with a DomainError when k is
    given.  So is any bound whose factors' bit lengths add up past 2^16,
    judged before the bound is built.  No k past such a bound has a field
    within the field-size limit, and the report could not print it.  With
    no k given, the two k past a smaller bound meet the field-size limit
    as every other k does.

    The head is reduced modulo (g, p^M) by Horner's rule; the unseen T-tail is
    bounded by _tail_ord_floor, so every verdict names the power of p it is
    proven at.  The nondegeneracy hypothesis is checked, or attested via
    the override and recorded.
    """
    if m < 1:
        raise DomainError("character level m must be >= 1")
    dd = newton_data(f)
    p, n = f.ctx.p, f.n
    vol, e = dd.normalized_volume(), n * (m - 1)
    # past 2^16 bits by its factors the bound is not built: it is far past FIELD_LIMIT
    bound = vol * p**e if vol.bit_length() + e * p.bit_length() <= 1 << 16 else None
    nd = _verdict_label(is_nondegenerate(f))
    if nd != "nondegenerate" and not override_nondegenerate:
        raise DomainError(
            "nondegeneracy is not certified; pass override_nondegenerate to attest it"
        )
    ks = None
    if k_range is not None:
        ks = sorted({int(k) for k in k_range})
        if not ks or ks[0] < 1:
            raise DomainError("k range must be positive")
    if dd.rank < f.n:
        raise DomainError("degree bound needs full-dimensional support")
    if bound is None or (ks is not None and bound >= FIELD_LIMIT):
        # every k past it would need a field q^k >= 2^k past the limit
        raise DomainError(
            f"degree bound {vol}*{p}^{e} exceeds the field-size limit "
            f"2^{FIELD_LIMIT.bit_length() - 1}: no k past it can be checked"
        )
    if ks is None:
        ks = [bound + 1, bound + 2]
    tail = eff = 0
    if ks[-1] > bound:
        L = l_function(f, ks[-1], M, N)
        P = L if n % 2 else L.inverse()
        # p^m binomials: built only once l_function has passed its size checks
        g = congruence_modulus(p, m)
        tail = _tail_ord_floor(g, N, p)
        eff = min(M, tail)
        pm_eff = p**eff
    checks = []
    for k in ks:
        if k <= bound:
            status, proven = "skipped", 0
        elif eff == 0:
            status, proven = "inconclusive", 0
        else:
            ts = P.coeffs[k]
            rem = _reduce_mod([ts.coeff(j) for j in range(ts.cap)], g[:-1], p**M)
            status = "pass" if all(c % pm_eff == 0 for c in rem) else "fail"
            proven = eff
        checks.append({"k": k, "status": status, "proven_mod_exponent": proven})
    return {
        "degree_bound": bound,
        "modulus_degree": p**m - 1,
        "tail_floor": tail,
        "checks": checks,
        "nondegenerate": nd,
        "override": override_nondegenerate,
    }


# ---------------------------------------------------------------------------
# family surveys
# ---------------------------------------------------------------------------


def _certified_prefix(P: NewtonPolygon):
    """The polygon's vertices up to its certified end, x and y Fractions."""
    hi = Fraction(min(P.certified_upto, P.last_x))
    verts = [(Fraction(x), y) for x, y in P.vertices if x < hi]
    verts.append((hi, P.value_at(hi)))
    return tuple(verts)


def survey_family(
    exponents, p: int, a: int, sample_count: int, seed: int, deg_s: int, M: int, N: int
) -> dict:
    """Seeded survey over one exponent support: coefficients drawn uniformly
    from the nonzero field elements, NP_T prefixes and T-ordinariness
    tallied.  Same seed, same report.

    The report is the `survey` document past its header: the support, the
    sample count, seed and deg_s, the T-ordinariness tallies, and the
    histogram of certified NP_T prefixes, one {"prefix", "count"} per
    prefix, most frequent first."""
    exps = tuple(tuple(int(e) for e in u) for u in exponents)
    if not exps:
        raise DomainError("empty support")
    if sample_count < 0:
        raise DomainError("need sample_count >= 0")
    n = len(exps[0])
    ctx = field_context(p, a)
    rng = random.Random(seed)
    hist = {}
    t_ord = t_not = t_unc = nd_fail = 0
    for _ in range(sample_count):
        f = LaurentPoly.make(n, {u: ctx.decode(rng.randrange(1, ctx.q)) for u in exps}, ctx)
        rep = np_report(f, [], deg_s, M, N)
        if rep["nondegenerate"] != "nondegenerate":
            nd_fail += 1
        flag = rep["flags"]["t_ordinary"]
        if flag == FLAG_TRUE:
            t_ord += 1
        elif flag == FLAG_FALSE:
            t_not += 1
        else:
            t_unc += 1
        key = _certified_prefix(rep["np_t"])
        hist[key] = hist.get(key, 0) + 1
    ordered = sorted(hist.items(), key=lambda kv: (-kv[1], kv[0]))
    return {
        "support": exps,
        "sample_count": sample_count,
        "seed": seed,
        "deg_s": deg_s,
        "histogram": [{"prefix": verts, "count": count} for verts, count in ordered],
        "t_ordinary": t_ord,
        "not_t_ordinary": t_not,
        "uncertified": t_unc,
        "nondegenerate_failures": nd_fail,
    }
