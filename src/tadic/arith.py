"""Finite fields with a deterministic presentation, their unramified p-adic
lifts, Teichmuller points, traces, the (1+T)^t binomial series, and the
cyclotomic rings Z_p[zeta_{p^m}] presented pi-adically.

Field elements are plain tuples of ints mod p in the power basis of a fixed
defining polynomial; the same integer polynomial lifted to Z/p^M presents the
unramified extension, so reduction mod p is literally coefficientwise.  All
constructions are deterministic functions of (p, a): the defining polynomial
is the lexicographically smallest monic irreducible (ordered by the integer
encoding sum c_i p^i of its non-leading coefficients) and the generator is
the smallest element of full multiplicative order.  For a >= 2 both are read
from the committed table in _presentations.py, which
scripts/field_presentations.py computes; at a = 1 the polynomial is y and
the generator, the least primitive root, is found at start-up.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import DomainError, IntegralityError, PrecisionError, TheoremViolation
from .series import (
    TSeries,
    _mod_width,
    _pack,
    _packed_dot,
    _slot_reducer,
    _slot_width,
    _unpack,
    divexact,
    power,
    vp,
    vp_factorial,
)


# largest field F_{p^a} a FieldContext presents; its elements are enumerated
FIELD_LIMIT = 2**20
# largest torus (q^k - 1)^n a sum walks or the nondegeneracy test searches
TORUS_LIMIT = 4_000_000


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- the quotient ring (Z/modulus)[x]/(g), g monic of degree d ----------------
#
# F_q, Z_q and Z_p[pi] are all this ring, and the congruence check reduces
# in it too: elements are length-d coefficient tuples, low degree first, and
# g is given by its d non-leading coefficients ``low``.  A product is one
# Kronecker-packed big-integer product (see _mul_rows): residues below the
# modulus m go W bits a slot, 2d(m-1)^2 < 2^W.  A schoolbook loop, which
# forms one product per nonzero x_i and each y_j, is quicker below 20 such
# products: always at d <= 4, and at d = 5 or 6 over F_q for small p, where
# many x_i are zero.  Per product, loop / packed, best of 11 interleaved
# runs on random operands (Python 3.11.7, 2 vCPU): d = 4 mod 2^10 (16
# products) 4.0 / 4.0 us; F_64 (19 on average) 3.8 / 4.2 us; F_3125 (21)
# 4.3 / 4.2 us; d = 5 mod 2^10 (25) 5.4 / 4.4 us; d = 8 mod 2^10 (64)
# 11.8 / 6.1 us.


def _times_x(v, low):
    """x * v mod g for v of degree < d, in exact integers: the top
    coefficient spills into x^d = -low.  Callers reduce mod their modulus."""
    top = v[-1]
    out = [0, *v[:-1]]
    if top:
        for j, c in enumerate(low):
            out[j] -= top * c
    return out


def _reduce_mod(coeffs, low, modulus):
    """sum_j coeffs[j] x^j mod (g, modulus) by Horner's rule, one x-step per
    coefficient."""
    acc = [0] * len(low)
    for c in reversed(coeffs):
        acc = _times_x(acc, low)
        acc[0] += c
        acc = [u % modulus for u in acc]
    return tuple(acc)


@lru_cache(maxsize=256)
def _reduction_rows(low, modulus):
    """(rows, W, packed) per (g, modulus): row i = x^(d+i) mod (g, modulus)
    for i < d, the slot width W of _mul_rows, and each row packed W bits a
    slot."""
    rows = []
    cur = (0,) * (len(low) - 1) + (1,)  # x^(d-1)
    for _ in low:
        cur = tuple([c % modulus for c in _times_x(cur, low)])
        rows.append(cur)
    d = len(low)
    W = _slot_width(2 * d * (modulus - 1) ** 2)
    return tuple(rows), W, tuple(_pack(r, W) for r in rows)


def _mulmod(x, y, low, modulus):
    """x * y mod (g, modulus)."""
    return _mul_rows(x, y, _reduction_rows(low, modulus), modulus)


def _mul_rows(x, y, reduction, modulus):
    """x * y mod (g, modulus), given g's _reduction_rows; x and y may be
    any integer tuples of length d.

    From 20 loop products on, x and y are reduced and packed W bits a
    slot (Kronecker substitution), so their product is one big-integer
    product whose 2d - 1 slots are the convolution, each at most
    d(m-1)^2.  The d - 1 slots past degree d - 1 are reduced mod m and
    folded in as scalar multiples of the packed rows, which adds at most
    (d-1)(m-1)^2 to each low slot: W is chosen with 2d(m-1)^2 < 2^W
    (_packed_dot).  Below it, the same product and fold run coefficient by
    coefficient."""
    rows, W, packed = reduction
    d = len(rows)
    # the crossover, measured in the ring comment; d*d bounds the count
    if d * d < 20 or (d - x.count(0)) * d < 20:
        conv = [0] * (2 * d - 1)
        for i, u in enumerate(x):
            if u:
                for j, v in enumerate(y):
                    conv[i + j] += u * v
        out = conv[:d]
        for i in range(d, 2 * d - 1):
            c = conv[i] % modulus
            if c:
                row = rows[i - d]
                for j in range(d):
                    out[j] += c * row[j]
        return tuple(c % modulus for c in out)
    prod = _pack([u % modulus for u in x], W) * _pack([u % modulus for u in y], W)
    high = [c % modulus for c in _unpack(prod >> W * d, W, d - 1)]
    return tuple([c % modulus for c in _packed_dot(high, packed, W, d, prod)])


class FieldContext:
    """Deterministic presentation of F_q, q = p^a, with its Z_q lift.

    Elements are tuples of length a (ints mod p).  The integer encoding
    sum c_i p^i orders elements, and every choice the presentation makes
    is the smallest in that order.
    """

    def __init__(self, p: int, a: int):
        if not is_prime(p):
            raise DomainError(f"p={p} is not prime")
        if a < 1 or p**a > FIELD_LIMIT:
            raise DomainError(f"unsupported field size p^a = {p}^{a}")
        self.p = p
        self.a = a
        self.q = p**a
        if a == 1:
            self.poly_low = (0,)  # y, the first monic irreducible of degree 1
            self.generator = self._find_generator()
        else:
            # imported here so that the script which writes the table can
            # import this module without it
            from ._presentations import presentation

            poly, gen = presentation(p, a)
            self.poly_low = self.decode(poly)
            self.generator = self.decode(gen)
        # every unit of a field has g^(q-1) = 1: checked on the generator as
        # an invariant of the defining polynomial
        if self.pow(self.generator, self.q - 1) != self.one():
            raise TheoremViolation(f"generator {self.generator} of F_{self.q} has g^(q-1) != 1")
        self._embed_cache = {}
        self._subfield_logs = {}
        self._dlogs = {}

    def _find_generator(self):
        """The smallest-encoded element of multiplicative order q - 1: the
        first unit whose (q-1)/l-th power is not one for any prime l | q-1."""
        q, one = self.q, self.one()
        facs = prime_factors(q - 1) if q > 2 else []
        for enc in range(1, q):
            g = self.decode(enc)
            if all(self.pow(g, (q - 1) // l) != one for l in facs):
                return g
        raise TheoremViolation("no multiplicative generator found")

    # -- element plumbing --------------------------------------------------

    def zero(self):
        return (0,) * self.a

    def one(self):
        return (1,) + (0,) * (self.a - 1)

    def from_int(self, c: int):
        return (c % self.p,) + (0,) * (self.a - 1)

    def encode(self, x) -> int:
        return sum(c * self.p**i for i, c in enumerate(x))

    def decode(self, enc: int):
        return tuple(enc // self.p**i % self.p for i in range(self.a))

    def elements(self):
        for enc in range(self.q):
            yield self.decode(enc)

    # -- F_q arithmetic ----------------------------------------------------

    def add(self, x, y):
        return tuple((u + v) % self.p for u, v in zip(x, y))

    def neg(self, x):
        return tuple(-u % self.p for u in x)

    def mul(self, x, y):
        return _mulmod(x, y, self.poly_low, self.p)

    def pow(self, x, e: int):
        if e < 0:
            if x == self.zero():
                raise ZeroDivisionError
            e %= self.q - 1
        return power(x, e, self.mul, self.one())

    def inv(self, x):
        return self.pow(x, self.q - 2)

    def eval_int_poly(self, int_coeffs, x):
        """Evaluate a Z[y] polynomial (low-first int list) at a field element."""
        acc = self.zero()
        for c in reversed(int_coeffs):
            acc = self.add(self.mul(acc, x), self.from_int(c))
        return acc

    # -- towers and embeddings ----------------------------------------------

    def ext(self, k: int) -> "FieldContext":
        """The deterministic context for F_{q^k} = F_{p^(ak)}."""
        if k == 1:
            return self
        return field_context(self.p, self.a * k)

    def embed_into(self, big: "FieldContext"):
        """Field embedding F_q -> F_{p^(big.a)} as a function on tuples.

        Sends the power-basis root to the smallest-encoded root of our
        defining polynomial in the big field; any root works, the choice
        only pins determinism.  The roots lie in the copy of F_q inside the
        big field, zero and the q - 1 powers h^i of h = g^((Q-1)/(q-1)), so
        the search reads the big field's walk of them (subfield_logs) in
        order of i: it stops at the first root r, and the roots are the
        conjugates r^(p^i), i < a, of which the smallest-encoded is taken.
        Zero is a root only of y itself (a = 1).
        """
        key = big.a
        if key in self._embed_cache:
            return self._embed_cache[key]
        if big.a % self.a:
            raise DomainError("no embedding: degree does not divide")
        defining = list(self.poly_low) + [1]
        root = big.zero()
        if any(self.poly_low):
            units = map(big.decode, big.subfield_logs(self.q))
            root = next((x for x in units if big.eval_int_poly(defining, x) == big.zero()), None)
            if root is None:
                raise TheoremViolation("embedding root not found")
            conj = [root]
            for _ in range(self.a - 1):
                conj.append(big.pow(conj[-1], self.p))
            root = min(conj, key=big.encode)
        powers = [big.one()]
        for _ in range(self.a - 1):
            powers.append(big.mul(powers[-1], root))

        def phi(x):
            acc = big.zero()
            for c, pw in zip(x, powers):
                if c:
                    acc = big.add(acc, tuple(c * t % big.p for t in pw))
            return acc

        self._embed_cache[key] = phi
        return phi

    def dlog_in(self, big: "FieldContext", x) -> int:
        """dlog_g of the unit x embedded in ``big``, g big's generator.  x
        lies in the copy of F_q whose dlogs ``big`` walks once per q
        (subfield_logs); each x is embedded once per big field and kept,
        so walks of k = 1..deg_s and later polynomials over the same
        fields embed no coefficient again."""
        logs = self._dlogs.setdefault(big.a, {})
        if x not in logs:
            logs[x] = big.subfield_logs(self.q)[big.encode(self.embed_into(big)(x))]
        return logs[x]

    def subfield_logs(self, q: int) -> dict:
        """{encode(x): dlog_g x} over the units x of the subfield F_q, the
        q - 1 powers of h = g^((Q-1)/(q-1)); walked once per q and kept."""
        logs = self._subfield_logs.get(q)
        if logs is None:
            step = (self.q - 1) // (q - 1)
            h = self.pow(self.generator, step)
            logs, cur = {}, self.one()
            for i in range(q - 1):
                logs[self.encode(cur)] = i * step
                cur = self.mul(cur, h)
            self._subfield_logs[q] = logs
        return logs

    # -- Z_q arithmetic at precision M ---------------------------------------

    def zq_add(self, x, y, prec):
        pm = self.p**prec
        return tuple((u + v) % pm for u, v in zip(x, y))

    def zq_mul(self, x, y, prec):
        return _mulmod(x, y, self.poly_low, self.p**prec)

    def zq_pow(self, x, e: int, prec):
        low, pm = self.poly_low, self.p**prec
        return power(x, e, lambda u, v: _mulmod(u, v, low, pm), self.one())

    def zq_trace(self, x, prec) -> int:
        """Trace of multiplication-by-x in the power basis (= field trace):
        the sum of the j-th coefficients of x * y^j."""
        pm = self.p**prec
        cur, tr = x, x[0]
        for j in range(1, self.a):
            cur = [c % pm for c in _times_x(cur, self.poly_low)]
            tr += cur[j]
        return tr % pm


@lru_cache(maxsize=256)
def field_context(p: int, a: int) -> FieldContext:
    """The shared FieldContext of F_{p^a}.

    Contexts are deterministic functions of (p, a), so one instance per
    field serves every caller in the process, and the embeddings and
    reduction rows it caches are found once.  A rejected (p, a) is not
    cached: it raises on every call.
    """
    return FieldContext(p, a)


@lru_cache(maxsize=256)
def _kept_lift(ctx: FieldContext, x: tuple) -> list:
    """[prec, lift] of the most precise Teichmuller lift of x found so far
    (empty before the first), one per (ctx, x), least recently used
    dropped first as in field_context."""
    return []


def teichmuller_lift(ctx: FieldContext, x, prec: int):
    """The root-of-unity (or zero) lift of x to Z_q mod p^prec.

    Fixed point of t -> t^q starting from the coefficientwise lift, which
    agrees with the lift w mod p.  Each round gains a = [F:F_p] digits:
    t = w(1 + u) with u = 0 mod p^r goes to w(1 + u)^q, and
    (1 + u)^q = 1 mod p^(r+a).  So the iteration stops within
    ceil((prec-1)/a) + 1 rounds, the last one confirming the fixed point
    (10 rounds at p = 7, a = 1, prec = 10; 4 at p = 2, a = 13,
    prec = 40).  Convergence within prec+2 rounds is a hard invariant.

    The lift is unique, so the one mod p^prec is any more precise one
    reduced: each (ctx, x) keeps its most precise lift, iterated (and
    checked) once, and a lower precision is read off it.
    """
    x = tuple(x)
    kept = _kept_lift(ctx, x)
    if kept and kept[0] >= prec:
        if kept[0] == prec:
            return kept[1]
        pm = ctx.p**prec
        return tuple(c % pm for c in kept[1])
    t = x
    for _ in range(prec + 2):
        t2 = ctx.zq_pow(t, ctx.q, prec)
        if t2 == t:
            kept[:] = prec, t
            return t
        t = t2
    raise TheoremViolation("Teichmuller iteration did not converge")


# -- the Artin-Hasse exponential E and the series E(pi*c) ----------------------
#
# What the operator route's kernel reads of E depends only on the field: each
# value is computed and checked once per process, grown to the longest
# request, and a shorter request reads a prefix.


@lru_cache(maxsize=256)
def _kept_artin_hasse(p: int) -> list:
    """E's coefficients over p found so far, grown in place by artin_hasse;
    one list per p, least recently used dropped first as in field_context."""
    return [Fraction(1)]


def artin_hasse(p: int, N: int) -> tuple:
    """E(pi) = exp(sum_i pi^(p^i)/p^i) mod pi^N as its N exact rational
    coefficients, the j-th multiplying pi^j.

    They come from E'(pi) = E(pi) * sum_i pi^(p^i - 1), that is
    k*e_k = sum_{p^i <= k} e_{k - p^i}; Fraction absorbs the division by k.
    Every coefficient is p-integral; the check below makes a denominator
    divisible by p a loud bug instead of a silent wrong answer.

    The first N coefficients do not depend on N, so each p keeps the
    longest expansion asked for, each coefficient computed and checked
    once, and a shorter one is its prefix."""
    if N < 1:
        raise DomainError("need at least one kernel coefficient")
    e = _kept_artin_hasse(p)
    if len(e) < N:
        powers = [p**i for i in range(N.bit_length()) if p**i < N]
        for k in range(len(e), N):
            c = sum(e[k - q] for q in powers if q <= k) / k
            if c.denominator % p == 0:
                raise IntegralityError(f"kernel coefficient {k} has denominator {c.denominator}")
            e.append(c)
    return tuple(e[:N])


def _frac_mod(fr: Fraction, p: int, prec: int) -> int:
    pm = p**prec
    if fr.denominator % p == 0:
        raise IntegralityError(f"{fr} is not p-integral")
    return fr.numerator * pow(fr.denominator, -1, pm) % pm


@lru_cache(maxsize=256)
def _kept_residues(p: int, prec: int) -> list:
    """artin_hasse(p, N) mod p^prec for the longest N asked for, grown in
    place by _artin_hasse_mod; one list per (p, prec)."""
    return []


def _artin_hasse_mod(p: int, prec: int, N: int) -> list:
    """E's first N coefficients over p as residues mod p^prec, kept with
    the coefficients."""
    lam = _kept_residues(p, prec)
    if len(lam) < N:
        lam.extend(_frac_mod(x, p, prec) for x in artin_hasse(p, N)[len(lam) :])
    return lam[:N]


def _e_coeffs(lam, ctx: FieldContext, c, prec: int) -> tuple:
    """E(pi*c)'s coefficients lam[m]*c^m mod p^prec, m < len(lam), as Z_q
    tuples, zeros included; at c = 1 every power c^m is 1 and no product
    is taken."""
    pm = ctx.p**prec
    cm = one = ctx.one()
    out = []
    for m, x in enumerate(lam):
        if m and c != one:
            cm = ctx.zq_mul(cm, c, prec)
        out.append(tuple(x * y % pm for y in cm))
    return tuple(out)


@lru_cache(maxsize=256)
def _kept_e(ctx: FieldContext, c, prec: int) -> list:
    """[the longest E(pi*c) mod p^prec _e_series computed]; one per (ctx, c,
    prec)."""
    return [()]


def _e_series(ctx: FieldContext, c, prec: int, cap: int) -> tuple:
    """The coefficients of e_factor(artin_hasse(ctx.p, cap), ctx, c, prec,
    cap) as _e_coeffs gives them.  Each (ctx, c, prec) keeps the longest
    expansion asked for, and a shorter one is its prefix."""
    kept = _kept_e(ctx, c, prec)
    if len(kept[0]) < cap:
        kept[0] = _e_coeffs(_artin_hasse_mod(ctx.p, prec, cap), ctx, c, prec)
    return kept[0][:cap]


def binomial_guard(N: int, p: int) -> int:
    """Extra p-digits binomial_sum's moment pass works with on its exponent:
    ord_p((N-1)!).  Its stepped pass reads the exponent only mod
    p^(M+L), L = binomial_period(N, p) <= ord_p((N-1)!)."""
    return vp_factorial(max(N - 1, 0), p)


def binomial_period(N: int, p: int) -> int:
    """L = floor(log_p(N-1)), 0 when N <= 2: binom(t, j) mod p^M for all
    j < N depends only on t mod p^(M+L) (see sums.s_f_T).  For N >= 2 no
    smaller power of p will do: binom(p^(M+L-1), p^L) has p-valuation M - 1."""
    L, pl = 0, p
    while pl <= N - 1:
        L += 1
        pl *= p
    return L


def binomial_sum(counts, p: int, M_out: int, N: int, t_prec: int) -> TSeries:
    """sum of c * (1+T)^t over {t: c}, i.e. sum_j T^j sum_t c * binom(t,j) for
    j < N, coefficients mod p^M_out.

    Each t is read mod p^t_prec; binom(t,j) = t(t-1)...(t-j+1)/j! loses
    ord_p(j!) digits, so t_prec must cover M_out plus the worst-case loss.

    Keys are integers, so the result depends on each t only through
    binom(t, j) mod p^M_out, that is through t mod R = p^(M_out + L) with
    L = binomial_period(N, p) <= binomial_guard(N, p): callers may hand in
    keys reduced that far, and fewer distinct keys make a shorter pass.

    Two passes give the same series, and the input size picks one.  With
    S = isqrt(R) there are S + ceil(R/S) step series; K keys at least that
    many, whose step tables fit STEP_CACHE_SLOTS, take the stepped pass
    (_stepped_sum), one big-integer multiply-add per key.  Fewer keys take
    the moment pass: the weighted power moments m_i = sum_t c * t^i mod
    p^t_prec (i < N) take one pass over the keys each; the signed Stirling
    numbers of the first kind turn them into the weighted falling
    factorials, sum_t c * t(t-1)...(t-j+1) = sum_i s(j,i) m_i, and each j
    divides by j! once.  For every integer t the falling factorial is j!
    times an integer binomial, and t_prec >= ord_p(j!), so each aggregate
    mod p^t_prec is divisible by the p-part of j!; that exact division is
    checked once per j, on the aggregate.
    """
    need = M_out + binomial_guard(N, p)
    if t_prec < need:
        raise PrecisionError(
            f"exponent known mod p^{t_prec} but binomials to T^{N} need p^{need}"
        )
    R = p ** (M_out + binomial_period(N, p))
    S = math.isqrt(R)
    steps = S + -(-R // S)
    if len(counts) >= steps and steps * N <= STEP_CACHE_SLOTS:
        return _stepped_sum(counts, p, M_out, N)
    big = p**t_prec
    out_mod = p**M_out
    ts = list(counts)
    w = [counts[t] for t in ts]
    moments = [sum(w)]
    for _ in range(1, N):
        w = [x * t % big for x, t in zip(w, ts)]
        moments.append(sum(w))
    coeffs = {}
    fact_v, fact_unit = 0, 1
    for j, row in enumerate(_stirling_rows(N)):
        if j:
            v = vp(j, p)
            fact_v += v
            fact_unit = fact_unit * (j // p**v) % out_mod
        pv = p**fact_v
        total = sum(map(mul, row, moments))
        if total % pv:
            raise IntegralityError(f"sum of binom(t,{j}) not p-integral at working precision")
        coeffs[j] = (total // pv) * pow(fact_unit, -1, out_mod) % out_mod
    return TSeries(p, M_out, N, coeffs)


def _stepped_sum(counts, p: int, M: int, N: int) -> TSeries:
    """binomial_sum by baby and giant steps of (1+T) (Paterson-Stockmeyer
    1973) on Kronecker-packed series, for any counts and any N >= 1.

    Each key is read mod R = p^(M+L) and written t = h*S + l with l < S,
    so (1+T)^t = giant[h] * baby[l] mod (p^M, T^N), where baby[l] =
    (1+T)^l and giant[h] = (1+T)^(S*h) (see _step_tables).  Counts are read
    mod p^M.  Q_l = sum of c * giant[h] over the keys of each l costs one
    multiply-add per key, and the series is sum_l baby[l] * Q_l, cut to N
    slots and reduced mod p^M once: no division and no Stirling row.

    Series are packed W bits a slot.  With C the sum of the reduced counts,
    slot j < N of the final sum is at most sum_l (j+1)(p^M-1) * (p^M-1)C_l
    <= N(p^M-1)^2 C, and every slot of Q_l is at most (p^M-1)C; W is
    chosen so that N(p^M-1)^2 max(C, 1) < 2^W (_packed_dot), and at least
    the _mod_width the step tables reduce their slots at.
    """
    pm = p**M
    R = p ** (M + binomial_period(N, p))
    cs = [c % pm for c in counts.values()]
    step = N * (pm - 1) ** 2
    W = max(_slot_width(step * max(sum(cs), 1)), _mod_width(step, pm))
    baby, giant = _step_tables(p, M, N, W)
    S = len(baby)
    Q = [0] * S
    for t, c in zip(counts, cs):
        h, l = divmod(t % R, S)
        Q[l] += c * giant[h]
    return TSeries(p, M, N, dict(enumerate(_packed_dot(baby, Q, W, N))))


# step tables of _stepped_sum kept across calls, least recently used first;
# the bound is on their total slot count (2^16 slots of 64 bits are about
# 0.5 MB), and binomial_sum steps only when a pair of tables fits it alone
STEP_CACHE_SLOTS = 1 << 16
_STEPS: dict = {}


def _step_tables(p: int, M: int, N: int, W: int) -> tuple:
    """(baby, giant): (1+T)^l for l < S and (1+T)^(S*h) for h < ceil(R/S),
    R = p^(M + binomial_period(N, p)) and S = isqrt(R), each mod (p^M, T^N)
    and packed as N W-bit slots (W at least the bit length of N(p^M-1)^2).

    Tables depend only on (p, M, N, W) and are shared by every caller in
    the process, as tuples no caller can alter.  A baby step is one
    shift-add, (1+T) v = v + (v << W); a giant step is one product by
    (1+T)^S; each is cut to N slots and reduced mod p^M by one
    _slot_reducer call, for slots up to N(p^M-1)^2.
    """
    key = (p, M, N, W)
    tables = _STEPS.pop(key, None)
    if tables is None:
        pm = p**M
        R = p ** (M + binomial_period(N, p))
        S = math.isqrt(R)
        reduce = _slot_reducer(W, N, pm, (N * (pm - 1) ** 2).bit_length())[0]
        baby = [1]
        for _ in range(1, S):
            baby.append(reduce(baby[-1] + (baby[-1] << W)))
        step = reduce(baby[-1] + (baby[-1] << W))
        giant = [1]
        for _ in range(1, -(-R // S)):
            giant.append(reduce(giant[-1] * step))
        tables = (tuple(baby), tuple(giant))
    _STEPS[key] = tables
    while sum(n * (len(b) + len(g)) for (_, _, n, _), (b, g) in _STEPS.items()) > STEP_CACHE_SLOTS:
        del _STEPS[next(iter(_STEPS))]
    return tables


@lru_cache(maxsize=None)
def _stirling_rows(N: int):
    """Signed Stirling numbers of the first kind s(j, i) for j < N: row j
    holds the coefficients of t(t-1)...(t-j+1) in the powers t^i, i <= j."""
    rows = [(1,)]
    for j in range(1, N):
        # t(t-1)...(t-j+1) = t(t-1)...(t-j+2) * (t - (j-1))
        prev = rows[-1] + (0,)
        rows.append(tuple(a - (j - 1) * b for a, b in zip((0,) + prev[:-1], prev)))
    return tuple(rows[:N])


def one_plus_T_pow(t: int, p: int, M_out: int, N: int, t_prec: int) -> TSeries:
    """(1+T)^t as sum binom(t,j) T^j for j < N, coefficients mod p^M_out:
    the single-trace case of binomial_sum."""
    return binomial_sum({t: 1}, p, M_out, N, t_prec)


# ---------------------------------------------------------------------------
# Cyclotomic rings Z_p[zeta_{p^m}] = Z_p[pi]/(Phi_{p^m}(1+pi))
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _cyc_modulus(p: int, m: int):
    """Non-leading coefficients of Phi_{p^m}(1+x), a monic Eisenstein
    polynomial of degree e = p^(m-1)(p-1) with constant term p: since
    Phi_{p^m}(y) = sum_{i<p} y^(i p^(m-1)), the x^d coefficient is
    sum_{i<p} binom(i p^(m-1), d)."""
    r = p ** (m - 1)
    return tuple(sum(math.comb(i * r, d) for i in range(p)) for d in range(r * (p - 1)))


class CycContext:
    """The ring Z_p[pi] with pi = zeta_{p^m} - 1, elements mod p^prec."""

    def __init__(self, p: int, m: int):
        if m < 1:
            raise DomainError("character level m must be >= 1")
        self.p = p
        self.m = m
        self.e = p ** (m - 1) * (p - 1)
        self.mod_low = _cyc_modulus(p, m)

    def zero(self, prec):
        return CycElement(self, prec, (0,) * self.e)

    def one(self, prec):
        return CycElement(self, prec, (1,) + (0,) * (self.e - 1))

    def from_int(self, c, prec):
        return CycElement(self, prec, (c % self.p**prec,) + (0,) * (self.e - 1))

    def pi(self, prec):
        """x mod Phi_{p^m}(1+x); at e = 1 (p = 2, m = 1) that is -2."""
        return CycElement(self, prec, _times_x(self.one(prec).coeffs, self.mod_low))

    def zeta(self, prec):
        return self.one(prec).add(self.pi(prec))


class CycElement:
    """Element of Z_p[pi]/(Phi_{p^m}(1+pi)) with coefficients mod p^prec.

    pi is a uniformizer with e * ord_p(pi) = 1, so valuations of the basis
    monomials c_i pi^i are pairwise distinct mod e and the valuation of a
    sum is exactly the minimum: truncated coefficients still give exact
    valuations below the cap e*prec.
    """

    __slots__ = ("ctx", "prec", "coeffs")

    def __init__(self, ctx: CycContext, prec: int, coeffs):
        if prec <= 0:
            raise PrecisionError(f"no certified p-digits left (prec={prec})")
        self.ctx = ctx
        self.prec = prec
        pm = ctx.p**prec
        self.coeffs = tuple(c % pm for c in coeffs)

    def zero_like(self):
        return self.ctx.zero(self.prec)

    def one_like(self):
        return self.ctx.one(self.prec)

    def is_zero(self):
        return not any(self.coeffs)

    def is_one(self):
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def _common_prec(self, other):
        if self.ctx.p != other.ctx.p or self.ctx.m != other.ctx.m:
            raise DomainError("cyclotomic elements from different rings")
        return min(self.prec, other.prec)

    def add(self, other):
        prec = self._common_prec(other)
        return CycElement(self.ctx, prec, tuple(u + v for u, v in zip(self.coeffs, other.coeffs)))

    def sub(self, other):
        prec = self._common_prec(other)
        return CycElement(self.ctx, prec, tuple(u - v for u, v in zip(self.coeffs, other.coeffs)))

    def neg(self):
        return CycElement(self.ctx, self.prec, tuple(-c for c in self.coeffs))

    def mul(self, other):
        prec = self._common_prec(other)
        ctx = self.ctx
        return CycElement(ctx, prec, _mulmod(self.coeffs, other.coeffs, ctx.mod_low, ctx.p**prec))

    def mul_int(self, c: int):
        return CycElement(self.ctx, self.prec, tuple(v * c for v in self.coeffs))

    def divexact_int(self, k: int):
        prec, out = divexact(self.coeffs, k, self.ctx.p, self.prec)
        return CycElement(self.ctx, prec, out)

    def pow_int(self, e: int):
        if e < 0:
            raise DomainError("negative powers not supported in the pi-ring")
        return power(self, e, CycElement.mul, self.one_like())

    def ord(self):
        """Exact pi-adic valuation (ord(pi) = 1), or None if >= cap e*prec."""
        e, p = self.ctx.e, self.ctx.p
        best = None
        for i, c in enumerate(self.coeffs):
            if c:
                val = e * vp(c, p) + i
                if best is None or val < best:
                    best = val
        return best

    def val_data(self):
        cap = Fraction(self.ctx.e * self.prec)
        o = self.ord()
        return (Fraction(o) if o is not None else None), cap

    def __eq__(self, other):
        if not isinstance(other, CycElement):
            return NotImplemented
        return (
            self.ctx.p == other.ctx.p
            and self.ctx.m == other.ctx.m
            and self.prec == other.prec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.m, self.prec, self.coeffs))

    def __repr__(self):
        return f"CycElement(p={self.ctx.p}, m={self.ctx.m}, prec={self.prec}, {self.coeffs})"


def specialize_tseries(ts: TSeries, cyc: CycContext, prec_out: int) -> CycElement:
    """Substitute T = pi into a T-series: certified when the truncation tail
    T^cap lands below p^prec_out, i.e. cap >= e * prec_out.  The known head
    is reduced modulo Phi_{p^m}(1+x) in one Horner pass."""
    if ts.cap < cyc.e * prec_out:
        raise PrecisionError(
            f"T-truncation {ts.cap} too short: T=pi needs >= {cyc.e * prec_out}"
        )
    prec = min(ts.prec, prec_out)
    head = [ts.coeff(j) for j in range(ts.cap)]
    return CycElement(cyc, prec, _reduce_mod(head, cyc.mod_low, cyc.p**prec))
