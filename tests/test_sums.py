import itertools
import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    closed_point_traces,
    coefficient_orbits,
    l_function_euler,
    oracle_recurrence_trace_table,
    oracle_scaling_basis,
    oracle_torus_trace_counts,
)
from tadic import polytope, sums
from tadic.arith import (
    CycContext,
    FieldContext,
    binomial_guard,
    binomial_period,
    field_context,
    is_prime,
    one_plus_T_pow,
    teichmuller_lift,
)
from tadic.errors import DomainError, PrecisionError
from tadic.polytope import LaurentPoly
from tadic.series import SSeries, TSeries
from tadic.sums import (
    SumJob,
    _trace_table,
    c_function,
    congruence_check,
    congruence_modulus,
    convert_l_to_c,
    l_function,
    np_report,
    power_sums_T,
    s_f_T,
    s_f_psi,
    specialize,
    survey_family,
    torus_trace_counts,
    torus_walks,
)

SPERBER = [(1, 0), (0, 1), (-1, -1)]


def poly(exps, p=3, a=1, coeffs=None):
    ctx = FieldContext(p, a)
    if coeffs is None:
        term_map = {e: ctx.one() for e in exps}
    else:
        term_map = {e: c for e, c in zip(exps, coeffs)}
    return LaurentPoly.make(len(exps[0]), term_map, ctx)


def oracle_s_f_T(f, k, M, N):
    """Independent torus sum: per-point Teichmuller lifts and zq traces,
    no shared power table."""
    ctx = f.ctx
    p = ctx.p
    prec = M + binomial_guard(N, p)
    big = ctx.ext(k)
    phi = ctx.embed_into(big)
    units = []
    cur = big.one()
    for _ in range(big.q - 1):
        units.append(cur)
        cur = big.mul(cur, big.generator)
    acc = TSeries.zero(p, M, N)
    for point in itertools.product(units, repeat=f.n):
        val = None
        for u, c in f.terms:
            mono = phi(c)
            for xi, ui in zip(point, u):
                mono = big.mul(mono, big.pow(xi, ui))
            lift = teichmuller_lift(big, mono, prec)
            val = lift if val is None else big.zq_add(val, lift, prec)
        t = big.zq_trace(val, prec)
        acc = acc.add(one_plus_T_pow(t, p, M, N, prec))
    return acc


def direct_trace_table(big, prec):
    """Tr(teich(g)^j) for j = 0..q-2 by a zq_mul/zq_trace walk."""
    g = teichmuller_lift(big, big.generator, prec)
    cur = tuple(big.one())
    table = []
    for _ in range(big.q - 1):
        table.append(big.zq_trace(cur, prec))
        cur = big.zq_mul(cur, g, prec)
    return tuple(table)


def small_fields(limit):
    """Every (p, d) with p^d <= limit."""
    for p in range(2, limit + 1):
        if is_prime(p):
            d = 1
            while p**d <= limit:
                yield p, d
                d += 1


# (p, a, n, k) shapes whose per-point oracle stays cheap
ORACLE_SHAPES = [
    (p, a, n, k)
    for p in (2, 3, 5)
    for a in (1, 2)
    for n in (1, 2)
    for k in (1, 2)
    if (p ** (a * k) - 1) ** n <= 80
]


@st.composite
def small_sum_jobs(draw):
    p, a, n, k = draw(st.sampled_from(ORACLE_SHAPES))
    ctx = FieldContext(p, a)
    exps = draw(
        st.lists(
            st.tuples(*[st.integers(-2, 2)] * n).filter(any),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    logs = draw(st.lists(st.integers(0, ctx.q - 2), min_size=len(exps), max_size=len(exps)))
    terms = {u: ctx.pow(ctx.generator, e) for u, e in zip(exps, logs)}
    M = draw(st.integers(1, 3))
    N = draw(st.integers(1, 6))
    return LaurentPoly.make(n, terms, ctx), k, M, N


# (p, a, n, k) shapes whose every-point walk stays cheap; k = 2 and 3 give
# Frobenius orbits of sizes 1, 2 and 3, over prefixes of up to 2 coordinates
WALK_SHAPES = [
    (p, a, n, k)
    for p in (2, 3, 5)
    for a in (1, 2)
    for n in (1, 2, 3)
    for k in (1, 2, 3)
    if (p ** (a * k) - 1) ** n <= 700
]


@st.composite
def small_walks(draw):
    """A random polynomial with zero and negative exponents, an extension
    degree and a trace precision."""
    p, a, n, k = draw(st.sampled_from(WALK_SHAPES))
    ctx = field_context(p, a)
    exps = draw(
        st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=4, unique=True)
        .filter(lambda es: any(map(any, es)))
    )
    logs = draw(st.lists(st.integers(0, ctx.q - 2), min_size=len(exps), max_size=len(exps)))
    terms = {u: ctx.pow(ctx.generator, e) for u, e in zip(exps, logs)}
    return LaurentPoly.make(n, terms, ctx), k, draw(st.integers(1, 6))


@st.composite
def row_class_walks(draw):
    """A walk whose rows take a row-class rule of torus_trace_counts: a
    term at stride e in the last variable, and a second one at stride -e
    or none, beside terms constant along the row."""
    p, a, n, k = draw(st.sampled_from(WALK_SHAPES))
    ctx = field_context(p, a)
    head = st.tuples(*[st.integers(-3, 3)] * (n - 1))
    e = draw(st.integers(1, 4))
    moving = [draw(head) + (e,)] + ([draw(head) + (-e,)] if draw(st.booleans()) else [])
    fixed = draw(st.lists(head.filter(any).map(lambda u: u + (0,)), max_size=2))
    exps = list(dict.fromkeys(moving + fixed))
    logs = draw(st.lists(st.integers(0, ctx.q - 2), min_size=len(exps), max_size=len(exps)))
    return walk(exps, logs, p, a), k, draw(st.integers(1, 6))


def walk(exps, logs, p, a=1):
    """sum g^logs_i x^exps_i over F_{p^a}."""
    ctx = field_context(p, a)
    return LaurentPoly.make(len(exps[0]), {u: ctx.pow(ctx.generator, e) for u, e in zip(exps, logs)}, ctx)


# x1*x2 + x1^-1 + g*x2^-1: strides 1 and -1 in x2
MIRROR = [(1, 1), (-1, 0), (0, -1)]


class TestTraceTable:
    def test_recurrence_matches_direct_walk(self):
        # includes F_2 (a one-entry table, shorter than the recurrence order)
        for p, d in small_fields(3000):
            big = FieldContext(p, d)
            assert _trace_table(big, 2) == direct_trace_table(big, 2), (p, d)

    def test_blocks_match_the_one_step_recurrence(self):
        # every small field, F_2 and the other tables Newton's identities
        # fill alone included, at 64-bit slots
        for p, d in small_fields(3000):
            big = FieldContext(p, d)
            for prec in (1, 2):
                table = sums._build_trace_table(big, prec)
                assert table == oracle_recurrence_trace_table(big, prec), (p, d, prec)

    @pytest.mark.parametrize(
        "p,d,precs",
        [
            (3, 9, [30]),
            (2, 13, [40]),
            # slot bounds d*(p^prec - 1)^2 of 65 bits and of 8m+1 > 64
            # bits, each reached by some slot: a slot one bit narrower
            # overflows (F_27 at 20, 25, 30; F_256 at 35, 39, 43, 47; F_89
            # at 5); F_27 runs every precision up to 30
            (3, 3, range(1, 31)),
            (2, 8, [35, 39, 43, 47]),
            (89, 1, [5]),
        ],
    )
    def test_blocks_match_the_one_step_recurrence_at_wide_slots(self, p, d, precs):
        big = FieldContext(p, d)
        for prec in precs:
            table = sums._build_trace_table(big, prec)
            assert table == oracle_recurrence_trace_table(big, prec), (p, d, prec)

    def test_cached_table_is_a_fresh_build_and_immutable(self):
        first = _trace_table(FieldContext(3, 4), 3)
        # keyed by the field, not the context object
        assert _trace_table(field_context(3, 4), 3) is first
        assert first == sums._build_trace_table(FieldContext(3, 4), 3)
        assert first == direct_trace_table(FieldContext(3, 4), 3)
        with pytest.raises(TypeError):
            first[0] += 1

    def test_cache_is_bounded_by_entries_least_recent_first(self, monkeypatch):
        monkeypatch.setattr(sums, "_TABLES", {})
        monkeypatch.setattr(sums, "TABLE_CACHE_ENTRIES", 100)
        f9, f27, f81 = (FieldContext(3, d) for d in (2, 3, 4))
        t9 = _trace_table(f9, 2)
        _trace_table(f27, 2)
        assert _trace_table(f9, 2) is t9  # now the most recent
        _trace_table(f27, 3)  # 26 + 8 + 26 entries fit
        _trace_table(FieldContext(7, 2), 2)  # 48 more: the least recent goes
        assert list(sums._TABLES) == [(3, 2, 2), (3, 3, 3), (7, 2, 2)]
        _trace_table(f81, 2)  # 80 more: all but it go
        assert list(sums._TABLES) == [(3, 4, 2)]
        # a table past the bound alone is returned but not kept
        assert len(_trace_table(FieldContext(11, 2), 2)) == 120
        assert sums._TABLES == {}

    def test_lower_precision_reduces_a_kept_table(self, monkeypatch):
        monkeypatch.setattr(sums, "_TABLES", {})
        builds = []
        build = sums._build_trace_table
        monkeypatch.setattr(
            sums, "_build_trace_table", lambda big, prec: builds.append(prec) or build(big, prec)
        )
        f = poly(SPERBER, p=3)
        torus_trace_counts(f, 2, 4)
        counts = torus_trace_counts(f, 2, 2)
        assert builds == [4]
        big = f.ctx.ext(2)
        assert _trace_table(big, 2) == build(big, 2)
        assert counts == oracle_torus_trace_counts(f, 2, 2)
        # a higher precision than any kept table is built
        torus_trace_counts(f, 2, 5)
        assert builds == [4, 5]


class TestTorusWalk:
    @settings(max_examples=60, deadline=None)
    @given(small_walks())
    @example((poly(SPERBER, p=2), 3, 4))
    @example((poly([(1, 0, -1), (0, 2, 1), (0, 0, 0), (-1, -1, 0)], p=2), 3, 3))
    @example((poly([(2, 0), (-1, 3), (0, -2)], p=3), 2, 5))
    @example((poly([(1, 1), (-1, 0)], p=2, a=2), 2, 2))
    # negative strides of size >= 2: -3 read over 124 (g^0*x1^-3 over F_5,
    # k = 3), and beside strides sharing a factor with Q1 = 24 or 8
    @example((poly([(-3,)], p=5), 3, 1))
    @example((poly([(2,), (-3,), (6,), (-2,)], p=5), 2, 3))
    @example((poly([(1, -2), (0, 2), (-1, -3)], p=3), 2, 3))
    @example((poly([(1, 4), (-1, -6), (2, 3)], p=3), 2, 2))
    def test_orbit_walk_matches_every_point_walk(self, job):
        f, k, prec = job
        assert torus_trace_counts(f, k, prec) == oracle_torus_trace_counts(f, k, prec)

    @settings(max_examples=40, deadline=None)
    @given(row_class_walks())
    # strides +-1: over F_8 (L = 7 odd, one fixed point per row) and over
    # F_9 (L = 8, h even or odd by row: two fixed points or none)
    @example((walk(MIRROR, [0, 0, 1], p=2), 3, 4))
    @example((walk(MIRROR, [0, 0, 1], p=3), 2, 3))
    # strides +-2 over F_25 (g = 2): b2 - b1 is even on every other row,
    # so rows alternate between the mirror and the whole row
    @example((walk([(1, 2), (0, -2), (-1, 0)], [0, 0, 1], p=5), 2, 2))
    # one term at stride 2 over F_25 (g = 2), every row in class r = 1
    @example((walk([(1, 0), (0, 2)], [0, 1], p=5, a=2), 1, 3))
    # n = 3, strides +-1 over F_8
    @example((walk([(1, 1, 1), (-1, 0, 0), (0, 0, -1)], [0, 0, 1], p=2), 3, 3))
    def test_row_classes_match_every_point_walk(self, job):
        f, k, prec = job
        assert torus_trace_counts(f, k, prec) == oracle_torus_trace_counts(f, k, prec)

    @pytest.mark.parametrize(
        "exps,p,k,prec,packed",
        [
            # one shift (n = 1): |hist| * 1 pairs, at most p^prec
            ([(2,)], 5, 2, 3, False),
            # x1 + g*x2 over F_27 mod 9: up to 9 shifts of 9 traces
            ([(1, 0), (0, 1)], 3, 3, 2, True),
        ],
    )
    def test_one_term_classes_on_both_branches(self, monkeypatch, exps, p, k, prec, packed):
        codecs = []
        codec = sums._slot_codec
        monkeypatch.setattr(sums, "_slot_codec", lambda w, B: codecs.append(B) or codec(w, B))
        f = walk(exps, [1] * len(exps), p)
        assert torus_trace_counts(f, k, prec) == oracle_torus_trace_counts(f, k, prec)
        assert (2 * p**prec in codecs) == packed

    @pytest.mark.parametrize(
        "exps,prec,W",
        [
            # the largest prec whose slot bound len(terms)*(2^prec - 1)
            # fits W bits, over strides 1, -3 (gcd 3 with Q1 = 15) and -5
            ([(1, 1), (-1, -3), (2, -5)], 14, 16),
            ([(1, -3), (-1, 5)], 31, 32),
            ([(1, 1), (-1, -3), (2, -5)], 62, 64),
            # one bit past 64: whole-byte slots, unpacked one at a time
            ([(1, 1), (-1, -3), (2, -5)], 63, 72),
            ([(1, 1), (-1, -3), (2, -5)], 100, 104),
        ],
    )
    def test_every_slot_width_matches_every_point_walk(self, monkeypatch, exps, prec, W):
        f = poly(exps, p=2)  # 15^2 points over F_16
        codecs = []
        codec = sums._slot_codec
        monkeypatch.setattr(sums, "_slot_codec", lambda w, B: codecs.append((w, B)) or codec(w, B))
        assert torus_trace_counts(f, 4, prec) == oracle_torus_trace_counts(f, 4, prec)
        assert codecs[-1] == (W, 15)

    def test_strided_copies_read_the_table_in_order(self):
        table = tuple(range(100, 124))
        for e in (1, 2, 5, 6, -1, -3, -8, 23):
            for r in range(24):
                L = 24 // math.gcd(e, 24)
                assert sums._strided(table, r, e, L) == [table[(r + e * i) % 24] for i in range(L)]

    def test_later_walks_reuse_the_coefficient_logs(self, monkeypatch):
        # survey-style: new coefficients over the same field pair walk no
        # power of h again
        ctx = field_context(3, 2)
        g = ctx.generator
        first = LaurentPoly.make(1, {(2,): g, (-1,): ctx.one()}, ctx)
        torus_trace_counts(first, 2, 2)
        big = ctx.ext(2)
        calls = []
        mul = big.mul
        monkeypatch.setattr(big, "mul", lambda x, y: calls.append((x, y)) or mul(x, y))
        later = LaurentPoly.make(1, {(2,): ctx.pow(g, 5), (-1,): ctx.pow(g, 3)}, ctx)
        counts = torus_trace_counts(later, 2, 2)
        assert calls == []
        assert counts == oracle_torus_trace_counts(later, 2, 2)

    def test_a_second_walk_embeds_no_coefficient(self, monkeypatch):
        ctx = field_context(5, 1)
        f = LaurentPoly.make(1, {(3,): ctx.generator, (1,): ctx.one()}, ctx)
        torus_trace_counts(f, 2, 2)
        embeds = []
        embed = ctx.embed_into
        monkeypatch.setattr(ctx, "embed_into", lambda big: embeds.append(big) or embed(big))
        counts = torus_trace_counts(f, 2, 3)
        assert embeds == []
        assert counts == oracle_torus_trace_counts(f, 2, 3)

    def test_orbit_sizes_partition_prefixes(self):
        # lex-smallest members weighted by orbit size cover every prefix once
        for q, k, n in ((2, 3, 2), (3, 2, 2), (2, 4, 1), (4, 2, 2)):
            Q1 = q**k - 1
            sizes = [sums._orbit_size(j, q, Q1) for j in itertools.product(range(Q1), repeat=n)]
            assert sum(sizes) == Q1**n
            assert all(k % s == 0 for s in sizes if s)


class TestTorusWalks:
    def test_one_walk_serves_the_sum_and_c(self, monkeypatch):
        f = poly(SPERBER, p=3)
        M, N, deg_s = 3, 9, 2
        walks = torus_walks(f, (2, 1, 5, 2), deg_s, M, N)
        # ord_3(2!) = 0: c_function walks at M + L, and so do the walks
        assert walks.ks == {1, 2} and walks.prec == M + binomial_period(N, 3)
        precs = ((M, N), (M, 4), (M - 1, 2), (1, 1))
        want = {k: [s_f_T(f, k, Mk, Nk) for Mk, Nk in precs] for k in (1, 2)}
        c_want = c_function(f, deg_s, M, N).coeffs
        walked = []
        walk = sums.torus_trace_counts
        monkeypatch.setattr(
            sums, "torus_trace_counts", lambda f, k, prec: walked.append(k) or walk(f, k, prec)
        )
        for k in (1, 2):
            assert [s_f_T(f, k, Mk, Nk, walks) for Mk, Nk in precs] == want[k]
        assert c_function(f, deg_s, M, N, walks).coeffs == c_want
        assert walked == [1, 2]

    def test_walks_carry_the_exp_guard(self):
        # ord_2(3!) = 1: c_function works a digit past M, and so do its walks
        f = poly([(1,), (3,)], p=2)
        walks = torus_walks(f, (1,), 3, 2, 5)
        assert walks.prec == 2 + 1 + binomial_period(5, 2)
        assert c_function(f, 3, 2, 5, walks).coeffs == c_function(f, 3, 2, 5).coeffs

    def test_thin_walk_is_refused(self):
        f = poly(SPERBER, p=3)
        walks = sums.TorusWalks(f, (1,), 2)
        s_f_T(f, 1, 2, 3, walks)
        with pytest.raises(PrecisionError, match="walked mod p\\^2"):
            s_f_T(f, 1, 2, 4, walks)

    def test_walks_wait_for_the_size_check(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("torus walked before the size check")

        monkeypatch.setattr(sums, "torus_trace_counts", refuse)
        big = poly([(1, 0), (0, 1)], p=3, a=4)
        walks = torus_walks(big, (2,), 2, 2, 4)
        with pytest.raises(DomainError, match="torus limit"):
            s_f_T(big, 2, 2, 4, walks)


# (p, a, n, k) shapes whose torus walk stays cheap, every prime p <= 7
INVARIANCE_SHAPES = [
    (p, a, n, k)
    for p in (2, 3, 5, 7)
    for a in (1, 2)
    for n in (1, 2)
    for k in (1, 2, 3)
    if (p ** (a * k) - 1) ** n <= 2500
]


def scaled_triple(p, a, exps, logs, lam_logs, k, prec):
    """f = sum g^logs_i x^u_i, its image under x -> lambda*x with lambda =
    g^lam_logs, its coefficientwise p-th power, k and prec.  The images
    are built with field products, not discrete logs."""
    ctx = field_context(p, a)
    lam = [ctx.pow(ctx.generator, e) for e in lam_logs]
    coeffs = [ctx.pow(ctx.generator, e) for e in logs]
    scaled = []
    for u, c in zip(exps, coeffs):
        for x, e in zip(lam, u):
            c = ctx.mul(c, ctx.pow(x, e))
        scaled.append(c)
    frob = [ctx.pow(c, p) for c in coeffs]
    n = len(exps[0])
    polys = [LaurentPoly.make(n, dict(zip(exps, cs)), ctx) for cs in (coeffs, scaled, frob)]
    return (*polys, k, prec)


@st.composite
def scaled_polys(draw):
    p, a, n, k = draw(st.sampled_from(INVARIANCE_SHAPES))
    q = p**a
    exps = draw(
        st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=3, unique=True)
        .filter(lambda es: any(map(any, es)))
    )
    logs = draw(st.lists(st.integers(0, q - 2), min_size=len(exps), max_size=len(exps)))
    lam_logs = draw(st.lists(st.integers(0, q - 2), min_size=n, max_size=n))
    return scaled_triple(p, a, exps, logs, lam_logs, k, draw(st.integers(1, 4)))


class TestCoefficientClasses:
    @settings(max_examples=40, deadline=None)
    @given(scaled_polys())
    @example(scaled_triple(3, 2, [(2,), (-1,)], [1, 0], [5], 2, 3))
    @example(scaled_triple(7, 1, SPERBER, [0, 1, 4], [2, 5], 1, 2))
    @example(scaled_triple(7, 2, [(3,), (1,)], [7, 30], [11], 2, 2))
    def test_traces_are_invariant_under_scaling_and_frobenius(self, job):
        # the theorem the kept sums rest on
        f, scaled, frob, k, prec = job
        counts = torus_trace_counts(f, k, prec)
        assert torus_trace_counts(scaled, k, prec) == counts
        assert torus_trace_counts(frob, k, prec) == counts

    SUPPORTS = [
        [(1,)],
        [(2,)],
        [(3,), (1,)],
        [(2,), (-1,)],
        [(4,), (2,)],
        [(1, 0), (0, 1)],
        [(2, 0), (0, 2)],
        [(1, 0), (0, 1), (-1, -1)],
        [(2, 0), (0, 2), (-1, -1)],
        [(2, 1), (0, -1), (-1, 0)],
        [(1, 1), (0, 0), (-1, 2)],
    ]

    @pytest.mark.parametrize("p, a", list(small_fields(9)))
    def test_keys_are_equal_exactly_on_orbits(self, p, a):
        ctx = field_context(p, a)
        for exps in self.SUPPORTS:
            pairs = set()
            for vec, orbit in coefficient_orbits(ctx, exps).items():
                f = LaurentPoly.make(len(exps[0]), dict(zip(exps, vec)), ctx)
                pairs.add((orbit, sums._coefficient_class(f)))
            # one key per orbit and one orbit per key
            assert len({o for o, _ in pairs}) == len(pairs) == len({k for _, k in pairs}), exps

    def test_two_element_field_has_one_class(self):
        ctx = field_context(2, 1)
        f = LaurentPoly.make(2, {(1, 0): ctx.one(), (0, 1): ctx.one(), (-1, -1): ctx.one()}, ctx)
        assert sums._coefficient_class(f) == (2, 1, ((-1, -1), (0, 1), (1, 0)), (0, 0, 0))

    def test_frobenius_alone_joins_classes(self):
        # over F_9 no scaling alone takes g*x1^2 + x1^-1 to g^3*x1^2 + x1^-1;
        # Frobenius does
        ctx = field_context(3, 2)
        g = ctx.generator
        f = poly([(2,), (-1,)], p=3, a=2, coeffs=[g, ctx.one()])
        frob = poly([(2,), (-1,)], p=3, a=2, coeffs=[ctx.pow(g, 3), ctx.one()])
        assert sums._coefficient_class(f) == sums._coefficient_class(frob)
        orbit_of = coefficient_orbits(ctx, [(-1,), (2,)])
        assert orbit_of[(ctx.one(), g)] == orbit_of[(ctx.one(), ctx.pow(g, 3))]
        assert orbit_of[(ctx.one(), g)] != orbit_of[(ctx.one(), ctx.pow(g, 2))]


def _int_det(rows):
    """Determinant of a small integer matrix by cofactor expansion."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * c * _int_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, c in enumerate(rows[0])
        if c
    )


@st.composite
def scaling_lattices(draw):
    """(exps, Q1, vectors): r <= 4 exponent vectors in n <= 3 variables with
    entries in [-6, 6], Q1 < 2^20, and a few vectors of Z^r to reduce."""
    r, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    exps = tuple(tuple(draw(st.integers(-6, 6)) for _ in range(n)) for _ in range(r))
    Q1 = draw(st.integers(1, 2**20 - 1))
    vec = st.tuples(*[st.integers(-3 * Q1, 3 * Q1)] * r)
    return exps, Q1, draw(st.lists(vec, min_size=1, max_size=4))


class TestScalingBasis:
    @settings(max_examples=150, deadline=None)
    @given(scaling_lattices())
    @example((((1, 0), (0, 1), (-1, -1)), 8, [(5, -3, 20)]))
    @example((((2,), (-1,)), 8, [(7, 7)]))
    def test_basis_spans_exactly_the_scaling_lattice(self, lattice):
        exps, Q1, _ = lattice
        r, n = len(exps), len(exps[0])
        basis = sums._scaling_basis(exps, Q1)
        assert len(basis) == r
        for i, row in enumerate(basis):
            assert len(row) == r and not any(row[:i]) and row[i] > 0
        # the columns of U and the Q1*e_i lie in the span of the basis ...
        gens = [tuple(u[j] for u in exps) for j in range(n)]
        gens += [tuple(Q1 * (i == j) for j in range(r)) for i in range(r)]
        for v in gens:
            assert sums._lattice_reduce(v, basis) == (0,) * r
        # ... whose index prod d_i is that of the lattice they span, the gcd
        # of the r x r minors of [U | Q1*I]: so the two are equal
        index = 0
        for cols in itertools.combinations(gens, r):
            index = math.gcd(index, _int_det([list(row) for row in zip(*cols)]))
        assert math.prod(row[i] for i, row in enumerate(basis)) == index

    @settings(max_examples=150, deadline=None)
    @given(scaling_lattices())
    def test_representatives_match_the_column_euclid_basis(self, lattice):
        exps, Q1, vectors = lattice
        basis, ref = sums._scaling_basis(exps, Q1), oracle_scaling_basis(exps, Q1)
        assert [row[i] for i, row in enumerate(basis)] == [row[i] for i, row in enumerate(ref)]
        for v in vectors:
            assert sums._lattice_reduce(v, basis) == sums._lattice_reduce(v, ref)


def _count_walks(monkeypatch):
    walked = []
    walk = sums.torus_trace_counts
    monkeypatch.setattr(
        sums, "torus_trace_counts", lambda f, k, prec: walked.append((k, prec)) or walk(f, k, prec)
    )
    return walked


class TestKeptSums:
    @pytest.mark.parametrize(
        "p, a, exps, logs, images",
        [
            # x -> g^2*x and x -> g*x on x1^3 + x1 over F_7
            (7, 1, [(3,), (1,)], [0, 0], [[6, 2], [3, 1]]),
            # g*x1^2 + x1^-1 over F_9: Frobenius, and scaling by g^5
            (3, 2, [(2,), (-1,)], [1, 0], [[3, 0], [11, -5]]),
            # the simplex over F_4, scaled in both variables and twisted
            (2, 2, SPERBER, [0, 0, 1], [[1, 2, 1], [0, 0, 2]]),
        ],
    )
    def test_a_class_member_walks_no_torus(self, monkeypatch, p, a, exps, logs, images):
        ctx = field_context(p, a)

        def member(ls):
            terms = {u: ctx.pow(ctx.generator, e) for u, e in zip(exps, ls)}
            return LaurentPoly.make(len(exps[0]), terms, ctx)

        f = member(logs)
        want = {k: s_f_T(f, k, 3, 6) for k in (1, 2)}
        walked = _count_walks(monkeypatch)
        for ls in images:
            g = member(ls)
            assert sums._coefficient_class(g) == sums._coefficient_class(f)
            assert [s_f_T(g, k, 3, 6) for k in (1, 2)] == [want[1], want[2]]
        assert walked == []
        # and the kept value is the one a fresh walk gives
        sums._SUMS.clear()
        for ls in images:
            g = member(ls)
            assert [s_f_T(g, k, 3, 6) for k in (1, 2)] == [want[1], want[2]]
            sums._SUMS.clear()
        assert len(walked) == 2 * len(images)

    @pytest.mark.parametrize("small, large", [((3, 1), (5, 1)), ((2, 1), (2, 2))])
    def test_equal_polynomials_over_other_fields_are_summed_again(self, monkeypatch, small, large):
        # x1 over F_3 equals x1 over F_5 (LaurentPoly equality ignores the
        # field); over F_2 and F_4 the support and the dlogs (0) agree
        ctxs = field_context(*small), field_context(*large)
        f, g = (LaurentPoly.make(1, {(1,): ctx.one()}, ctx) for ctx in ctxs)
        assert f == g or small[0] == 2
        s_f_T(f, 1, 2, 4)
        walked = _count_walks(monkeypatch)
        assert s_f_T(g, 1, 2, 4) == oracle_s_f_T(g, 1, 2, 4)
        assert walked == [(1, 2 + binomial_period(4, g.ctx.p))]

    def test_other_precisions_and_degrees_are_summed_again(self, monkeypatch):
        f = poly(SPERBER, p=3)
        s_f_T(f, 1, 2, 4)
        walked = _count_walks(monkeypatch)
        for k, M, N in ((2, 2, 4), (1, 3, 4), (1, 2, 5), (1, 2, 4)):
            assert s_f_T(f, k, M, N) == oracle_s_f_T(f, k, M, N)
        assert [k for k, _ in walked] == [2, 1, 1]

    def test_walks_bypass_the_kept_sums(self, monkeypatch):
        f = poly(SPERBER, p=3)
        walks = torus_walks(f, (1,), 1, 2, 4)
        s_f_T(f, 1, 2, 4, walks)
        assert sums._SUMS == {}
        s_f_T(f, 1, 2, 4)
        walked = _count_walks(monkeypatch)
        s_f_T(f, 1, 2, 4, sums.TorusWalks(f, (1,), 4))
        assert walked == [(1, 4)]

    def test_least_recent_sum_leaves_first(self, monkeypatch):
        monkeypatch.setattr(sums, "SUM_CACHE_SIZE", 2)
        f = poly(SPERBER, p=3)
        for k in (1, 2, 1, 3):  # k = 2 is the least recent when k = 3 arrives
            s_f_T(f, k, 2, 4)
        assert [key[1] for key in sums._SUMS] == [1, 3]
        walked = _count_walks(monkeypatch)
        s_f_T(f, 1, 2, 4)
        s_f_T(f, 2, 2, 4)
        assert walked == [(2, 3)]


class TestTorusSums:
    def test_single_point_field(self):
        # F_2 has one unit with trace 1
        f = poly([(1,)], p=2)
        assert s_f_T(f, 1, 3, 4) == one_plus_T_pow(1, 2, 3, 4, 3 + binomial_guard(4, 2))

    def test_two_point_oracle(self):
        # teich(2) = -1 in Z_3, so the sum is (1+T) + (1+T)^(-1)
        f = poly([(1,)], p=3)
        S = s_f_T(f, 1, 4, 4)
        assert [S.coeff(j) % 3**4 for j in range(4)] == [2, 0, 1, (-1) % 3**4]

    def test_value_at_T_zero(self):
        for exps, p, k in [([(1,)], 3, 2), ([(1, 0), (0, 1)], 2, 2), (SPERBER, 3, 1)]:
            f = poly(exps, p=p)
            S = s_f_T(f, k, 3, 5)
            n = f.n
            assert S.coeff(0) % p**3 == (p**k - 1) ** n % p**3

    def test_matches_per_point_oracle(self):
        f = poly([(2,), (1,)], p=3, coeffs=[FieldContext(3, 1).one(), FieldContext(3, 1).generator])
        assert s_f_T(f, 2, 3, 6) == oracle_s_f_T(f, 2, 3, 6)

    def test_matches_per_point_oracle_two_vars(self):
        f = poly(SPERBER, p=2)
        assert s_f_T(f, 2, 3, 5) == oracle_s_f_T(f, 2, 3, 5)

    @settings(max_examples=40, deadline=None)
    @given(small_sum_jobs())
    @example((poly([(-1, 0), (2, -1), (1, 1)], p=3), 1, 2, 5))
    @example((poly([(-2,), (1,)], p=2, a=2), 2, 3, 6))
    @example((poly([(1, 0), (1, 1)], p=5), 1, 2, 4))
    def test_matches_per_point_oracle_random_supports(self, job):
        f, k, M, N = job
        assert s_f_T(f, k, M, N) == oracle_s_f_T(f, k, M, N)

    def test_trace_count_total(self):
        f = poly(SPERBER, p=3)
        counts = torus_trace_counts(f, 1, 2)
        assert sum(counts.values()) == (3 - 1) ** 2

    def test_job_validation(self):
        f = poly([(1,)], p=3)
        with pytest.raises(DomainError):
            SumJob(f, 0, 2, 4)
        with pytest.raises(DomainError):
            SumJob(f, 1, 2, 4, m=0)
        big = poly([(1, 0), (0, 1)], p=3, a=4)
        with pytest.raises(DomainError, match="torus limit"):
            SumJob(big, 2, 2, 4)

    @pytest.mark.parametrize("p, L", [(2, 2), (3, 1), (5, 1)])
    def test_walk_precision_at_a_period_edge(self, p, L):
        # N = p^L + 1 is the smallest cap whose T^(p^L) coefficient needs
        # the traces mod p^(M+L)
        f = poly([(1,), (3,)], p=p)
        N = p**L + 1
        assert binomial_period(N, p) == L
        assert s_f_T(f, 1, 2, N) == oracle_s_f_T(f, 1, 2, N)

    def test_job_field_limit(self):
        # 2^21 - 1 points fit the torus limit but not the field-size limit
        f = poly([(1,)], p=2)
        SumJob(f, 20, 2, 4)
        with pytest.raises(DomainError, match="field-size limit"):
            SumJob(f, 21, 2, 4)
        with pytest.raises(DomainError, match="field-size limit"):
            SumJob(f, 10**9, 2, 4)

    def test_preflight_before_any_torus(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("torus walked before the size check")

        monkeypatch.setattr(sums, "torus_trace_counts", refuse)
        f = poly(SPERBER, p=3)
        for run in (
            lambda: power_sums_T(f, 7, 2, 4),
            lambda: l_function(f, 7, 2, 4),
            lambda: c_function(f, 7, 2, 4),
            lambda: congruence_check(f, 2, [28, 29], 2, 4),
        ):
            with pytest.raises(DomainError, match="limit"):
                run()

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.sampled_from([2, 3]),
        st.integers(0, 1),
        st.integers(0, 1),
    )
    def test_disjoint_variables_factor(self, d1, d2, p, c1, c2):
        # f(x) + g(y) sums over the product torus, so S factors
        ctx = FieldContext(p, 1)
        units = [ctx.one(), ctx.generator]
        f = LaurentPoly.make(1, {(d1,): units[c1]}, ctx)
        g = LaurentPoly.make(1, {(d2,): units[c2]}, ctx)
        h = LaurentPoly.make(2, {(d1, 0): units[c1], (0, d2): units[c2]}, ctx)
        assert s_f_T(h, 1, 2, 5) == s_f_T(f, 1, 2, 5).mul(s_f_T(g, 1, 2, 5))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 3), st.integers(1, 2))
    def test_frobenius_twist_invariance(self, d, e2, c):
        # coefficientwise Frobenius permutes the torus sum's terms
        ctx = FieldContext(2, 2)
        g = ctx.generator
        ca, cb = ctx.pow(g, c), ctx.pow(g, c + 1)
        if d == e2:
            e2 = d + 1
        f = LaurentPoly.make(1, {(d,): ca, (e2,): cb}, ctx)
        fs = LaurentPoly.make(1, {(d,): ctx.mul(ca, ca), (e2,): ctx.mul(cb, cb)}, ctx)
        assert s_f_T(f, 1, 2, 4) == s_f_T(fs, 1, 2, 4)


class TestPsiSums:
    def test_two_point_cyclotomic(self):
        # zeta + zeta^2 = -1 for p = 3
        f = poly([(1,)], p=3)
        cyc = CycContext(3, 1)
        assert s_f_psi(f, 1, 1, 3) == cyc.from_int(-1, 3)

    def test_specialization_identity(self):
        for exps, p in [([(1,)], 3), ([(2,), (1,)], 3), ([(1, 0), (0, 1)], 2)]:
            f = poly(exps, p=p)
            for k in (1, 2):
                for m in (1, 2):
                    e = p ** (m - 1) * (p - 1)
                    prec = 2
                    S = s_f_T(f, k, prec, e * prec)
                    assert specialize(S, m, prec) == s_f_psi(f, k, m, prec)

    def test_specialization_precision_rule(self):
        f = poly([(1,)], p=3)
        S = s_f_T(f, 1, 3, 4)
        with pytest.raises(PrecisionError):
            specialize(S, 2, 3)  # e = 6 needs cap >= 18


class TestLCFunctions:
    def test_l_linear_truncation(self):
        f = poly([(1,)], p=3)
        S1 = s_f_T(f, 1, 3, 6)
        L = l_function(f, 1, 3, 6)
        assert L.coeffs[0].is_one()
        assert L.coeffs[1].agrees_with(S1)

    def test_c_at_T_zero_is_one_minus_s(self):
        # S_f(k, 0) = (q^k-1)^n forces exp(-sum s^k/k) = 1 - s
        f = poly([(2,), (1,)], p=3)
        C = c_function(f, 3, 3, 6)
        assert C.coeffs[1].coeff(0) % 27 == (-1) % 27
        assert C.coeffs[2].coeff(0) % 27 == 0
        assert C.coeffs[3].coeff(0) % 27 == 0

    @pytest.mark.parametrize("series", [l_function, c_function])
    def test_negative_s_degree_refused(self, series):
        f = poly([(1,)], p=3)
        with pytest.raises(DomainError, match="deg_s >= 0"):
            series(f, -3, 3, 6)
        assert len(series(f, 0, 3, 6).coeffs) == 1

    @pytest.mark.parametrize("series", [l_function, c_function])
    def test_no_p_digits_refused(self, series):
        # ord_3(3!) = 1 guard digit would otherwise carry M = 0 past the sum
        # job's check and fail later as a precision error
        with pytest.raises(DomainError, match="M, N >= 1"):
            series(poly([(1,)], p=3), 3, 0, 6)

    def test_n1_l_equals_c_ratio(self):
        f = poly([(3,)], p=2)
        q = 2
        L = l_function(f, 3, 4, 8)
        C = c_function(f, 3, 4, 8)
        ratio = C.mul(C.scale_s(lambda k: q**k).inverse())
        for lc, rc in zip(L.coeffs, ratio.coeffs):
            assert lc.agrees_with(rc)

    def test_euler_product_n1(self):
        f = poly([(1,)], p=3)
        A = l_function(f, 3, 3, 7)
        B = l_function_euler(f, 3, 3, 7)
        for lc, rc in zip(A.coeffs, B.coeffs):
            assert lc.agrees_with(rc)

    def test_euler_product_mixed_coeff(self):
        ctx = FieldContext(3, 1)
        f = LaurentPoly.make(1, {(2,): ctx.generator, (1,): ctx.one()}, ctx)
        A = l_function(f, 3, 3, 6)
        B = l_function_euler(f, 3, 3, 6)
        for lc, rc in zip(A.coeffs, B.coeffs):
            assert lc.agrees_with(rc)

    def test_euler_product_two_vars(self):
        f = poly(SPERBER, p=2)
        A = l_function(f, 2, 3, 6)
        B = l_function_euler(f, 2, 3, 6)
        for lc, rc in zip(A.coeffs, B.coeffs):
            assert lc.agrees_with(rc)

    def test_closed_points_partition_torus(self):
        # sum over d | k of d * #(degree-d points) = (q^k - 1)^n
        f = poly(SPERBER, p=2)
        per_degree = {d: sum(closed_point_traces(f, d, 2).values()) for d in (1, 2)}
        assert per_degree[1] == (2 - 1) ** 2
        assert per_degree[1] + 2 * per_degree[2] == (2**2 - 1) ** 2


class TestConvert:
    def test_n1_both_directions(self):
        f = poly([(2,)], p=3)
        L = l_function(f, 3, 3, 8)
        C = c_function(f, 3, 3, 8)
        C2 = convert_l_to_c(L, 1, 3, "l_to_c")
        L2 = convert_l_to_c(C, 1, 3, "c_to_l")
        for x, y in zip(C.coeffs, C2.coeffs):
            assert x.agrees_with(y)
        for x, y in zip(L.coeffs, L2.coeffs):
            assert x.agrees_with(y)

    def test_n2_round_trip(self):
        f = poly(SPERBER, p=2)
        L = l_function(f, 3, 3, 7)
        C = c_function(f, 3, 3, 7)
        C2 = convert_l_to_c(L, 2, 2, "l_to_c")
        for x, y in zip(C.coeffs, C2.coeffs):
            assert x.agrees_with(y)
        back = convert_l_to_c(C2, 2, 2, "c_to_l")
        for x, y in zip(L.coeffs, back.coeffs):
            assert x.agrees_with(y)

    def test_bad_direction(self):
        f = poly([(1,)], p=3)
        L = l_function(f, 1, 2, 4)
        with pytest.raises(DomainError):
            convert_l_to_c(L, 1, 3, "sideways")
        with pytest.raises(DomainError):
            convert_l_to_c(L, 1, 10, "c_to_l")


class TestNPReport:
    def test_linear_everything_ordinary(self):
        f = poly([(1,)], p=3)
        rep = np_report(f, [1], 3, 4, 10)
        assert rep.nondegenerate == "nondegenerate"
        assert rep.flags["t_ordinary"] == "true"
        assert rep.flags["rigid"] == "true"
        assert rep.flags["ordinary"] == "true"
        assert rep.np_t.certified_upto >= 3

    def test_cubic_sharp_prime(self):
        # p = 7 = 1 mod 3: the combinatorial bound is attained
        f = poly([(3,)], p=7)
        rep = np_report(f, [], 3, 3, 10)
        assert rep.flags["t_ordinary"] == "true"
        assert rep.np_t.certified_upto >= 3
        assert rep.np_t.value_at(3) == rep.hp_q.value_at(3) == 6

    def test_cubic_bad_prime_not_t_ordinary(self):
        # ord_T jumps are integers, but the Hodge slopes have denominator 3
        f = poly([(3,)], p=2)
        rep = np_report(f, [], 3, 4, 8)
        assert rep.flags["t_ordinary"] == "false"

    def test_sperber_ordinary(self):
        # the first nontrivial hull vertex sits at x = 1 + W(1) = 4, so the
        # window must reach it before equality with the bound can certify
        f = poly(SPERBER, p=3)
        rep = np_report(f, [1, 2], 4, 4, 16)
        assert rep.nondegenerate == "nondegenerate"
        assert rep.flags["ordinary"] == "true"
        assert rep.flags["rigid"] == "true"
        assert rep.per_m[1]["ordinary"] == "true"
        assert rep.per_m[2]["ordinary"] == "true"
        assert rep.np_pi[1].vertices[:3] == rep.hp_q.vertices[:3]

    def test_sperber_short_window_stays_uncertified(self):
        # with deg_s = 3 the x = 4 vertex is out of range and the tail ray
        # cuts the proven floor at x = 1: no verdict either way
        f = poly(SPERBER, p=3)
        rep = np_report(f, [1], 3, 4, 10)
        assert rep.per_m[1]["ordinary"] == "uncertified"
        assert rep.np_pi[1].floor_upto == 1

    def test_quartic_bad_prime_decisive(self):
        # the true polygon is not pinned here (its x = 2 point hides above
        # the p-adic working precision), but the proven floor already clears
        # the half-integer Hodge vertex, which settles non-ordinariness
        f = poly([(4,)], p=7)
        rep = np_report(f, [], 4, 4, 12)
        assert rep.flags["t_ordinary"] == "false"
        assert rep.np_t.certified_upto < 2
        assert rep.np_t.value_at(2) > rep.hp_q.value_at(2)

    def test_hp_absolute_rescale(self):
        f = poly([(2,)], p=3)
        rep = np_report(f, [], 2, 3, 8)
        a_p = 1 * (3 - 1)
        for (x1, y1), (x2, y2) in zip(rep.hp_q.vertices, rep.hp_absolute.vertices):
            assert x1 == x2 and y1 == a_p * y2

    def test_degenerate_keeps_combinatorial_bound(self):
        # x^3 + x over F_3 is degenerate, but the lower bound needs no
        # hypothesis on f, so the report keeps its certification data
        from tadic.series import polygon_dominates

        f = poly([(3,), (1,)], p=3)
        rep = np_report(f, [], 2, 3, 8)
        assert rep.nondegenerate == "degenerate"
        assert 1 <= rep.np_t.certified_upto <= 2
        assert polygon_dominates(rep.np_t, rep.hp_q)

    def test_repeat_scans_the_cone_once_per_depth(self, monkeypatch):
        # the Hodge polygon deepens its cone scan one depth at a time on the
        # first report; the second reads every depth off the kept scan
        scanned = []
        scan = polytope.DegreeData._scan

        def spy(dd, K):
            was = None if dd._cone is None else dd._cone[0]
            out = scan(dd, K)
            if out[0] != was:
                scanned.append(out[0])
            return out

        monkeypatch.setattr(polytope.DegreeData, "_scan", spy)
        polytope._support_data.cache_clear()
        f = poly(SPERBER, p=3)
        first = np_report(f, [1], 4, 4, 16)
        assert scanned and scanned == sorted(set(scanned))
        depths = list(scanned)
        second = np_report(f, [1], 4, 4, 16)
        assert scanned == depths
        assert second == first

    def test_domination_chain_on_certified_range(self):
        from tadic.series import polygon_dominates

        f = poly(SPERBER, p=3)
        rep = np_report(f, [1, 2], 3, 3, 12)
        assert polygon_dominates(rep.np_t, rep.hp_q)
        assert polygon_dominates(rep.np_pi[1], rep.np_t)


class TestCongruence:
    def test_modulus_shapes(self):
        assert congruence_modulus(3, 1) == [3, 3, 1]
        assert congruence_modulus(2, 2) == [4, 6, 4, 1]

    def test_linear_f_passes(self):
        f = poly([(1,)], p=3)
        rep = congruence_check(f, 1, [1, 2, 3], 3, 12)
        assert rep.degree_bound == 1
        assert rep.modulus_degree == 2
        by_k = {c.k: c for c in rep.checks}
        assert by_k[1].status == "skipped"
        assert by_k[2].status == "pass" and by_k[2].proven_mod_exponent >= 1
        assert by_k[3].status == "pass"

    def test_level_two_bound_grows(self):
        f = poly([(1,)], p=3)
        rep = congruence_check(f, 2, [2, 3], 2, 20)
        # bound is 1 * p^(n*(m-1)) = 3, so both ks are within the bound
        assert rep.degree_bound == 3
        assert all(c.status == "skipped" for c in rep.checks)

    def test_quadratic_level_one(self):
        f = poly([(2,)], p=3)
        rep = congruence_check(f, 1, [3, 4], 3, 12)
        assert rep.degree_bound == 2
        assert all(c.status == "pass" for c in rep.checks)

    def test_perturbed_coefficient_fails(self, monkeypatch):
        # a unit at T^1, the top remainder coefficient mod a degree-2
        # modulus, turns that check, and only it, into a fail
        f = poly([(2,)], p=3)
        real = sums.l_function

        def perturbed(*args):
            L = real(*args)
            c = L.coeffs[3]
            bump = TSeries(3, c.prec, c.cap, {1: 1})
            return SSeries([x.add(bump) if k == 3 else x for k, x in enumerate(L.coeffs)])

        monkeypatch.setattr(sums, "l_function", perturbed)
        rep = congruence_check(f, 1, [3, 4], 3, 12)
        assert [(c.status, c.proven_mod_exponent) for c in rep.checks] == [("fail", 3), ("pass", 3)]

    def test_degenerate_needs_override(self):
        f = poly([(3,), (1,)], p=3)
        with pytest.raises(DomainError):
            congruence_check(f, 1, [4], 2, 8)
        rep = congruence_check(f, 1, [4], 2, 8, override_nondegenerate=True)
        assert rep.override is True
        assert rep.nondegenerate == "degenerate"

    @pytest.mark.parametrize("m", [0, -1])
    def test_level_below_one_refused(self, m):
        f = poly([(2,), (-1,)], p=3)
        with pytest.raises(DomainError, match="m must be >= 1"):
            congruence_check(f, m, [3], 3, 12)
        with pytest.raises(DomainError, match="m must be >= 1"):
            congruence_check(f, m, None, 3, 12)

    def test_bound_past_the_field_limit_is_refused_when_k_is_given(self):
        # 3^12 < 2^20 <= 3^13: the level-13 bound is reported, the level-14 one refused
        f = poly([(1,)], p=3)
        rep = congruence_check(f, 13, [1], 3, 12)
        assert rep.degree_bound == 3**12 and rep.checks[0].status == "skipped"
        with pytest.raises(DomainError, match=r"bound 1\*3\^13 exceeds the field-size limit 2\^20"):
            congruence_check(f, 14, [1], 3, 12)
        # with no k, the k past the bound meet the field-size limit itself
        with pytest.raises(DomainError, match=r"field too large: q\^k = 3\^1594325 "):
            congruence_check(f, 14, None, 3, 12)

    @pytest.mark.parametrize("ks", [None, [1]])
    def test_huge_level_is_refused_before_the_bound_is_built(self, ks):
        # 3^(10^12) would not fit in memory: only bit lengths are compared
        f = poly([(1,)], p=3)
        with pytest.raises(DomainError, match=r"degree bound 1\*3\^999999999999 exceeds"):
            congruence_check(f, 10**12, ks, 3, 12)

    def test_default_window_is_just_past_the_bound(self):
        f = poly([(2,)], p=3)
        rep = congruence_check(f, 1, None, 3, 12)
        assert [c.k for c in rep.checks] == [rep.degree_bound + 1, rep.degree_bound + 2]
        assert rep == congruence_check(f, 1, [3, 4], 3, 12)

    def test_tail_floor_grows_with_cap(self):
        from tadic.sums import _tail_ord_floor

        # (p, m, T-caps, exact floors)
        cases = [
            (3, 1, (3, 6, 12, 24), [1, 2, 5, 11]),
            (5, 2, (24, 36), [0, 1]),
            (2, 2, (4, 8, 16), [1, 3, 7]),
            (2, 1, (2, 16), [1, 15]),
        ]
        for p, m, caps, want in cases:
            g = congruence_modulus(p, m)
            floors = [_tail_ord_floor(g, N, p) for N in caps]
            assert floors == sorted(floors)
            assert floors[-1] > floors[0]
            assert floors == want


class TestSurvey:
    def test_deterministic(self):
        r1 = survey_family([(2,)], 3, 1, 4, seed=7, deg_s=2, M=3, N=8)
        r2 = survey_family([(2,)], 3, 1, 4, seed=7, deg_s=2, M=3, N=8)
        assert r1 == r2

    def test_sharp_family_all_t_ordinary(self):
        rep = survey_family([(2,)], 3, 1, 5, seed=1, deg_s=2, M=3, N=8)
        assert rep.t_ordinary == 5
        assert rep.not_t_ordinary == 0
        assert rep.nondegenerate_failures == 0

    def test_empty(self):
        rep = survey_family([(1,)], 2, 1, 0, seed=0, deg_s=1, M=2, N=4)
        assert rep.sample_count == 0
        assert rep.histogram == ()

    def test_negative_count_refused(self):
        with pytest.raises(DomainError, match="sample_count >= 0"):
            survey_family([(1,)], 2, 1, -1, seed=0, deg_s=1, M=2, N=4)

    def test_histogram_counts_sum(self):
        rep = survey_family([(2,), (1,)], 3, 1, 6, seed=3, deg_s=2, M=3, N=8)
        assert sum(c for _, c in rep.histogram) == 6

    @pytest.mark.parametrize("p, a", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (7, 1)])
    def test_draw_matches_a_choice_from_the_listed_units(self, monkeypatch, p, a):
        # decode(randrange(1, q)) draws what choice(units) drew from the
        # units in encoding order: the same stream, polynomials and report
        ctx = field_context(p, a)
        units = [x for x in ctx.elements() if x != ctx.zero()]

        class ListDraw(random.Random):
            def randrange(self, start, stop):
                assert (start, stop) == (1, ctx.q)
                return ctx.encode(self.choice(units))

        drawn = []
        report = sums.np_report

        def recorded(f, *args):
            drawn.append(f.terms)
            return report(f, *args)

        monkeypatch.setattr(sums, "np_report", recorded)
        for seed in range(3):
            args = ([(2,), (-1,)], p, a, 4, seed, 2, 2, 6)
            rep = survey_family(*args)
            mine, drawn[:] = list(drawn), []
            with monkeypatch.context() as m:
                m.setattr(sums, "random", types.SimpleNamespace(Random=ListDraw))
                assert survey_family(*args) == rep
            assert drawn == mine
            drawn.clear()
