import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    cyc_horner,
    frob_power,
    oracle_binomial_sum,
    oracle_embedding_root,
    oracle_embedding_walk,
    oracle_find_poly,
    oracle_generator,
    oracle_is_irreducible,
    oracle_mulmod,
    oracle_smallest_irreducible,
    poly_remainder,
)
from tadic import _presentations, arith
from tadic.arith import (
    FIELD_LIMIT,
    CycContext,
    CycElement,
    FieldContext,
    binomial_guard,
    binomial_period,
    binomial_sum,
    field_context,
    is_prime,
    one_plus_T_pow,
    prime_factors,
    specialize_tseries,
    teichmuller_lift,
)
from tadic.errors import DomainError, IntegralityError, PrecisionError, TheoremViolation
from tadic.series import SSeries, TSeries
from tadic.sums import congruence_modulus


class TestFieldContext:
    def test_prime_field_is_trivial(self):
        ctx = FieldContext(2, 1)
        assert ctx.poly_low == (0,)  # defining polynomial y
        assert ctx.generator == (1,)

    def test_smallest_primitive_root_mod_5(self):
        ctx = FieldContext(5, 1)
        assert ctx.generator == (2,)

    def test_f4_defining_poly(self):
        ctx = FieldContext(2, 2)
        assert ctx.poly_low == (1, 1)  # y^2 + y + 1, the only choice

    def test_f9_defining_poly(self):
        ctx = FieldContext(3, 2)
        assert ctx.poly_low == (1, 0)  # y^2 + 1: -1 is no square mod 3

    def test_rejects_composite(self):
        with pytest.raises(DomainError):
            FieldContext(6, 1)

    @pytest.mark.parametrize("p,a", [(2, 2), (3, 2), (5, 1), (2, 4)])
    def test_generator_order(self, p, a):
        ctx = FieldContext(p, a)
        q = p**a
        seen = set()
        g = ctx.one()
        for _ in range(q - 1):
            seen.add(g)
            g = ctx.mul(g, ctx.generator)
        assert len(seen) == q - 1
        assert g == ctx.one()

    @given(st.sampled_from([(2, 2), (3, 2), (5, 1), (7, 1)]), st.data())
    def test_field_axioms(self, pa, data):
        ctx = FieldContext(*pa)
        enc = st.integers(0, ctx.q - 1)
        x = ctx.decode(data.draw(enc))
        y = ctx.decode(data.draw(enc))
        z = ctx.decode(data.draw(enc))
        assert ctx.mul(x, y) == ctx.mul(y, x)
        assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
        assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))
        if x != ctx.zero():
            assert ctx.mul(x, ctx.inv(x)) == ctx.one()

    def test_embedding_is_a_homomorphism(self):
        sub = FieldContext(2, 2)
        big = sub.ext(2)  # F_16
        phi = sub.embed_into(big)
        for xe in range(sub.q):
            for ye in range(sub.q):
                x, y = sub.decode(xe), sub.decode(ye)
                assert phi(sub.mul(x, y)) == big.mul(phi(x), phi(y))
                assert phi(sub.add(x, y)) == big.add(phi(x), phi(y))
        assert phi(sub.one()) == big.one()

    def test_ext_is_cached_and_deterministic(self):
        ctx = FieldContext(3, 1)
        assert ctx.ext(2) is ctx.ext(2)
        assert ctx.ext(2).poly_low == FieldContext(3, 2).poly_low

    def test_field_context_is_shared(self):
        ctx = field_context(3, 2)
        assert field_context(3, 2) is ctx
        assert ctx.ext(2) is field_context(3, 4) is FieldContext(3, 1).ext(4)
        fresh = FieldContext(3, 2)
        assert (ctx.poly_low, ctx.generator) == (fresh.poly_low, fresh.generator)
        # the embedding found once serves every later caller
        assert field_context(3, 1).embed_into(ctx) is field_context(3, 1).embed_into(ctx)

    def test_searches_match_the_exhaustive_oracles(self):
        # every field with p^a <= 4096: the defining polynomial, the
        # generator and the root each embedding y -> root picks agree with
        # searches that enumerate candidates, elements and the big field
        fields = [(p, a) for p in range(2, 4097) if is_prime(p) for a in range(1, 13)]
        ctxs = {(p, a): FieldContext(p, a) for p, a in fields if p**a <= 4096}
        for (p, a), ctx in ctxs.items():
            assert ctx.poly_low == oracle_find_poly(p, a), (p, a)
            assert ctx.generator == oracle_generator(p, ctx.poly_low), (p, a)
        pairs = 0
        for (p, a), sub in ctxs.items():
            # at a = 1 the defining polynomial is y, whose only root is zero
            for b in range(a, 13, a) if a > 1 else ():
                if (p, b) in ctxs:
                    big = ctxs[p, b]
                    phi = sub.embed_into(big)
                    assert phi(sub.decode(p)) == oracle_embedding_root(sub, big), (p, a, b)
                    pairs += 1
        assert pairs == 57

    def test_embeddings_match_the_power_walk(self):
        # every pair F_{p^a} in F_{p^b}, a >= 2, p^b <= 2^10: the root read
        # from the kept subfield walk is the one a walk of the powers of h
        # by field products finds
        pairs = 0
        for p in range(2, 33):
            for a in range(2, 11) if is_prime(p) else ():
                for b in range(a, 11, a):
                    if p**b <= 2**10:
                        sub, big = FieldContext(p, a), FieldContext(p, b)
                        root = sub.embed_into(big)(sub.decode(p))
                        assert root == oracle_embedding_walk(sub, big), (p, a, b)
                        pairs += 1
        assert pairs == 38

    def test_subfield_logs_are_walked_once_per_subfield(self, monkeypatch):
        big = FieldContext(3, 4)
        walk, cur = {}, big.one()
        for j in range(big.q - 1):
            walk[big.encode(cur)] = j
            cur = big.mul(cur, big.generator)
        for a in (1, 2, 4):
            sub = FieldContext(3, a)
            phi = sub.embed_into(big)
            units = [big.encode(phi(x)) for x in sub.elements() if any(x)]
            assert big.subfield_logs(sub.q) == {e: walk[e] for e in units}, a
        calls = []
        monkeypatch.setattr(big, "mul", lambda x, y: calls.append((x, y)))
        assert big.subfield_logs(9) is big.subfield_logs(9)
        assert calls == []
        assert sorted(big._subfield_logs) == [3, 9, 81]

    def test_generator_invariant_catches_a_non_field(self, monkeypatch):
        # a table entry presenting F_2[y]/(y^2) with generator y (encoding
        # 2): y^3 = 0, and g^(q-1) = 1 is what tells the ring is no field
        table = _presentations.TABLE.replace("\n2 2 3 2\n", "\n2 2 0 2\n")
        monkeypatch.setattr(_presentations, "TABLE", table)
        with pytest.raises(TheoremViolation, match=r"g\^\(q-1\) != 1"):
            FieldContext(2, 2)

    def test_field_context_rejects_on_every_call(self):
        for _ in range(3):
            with pytest.raises(DomainError, match="not prime"):
                field_context(6, 1)
            with pytest.raises(DomainError, match="field size"):
                field_context(2, 21)


TABLE_ROWS = _presentations.TABLE.splitlines()[1:]
# {(p, a): (poly, gen)} read off the table's lines
PRESENTATIONS = {(p, a): (poly, gen) for p, a, poly, gen in (map(int, row.split()) for row in TABLE_ROWS)}


class TestPresentations:
    """The committed table of F_{p^a}, a >= 2, read by FieldContext."""

    def test_the_table_holds_every_field_past_the_prime_fields(self):
        fields = [(p, a) for p in range(2, 1025) if is_prime(p) for a in range(2, 21) if p**a <= FIELD_LIMIT]
        assert [tuple(map(int, row.split()[:2])) for row in TABLE_ROWS] == fields
        assert len(fields) == 242

    def test_no_search_runs_past_the_prime_fields(self, monkeypatch):
        def search(self):
            raise AssertionError("generator search at a >= 2")

        monkeypatch.setattr(FieldContext, "_find_generator", search)
        ctx = FieldContext(3, 8)
        assert ctx.encode(ctx.generator) == 38

    def test_every_entry_is_irreducible_with_a_generator_of_order_q_minus_1(self):
        for (p, a), (poly, gen) in PRESENTATIONS.items():
            ctx = FieldContext(p, a)
            assert (ctx.encode(ctx.poly_low), ctx.encode(ctx.generator)) == (poly, gen)
            assert oracle_is_irreducible(ctx.poly_low, p), (p, a)
            q, g, one = ctx.q, ctx.generator, ctx.one()
            assert ctx.pow(g, q - 1) == one, (p, a)
            assert all(ctx.pow(g, (q - 1) // l) != one for l in prime_factors(q - 1)), (p, a)

    def test_small_primes_match_the_reference_searches(self):
        # every entry with p <= 13; the bench fields below lie past the
        # 4096 bound of test_searches_match_the_exhaustive_oracles
        small = [(p, a) for p, a in PRESENTATIONS if p <= 13]
        assert {(3, 8), (3, 9), (2, 13), (5, 6), (7, 5)} <= set(small)
        assert len(small) == 51
        for p, a in small:
            ctx = FieldContext(p, a)
            assert ctx.poly_low == oracle_find_poly(p, a), (p, a)
            assert ctx.generator == oracle_generator(p, ctx.poly_low), (p, a)

    def test_a_sample_of_larger_primes_is_re_derived(self):
        for p, a in ((17, 4), (19, 4), (31, 4), (67, 3), (101, 3), (257, 2), (1021, 2)):
            ctx = FieldContext(p, a)
            assert ctx.poly_low == oracle_find_poly(p, a), (p, a)
            assert ctx.generator == oracle_generator(p, ctx.poly_low), (p, a)


# every F_{p^a} with p <= 7 and a <= 6, a = 1 included
KERNEL_FIELDS = [(p, a) for p in (2, 3, 5, 7) for a in range(1, 7)]
# every Z_p[zeta_{p^m}] of degree e <= 6, e = 1 (p = 2, m = 1) included
KERNEL_CYCLOTOMIC = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]


def _draw_coeffs(data, d, modulus):
    return tuple(data.draw(st.lists(st.integers(0, modulus - 1), min_size=d, max_size=d)))


def _repeated(mul, x, e, one):
    acc = one
    for _ in range(e):
        acc = mul(acc, x)
    return acc


class TestQuotientKernel:
    """F_q, Z_q and Z_p[pi] share one multiply and one square-and-multiply;
    each is checked against a full product long-divided by the modulus."""

    @settings(deadline=None, max_examples=150)
    @given(st.sampled_from(KERNEL_FIELDS), st.integers(1, 6), st.data())
    def test_field_and_zq_mul_match_oracle(self, pa, prec, data):
        ctx = field_context(*pa)
        p, a = ctx.p, ctx.a
        x, y = _draw_coeffs(data, a, p), _draw_coeffs(data, a, p)
        assert ctx.mul(x, y) == oracle_mulmod(x, y, ctx.poly_low, p)
        pm = p**prec
        x, y = _draw_coeffs(data, a, pm), _draw_coeffs(data, a, pm)
        assert ctx.zq_mul(x, y, prec) == oracle_mulmod(x, y, ctx.poly_low, pm)

    @settings(deadline=None, max_examples=150)
    @given(st.sampled_from(KERNEL_CYCLOTOMIC), st.integers(1, 6), st.integers(1, 6), st.data())
    def test_cyclotomic_mul_matches_oracle(self, pm, px, py, data):
        cyc = CycContext(*pm)
        x = _draw_coeffs(data, cyc.e, cyc.p**px)
        y = _draw_coeffs(data, cyc.e, cyc.p**py)
        got = CycElement(cyc, px, x).mul(CycElement(cyc, py, y))
        prec = min(px, py)
        assert got.prec == prec
        assert got.coeffs == oracle_mulmod(x, y, cyc.mod_low, cyc.p**prec)

    @pytest.mark.parametrize("e", [0, 1, 2, 3, 6, 13])
    def test_power_matches_repeated_multiplication(self, e):
        rng = random.Random(e)
        for p, a in [(2, 1), (2, 6), (3, 4), (7, 2)]:
            ctx = field_context(p, a)
            x = ctx.decode(rng.randrange(1, ctx.q))
            xe = _repeated(ctx.mul, x, e, ctx.one())
            assert ctx.pow(x, e) == xe
            assert ctx.mul(ctx.pow(x, -e), xe) == ctx.one()
            z = tuple(rng.randrange(p**5) for _ in range(a))
            zq_one = (1,) + (0,) * (a - 1)
            want = _repeated(lambda u, v: ctx.zq_mul(u, v, 5), z, e, zq_one)
            assert ctx.zq_pow(z, e, 5) == want
        c = CycElement(CycContext(3, 2), 4, tuple(rng.randrange(81) for _ in range(6)))
        assert c.pow_int(e) == _repeated(CycElement.mul, c, e, c.one_like())
        t = TSeries(5, 3, 6, {j: rng.randrange(125) for j in range(6)})
        assert t.pow_int(e) == _repeated(TSeries.mul, t, e, t.one_like())
        S = SSeries([t.one_like(), TSeries(5, 3, 6, {1: rng.randrange(1, 125)}), t])
        S_one = SSeries([t.one_like(), t.zero_like(), t.zero_like()])
        assert S.pow_int(e).coeffs == _repeated(SSeries.mul, S, e, S_one).coeffs

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 20), st.sampled_from([16, 32, 64, 72, 136]), st.data())
    # the loop at its last degree and the packed product at its first,
    # over F_{3^4} and F_{3^5} mod 3^10 (64-bit slots)
    @example(4, 64, None)
    @example(5, 64, None)
    def test_packed_product_matches_oracle(self, d, W, data):
        # moduli whose slot bound 2d(m-1)^2 takes exactly W bits; inputs
        # unreduced and negative, and g any monic integer polynomial
        if data is None:
            m, low = 3**10, field_context(3, d).poly_low
            x, y = tuple(range(-d, 0)), tuple(3**12 + i for i in range(d))
        else:
            prev = {16: 0, 32: 16, 64: 32, 72: 64, 136: 128}[W]
            lo = max(2, math.isqrt(((1 << prev) - 1) // (2 * d)) + 2) if prev else 2
            m = data.draw(st.integers(lo, math.isqrt(((1 << W) - 1) // (2 * d)) + 1))
            ints = st.lists(st.integers(-3 * m, 3 * m), min_size=d, max_size=d).map(tuple)
            low, x, y = data.draw(ints), data.draw(ints), data.draw(ints)
        reduction = arith._reduction_rows(low, m)
        assert reduction[1] == W
        assert arith._mul_rows(x, y, reduction, m) == oracle_mulmod(x, y, low, m)

    @pytest.mark.parametrize("p,a", [(2, 6), (3, 7), (5, 5)])
    def test_sparse_operands_take_the_loop(self, monkeypatch, p, a):
        # one nonzero x_i forms a < 20 loop products and keeps the loop;
        # a nonzero x_i each forms a*a >= 20 and packs
        ctx = field_context(p, a)
        arith._reduction_rows(ctx.poly_low, p)
        packed = []
        codec = arith._slot_codec
        monkeypatch.setattr(arith, "_slot_codec", lambda W, B: packed.append(B) or codec(W, B))
        sparse, dense = (0, 1) + (0,) * (a - 2), (1,) * a
        y = tuple(range(a))
        assert ctx.mul(sparse, y) == oracle_mulmod(sparse, y, ctx.poly_low, p)
        assert packed == []
        assert ctx.mul(dense, y) == oracle_mulmod(dense, y, ctx.poly_low, p)
        assert packed

    def test_negative_power_of_zero_raises(self):
        ctx = field_context(3, 2)
        assert ctx.pow(ctx.zero(), 0) == ctx.one()
        with pytest.raises(ZeroDivisionError):
            ctx.pow(ctx.zero(), -1)

    def test_a_context_caches_only_its_own_rows(self):
        # building F_{3^9} leaves one entry in the rows cache, its defining
        # polynomial's, which every later product reads
        arith._reduction_rows.cache_clear()
        ctx = FieldContext(3, 9)
        assert arith._reduction_rows.cache_info().currsize == 1
        hits = arith._reduction_rows.cache_info().hits
        arith._reduction_rows(ctx.poly_low, 3)
        assert arith._reduction_rows.cache_info().hits == hits + 1

    def test_poly_low_is_the_smallest_irreducible(self):
        for p in (2, 3, 5, 7, 11, 13):
            for a in range(1, 9):
                if p**a <= 256:
                    assert FieldContext(p, a).poly_low == oracle_smallest_irreducible(p, a), (p, a)


class TestZq:
    def test_trace_of_scalar(self):
        ctx = FieldContext(3, 2)
        x = (5, 0)  # the scalar 5 in Z_9 mod 3^4
        assert ctx.zq_trace(x, 4) == 10  # degree * scalar

    def test_trace_example_f4(self):
        # basis 1, y with y^2 = -y - 1 lifted from y^2+y+1:
        # mult-by-y matrix [[0,-1],[1,-1]], trace -1, reducing to 1 mod 2
        ctx = FieldContext(2, 2)
        y = (0, 1)
        tr = ctx.zq_trace(y, 5)
        assert tr % 2 == 1
        assert tr == 2**5 - 1  # i.e. -1

    def test_trace_linearity(self):
        ctx = FieldContext(2, 3)
        prec = 6
        pm = 2**prec
        for xe in range(0, ctx.q, 3):
            for ye in range(0, ctx.q, 2):
                x, y = ctx.decode(xe), ctx.decode(ye)
                s = ctx.zq_add(x, y, prec)
                assert ctx.zq_trace(s, prec) == (
                    ctx.zq_trace(x, prec) + ctx.zq_trace(y, prec)
                ) % pm


class TestTeichmuller:
    def test_spec_values(self):
        ctx5 = FieldContext(5, 1)
        assert teichmuller_lift(ctx5, (2,), 2) == (7,)
        ctx3 = FieldContext(3, 1)
        assert teichmuller_lift(ctx3, (2,), 3) == (26,)

    def test_zero_and_one(self):
        ctx = FieldContext(3, 2)
        assert teichmuller_lift(ctx, ctx.zero(), 4) == ctx.zero()
        assert teichmuller_lift(ctx, ctx.one(), 4) == (1, 0)

    @pytest.mark.parametrize("p,a,prec", [(2, 2, 6), (3, 1, 5), (2, 4, 4), (7, 1, 4)])
    def test_idempotence_and_multiplicativity(self, p, a, prec):
        # covers every element of F_q^x for q <= 64
        ctx = FieldContext(p, a)
        lifts = {}
        for x in ctx.elements():
            t = teichmuller_lift(ctx, x, prec)
            assert ctx.zq_pow(t, ctx.q, prec) == t
            assert tuple(c % p for c in t) == x
            lifts[x] = t
        for xe in range(1, ctx.q):
            for ye in range(1, ctx.q, 3):
                x, y = ctx.decode(xe), ctx.decode(ye)
                assert lifts[ctx.mul(x, y)] == ctx.zq_mul(lifts[x], lifts[y], prec)

    @pytest.mark.parametrize("p,a,prec,rounds", [(7, 1, 10, 10), (2, 13, 40, 4), (3, 2, 7, 4)])
    def test_each_round_gains_a_digits(self, p, a, prec, rounds, monkeypatch):
        # the coefficientwise lift agrees mod p and each t -> t^q gains a
        # digits: ceil((prec-1)/a) rounds reach the lift, one confirms it
        ctx = FieldContext(p, a)
        calls = []
        zq_pow = ctx.zq_pow
        monkeypatch.setattr(ctx, "zq_pow", lambda *args: calls.append(args) or zq_pow(*args))
        teichmuller_lift(ctx, ctx.generator, prec)
        assert len(calls) == rounds == -(-(prec - 1) // a) + 1

    def test_generator_powers_enumerate_units(self):
        ctx = FieldContext(3, 2)
        prec = 4
        tg = teichmuller_lift(ctx, ctx.generator, prec)
        cur = (1,) + (0,) * (ctx.a - 1)
        seen = set()
        for _ in range(ctx.q - 1):
            seen.add(cur)
            cur = ctx.zq_mul(cur, tg, prec)
        assert len(seen) == ctx.q - 1
        assert cur == (1, 0)


# (p, m) of the reduction property; e = 1 (p = 2, m = 1) up to e = 20 (p = 5, m = 2)
REDUCTION_LEVELS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]


def _poly_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


class TestReduction:
    """The one Horner reduction mod (g, N) against the long division of a
    T-series head and the CycElement Horner loop at T = pi."""

    @settings(deadline=None, max_examples=200)
    @given(
        st.sampled_from(REDUCTION_LEVELS),
        st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=39),
        st.integers(1, 5),
    )
    @example((2, 1), [3, -1, 5, 7], 4)  # e = 1: pi = -2
    @example((3, 2), [1, 2, 3], 3)  # cap below deg g for both moduli
    @example((5, 1), list(range(1, 12)), 2)  # cap past 2 * deg g for both moduli
    @example((2, 3), [1] * 39, 5)
    def test_matches_long_division_and_cyclotomic_horner(self, level, head, prec):
        p, m = level
        cyc = CycContext(p, m)
        ts = TSeries(p, prec, len(head), dict(enumerate(head)))
        head = [ts.coeff(j) for j in range(ts.cap)]
        got = arith._reduce_mod(head, cyc.mod_low, p**prec)
        assert got == cyc_horner(ts, cyc, prec).coeffs
        if ts.cap >= cyc.e * prec:
            assert specialize_tseries(ts, cyc, prec).coeffs == got
        for g in (list(cyc.mod_low) + [1], congruence_modulus(p, m)):
            d = len(g) - 1
            rem = poly_remainder(ts, g, p, prec)
            assert arith._reduce_mod(head, g[:-1], p**prec) == tuple(rem + [0] * (d - len(rem)))

    @pytest.mark.parametrize("level", REDUCTION_LEVELS)
    def test_congruence_modulus_is_the_cyclotomic_product(self, level):
        # ((1+x)^(p^m) - 1)/x = prod_{j <= m} Phi_{p^j}(1+x)
        p, m = level
        prod = [1]
        for j in range(1, m + 1):
            prod = _poly_product(prod, list(arith._cyc_modulus(p, j)) + [1])
        assert prod == congruence_modulus(p, m)


class TestFrobenius:
    def test_identity_and_order(self):
        ctx = FieldContext(2, 2)
        g = ctx.generator
        assert frob_power(ctx, g, 0) == g
        assert frob_power(ctx, g, ctx.a) == g
        assert frob_power(ctx, g, 1) == ctx.mul(g, g)


def _binom(t, j):
    """binom(t, j) = t(t-1)...(t-j+1)/j! for any integer t."""
    return math.comb(t, j) if t >= 0 else (-1) ** j * math.comb(j - t - 1, j)


def _check_binomial_sum(p, M, N, tp, counts):
    """binomial_sum against the direct binomials and oracle_binomial_sum."""
    s = binomial_sum(counts, p, M, N, tp)
    pm = p**M
    want = [sum(c * _binom(t, j) for t, c in counts.items()) % pm for j in range(N)]
    assert [s.coeff(j) for j in range(N)] == want
    assert s == oracle_binomial_sum(counts, p, M, N, tp)


@st.composite
def _binomial_cases(draw):
    """(p, M, N, t_prec, counts) with keys negative, zero, inside and past
    [0, p^t_prec)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    N = draw(st.integers(1, 20))
    M = draw(st.integers(1, 4))
    tp = M + binomial_guard(N, p) + draw(st.integers(0, 1))
    big = p**tp
    key = st.one_of(
        st.integers(-3 * big, -1), st.just(0), st.integers(1, big - 1), st.integers(big, 3 * big)
    )
    counts = draw(st.dictionaries(key, st.integers(1, 50), min_size=1, max_size=8))
    return p, M, N, tp, counts


class TestBinomialSum:
    # v_7(19!) = 2 and v_2(19!) = 16: every j! past 13 loses two 7-digits
    @example((7, 3, 20, 5, {-1: 3, 0: 1, 7**5 + 4: 2, 16: 7}))
    @example((2, 2, 20, 18, {-(2**18) - 3: 1, 0: 5, 2**18: 2, 12345: 9}))
    @given(_binomial_cases())
    @settings(deadline=None)
    def test_matches_weighted_binomials(self, case):
        _check_binomial_sum(*case)

    @example((7, 1, 2, {0: 1, 7: 1}))
    @example((3, 2, 28, {5: 1, 5 + 3**5: 2, 5 + 3**4: 1}))
    @given(
        st.sampled_from([2, 3, 5, 7]).flatmap(
            lambda p: st.tuples(
                st.just(p),
                st.integers(1, 4),
                st.integers(1, 40),
                st.dictionaries(st.integers(0, p**12), st.integers(1, 50), min_size=1, max_size=8),
            )
        )
    )
    @settings(deadline=None, max_examples=60)
    def test_keys_reduce_mod_the_binomial_period(self, case):
        p, M, N, counts = case
        tp = M + binomial_guard(N, p)
        pl = p ** (M + binomial_period(N, p))
        reduced = {}
        for t, c in counts.items():
            reduced[t % pl] = reduced.get(t % pl, 0) + c
        assert binomial_sum(reduced, p, M, N, tp) == binomial_sum(counts, p, M, N, tp)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_binomial_period_is_tight(self, p):
        # at N = p^L + 1, binom(p^(M+L-1), p^L) has valuation M - 1: the
        # T^(p^L) coefficient tells t = p^(M+L-1) from t = 0, and nothing
        # below T^N tells t = p^(M+L) from it
        M = 2
        for L in range(3):
            N = p**L + 1
            assert binomial_period(N, p) == L
            tp = M + binomial_guard(N, p)
            zero = binomial_sum({0: 1}, p, M, N, tp)
            assert binomial_sum({p ** (M + L): 1}, p, M, N, tp) == zero
            assert binomial_sum({p ** (M + L - 1): 1}, p, M, N, tp) != zero
        assert binomial_period(1, p) == 0

    def test_stirling_rows_give_falling_factorials(self):
        rows = arith._stirling_rows(40)
        assert len(rows) == 40
        for t in range(-5, 31):
            falling = 1
            for j, row in enumerate(rows):
                assert sum(s * t**i for i, s in enumerate(row)) == falling
                falling *= t - j

    def test_aggregate_check_catches_a_bad_stirling_row(self, monkeypatch):
        p, M, N = 3, 2, 7
        tp = M + binomial_guard(N, p)
        binomial_sum({5: 1}, p, M, N, tp)
        rows = list(arith._stirling_rows(N))
        # s(3,0) + 1 adds m_0 = 1 to the j = 3 aggregate 5*4*3, which 3 then fails to divide
        rows[3] = (rows[3][0] + 1,) + rows[3][1:]
        monkeypatch.setattr(arith, "_stirling_rows", lambda n: tuple(rows))
        with pytest.raises(IntegralityError, match="binom"):
            binomial_sum({5: 1}, p, M, N, tp)

    def test_rejects_thin_exponent(self):
        p, M, N = 3, 3, 10
        need = M + binomial_guard(N, p)
        binomial_sum({1: 2, 5: 1}, p, M, N, need)
        with pytest.raises(PrecisionError):
            binomial_sum({1: 2, 5: 1}, p, M, N, need - 1)


def _steps(p, M, N):
    """S + ceil(R/S), the step count of binomial_sum's tables at R = p^(M+L)."""
    R = p ** (M + binomial_period(N, p))
    S = math.isqrt(R)
    return S + -(-R // S)


@st.composite
def _dense_cases(draw):
    """(p, M, N, t_prec, counts) with at least as many keys as the step
    tables have series, keys negative, inside and past R = p^(M+L)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    N = draw(st.integers(1, 40))
    L = binomial_period(N, p)
    top = max(m for m in range(1, 5) if m == 1 or p ** (m + L) <= 3000)
    M = draw(st.integers(1, top))
    R = p ** (M + L)
    tp = M + binomial_guard(N, p) + draw(st.integers(0, 1))
    key = st.one_of(st.integers(-3 * R, -1), st.integers(0, R - 1), st.integers(R, 3 * R))
    K = _steps(p, M, N)
    keys = draw(st.lists(key, min_size=K, max_size=K + 20, unique=True))
    count = st.one_of(st.integers(1, 50), st.integers(1, 2**80))
    return p, M, N, tp, {t: draw(count) for t in keys}


class TestSteppedSum:
    # K = S + ceil(R/S) - 1, S + ceil(R/S) and + 1 at (p, M, N) = (3, 2, 5):
    # R = 27, S = 5, 11 steps; and N = 1 at p = 2, M = 3: R = 8, 6 steps
    @example((3, 2, 5, 3, {13 * i - 40: i + 1 for i in range(10)}))
    @example((3, 2, 5, 3, {13 * i - 40: i + 1 for i in range(11)}))
    @example((3, 2, 5, 4, {13 * i - 40: 2**70 + i for i in range(12)}))
    @example((2, 3, 1, 3, {5 * i - 12: i + 1 for i in range(6)}))
    # every residue mod R = 3^7 at the largest reduced count p^M - 1: the
    # top slots reach 2^32 and need the factor N of the slot bound
    @example((3, 4, 40, 22, {t - 3**7: 80 for t in range(3**7)}))
    @given(_dense_cases())
    @settings(deadline=None, max_examples=60)
    def test_dense_multisets_match_the_binomials(self, case):
        _check_binomial_sum(*case)

    @example((2, 1, 1, 1, {-5: 3, 7: 2}))
    @given(_binomial_cases())
    @settings(deadline=None)
    def test_stepped_pass_equals_the_moment_pass_on_sparse_input(self, case):
        p, M, N, tp, counts = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "STEP_CACHE_SLOTS", 0)  # no table fits: moments
            moments = binomial_sum(counts, p, M, N, tp)
        stepped = arith._stepped_sum(counts, p, M, N)
        assert stepped == moments
        assert list(stepped.coeffs) == list(moments.coeffs)

    def test_input_size_picks_the_pass(self, monkeypatch):
        p, M, N = 3, 2, 5
        tp = M + binomial_guard(N, p)
        K = _steps(p, M, N)
        calls = []
        stepped = arith._stepped_sum
        monkeypatch.setattr(
            arith, "_stepped_sum", lambda *a: calls.append(len(a[0])) or stepped(*a)
        )
        for k in (K - 1, K, K + 1):
            binomial_sum({i: 1 for i in range(k)}, p, M, N, tp)
        assert calls == [K, K + 1]
        # tables past the slot cap are never built: moments
        monkeypatch.setattr(arith, "STEP_CACHE_SLOTS", K * N - 1)
        binomial_sum({i: 1 for i in range(K)}, p, M, N, tp)
        assert calls == [K, K + 1]
        # the precision contract holds on both passes
        with pytest.raises(PrecisionError):
            binomial_sum({i: 1 for i in range(K)}, p, M, N, tp - 1)

    @pytest.mark.parametrize(
        "p,M,N,W", [(3, 2, 5, 16), (2, 4, 9, 32), (7, 1, 1, 64), (5, 2, 6, 72)]
    )
    def test_step_tables_hold_the_binomial_rows(self, p, M, N, W):
        baby, giant = arith._step_tables(p, M, N, W)
        R = p ** (M + binomial_period(N, p))
        S = math.isqrt(R)
        assert (len(baby), len(giant)) == (S, -(-R // S))
        unpack = arith._slot_codec(W, N)[1]
        pm = p**M
        steps = list(enumerate(baby)) + [(S * h, g) for h, g in enumerate(giant)]
        for e, v in steps:
            assert list(unpack(v)) == [math.comb(e, j) % pm for j in range(N)]

    def test_step_tables_are_bounded_by_slots_least_recent_first(self, monkeypatch):
        monkeypatch.setattr(arith, "_STEPS", {})
        monkeypatch.setattr(arith, "STEP_CACHE_SLOTS", 80)

        def slots():
            return sum(n * (len(b) + len(g)) for (_, _, n, _), (b, g) in arith._STEPS.items())

        a = arith._step_tables(3, 2, 3, 16)  # 6 series of 3 slots
        arith._step_tables(2, 2, 4, 16)  # 6 of 4
        assert arith._step_tables(3, 2, 3, 16) is a  # now the most recent
        arith._step_tables(5, 1, 2, 16)  # 5 of 2: 52 slots fit
        assert list(arith._STEPS) == [(2, 2, 4, 16), (3, 2, 3, 16), (5, 1, 2, 16)]
        arith._step_tables(3, 2, 5, 16)  # 11 of 5 more: the two least recent go
        assert list(arith._STEPS) == [(5, 1, 2, 16), (3, 2, 5, 16)]
        assert slots() == 65
        # a pair of tables past the bound alone is returned but not kept
        baby, giant = arith._step_tables(3, 2, 8, 16)
        assert 8 * (len(baby) + len(giant)) == 88
        assert arith._STEPS == {}


class TestOnePlusTPow:
    def test_exponent_one(self):
        s = one_plus_T_pow(1, 3, 4, 5, t_prec=4 + binomial_guard(5, 3))
        assert s.sorted_items() == [(0, 1), (1, 1)]

    def test_exponent_zero(self):
        s = one_plus_T_pow(0, 3, 4, 5, t_prec=4 + binomial_guard(5, 3))
        assert s.is_one()

    def test_exponent_minus_one_is_geometric(self):
        # (1+T)^(-1) = 1 - T + T^2 - T^3: the geometric series oracle
        p, M, N = 3, 4, 4
        tp = M + binomial_guard(N, p)
        s = one_plus_T_pow(p**tp - 1, p, M, N, t_prec=tp)
        pm = p**M
        assert s.sorted_items() == [(j, (-1) ** j % pm) for j in range(N)]

    def test_integer_exponent_matches_ring_power(self):
        p, M, N = 2, 5, 8
        tp = M + binomial_guard(N, p)
        s = one_plus_T_pow(11, p, M, N, t_prec=tp)
        base = TSeries(p, M, N, {0: 1, 1: 1})
        assert s == base.pow_int(11)

    def test_rejects_thin_exponent(self):
        with pytest.raises(PrecisionError):
            one_plus_T_pow(1, 2, 10, 32, t_prec=10)

    @given(st.integers(0, 3**9 - 1), st.integers(0, 3**9 - 1))
    @settings(deadline=None)
    def test_homomorphism(self, t1, t2):
        p, M, N = 3, 5, 10
        tp = M + binomial_guard(N, p)
        a = one_plus_T_pow(t1, p, M, N, t_prec=tp)
        b = one_plus_T_pow(t2, p, M, N, t_prec=tp)
        ab = one_plus_T_pow((t1 + t2) % p**tp, p, M, N, t_prec=tp)
        assert a.mul(b) == ab


class TestCyclotomic:
    def test_modulus_is_eisenstein(self):
        for p, m in [(2, 1), (3, 1), (3, 2), (5, 1), (2, 3)]:
            cyc = CycContext(p, m)
            assert cyc.mod_low[0] == p
            assert all(c % p == 0 for c in cyc.mod_low)

    def test_pi_has_valuation_one(self):
        cyc = CycContext(3, 2)
        x = cyc.pi(4)
        assert x.val_data()[0] == 1
        assert x.coeffs == (0, 1, 0, 0, 0, 0)
        # e = 1: zeta_2 = -1, so pi = -2
        assert CycContext(2, 1).pi(5).coeffs == (-2 % 2**5,)

    def test_p_has_valuation_e(self):
        for p, m in [(3, 1), (5, 1), (3, 2)]:
            cyc = CycContext(p, m)
            assert cyc.from_int(p, 3).val_data()[0] == cyc.e

    def test_sum_of_cube_roots(self):
        # zeta + zeta^2 = -1 for p=3, m=1: a unit
        cyc = CycContext(3, 1)
        z = cyc.zeta(4)
        s = z.add(z.mul(z))
        assert s == cyc.from_int(-1, 4)
        assert s.val_data()[0] == 0

    def test_zeta_has_exact_order(self):
        for p, m in [(2, 1), (3, 1), (2, 2), (3, 2), (5, 1)]:
            cyc = CycContext(p, m)
            z = cyc.zeta(4)
            assert z.pow_int(p**m).is_one()
            if p**m > 2:
                assert not z.pow_int(p ** (m - 1)).is_one()

    def test_vanished_element_reports_cap(self):
        cyc = CycContext(3, 1)
        v, cap = cyc.zero(5).val_data()
        assert v is None and cap == cyc.e * 5

    @given(st.integers(0, 3**3 - 1), st.integers(0, 3**3 - 1), st.integers(0, 3**3 - 1), st.integers(0, 3**3 - 1))
    def test_ord_is_additive(self, a0, a1, b0, b1):
        cyc = CycContext(3, 1)
        x = CycElementFactory(cyc, 3, (a0, a1))
        y = CycElementFactory(cyc, 3, (b0, b1))
        vx, capx = x.val_data()
        vy, capy = y.val_data()
        if vx is None or vy is None:
            return
        vxy, cap = x.mul(y).val_data()
        if vx + vy < cap:
            assert vxy == vx + vy

    def test_divexact_spends_precision(self):
        cyc = CycContext(3, 1)
        x = cyc.from_int(9, 4)
        y = x.divexact_int(3)
        assert y.prec == 3 and y.coeffs[0] == 3


def CycElementFactory(cyc, prec, coeffs):
    from tadic.arith import CycElement

    return CycElement(cyc, prec, coeffs)


class TestSpecialize:
    def test_one_plus_t_becomes_zeta(self):
        cyc = CycContext(3, 1)
        ts = TSeries(3, 4, 8, {0: 1, 1: 1})
        got = specialize_tseries(ts, cyc, 4)
        assert got == cyc.zeta(4)

    def test_truncation_rule_enforced(self):
        cyc = CycContext(3, 2)  # e = 6
        ts = TSeries(3, 4, 8, {0: 1})
        with pytest.raises(PrecisionError):
            specialize_tseries(ts, cyc, 4)  # needs cap >= 24

    def test_geometric_series_specializes_to_inverse(self):
        # (1+T)^(-1) at T=pi equals zeta^(-1) = zeta^(p^m - 1)
        p, m = 3, 1
        cyc = CycContext(p, m)
        M = 3
        N = cyc.e * M + 2
        tp = M + binomial_guard(N, p)
        inv = one_plus_T_pow(p**tp - 1, p, M, N, t_prec=tp)
        got = specialize_tseries(inv, cyc, M)
        want = cyc.zeta(M).pow_int(p**m - 1)
        assert got == want


def test_primality_helpers():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_factors(360) == [2, 3, 5]
