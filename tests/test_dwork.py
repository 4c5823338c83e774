import copy
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from tadic import dwork
from tadic.arith import (
    FieldContext,
    binomial_guard,
    field_context,
    one_plus_T_pow,
    teichmuller_lift,
)
from tadic.dwork import (
    DworkMatrix,
    ZqPi,
    _criterion_data,
    _cutoff_dets,
    _det_mod,
    _PiSeries,
    _ZqScalars,
    artin_hasse,
    char_c_crosscheck,
    char_series,
    e_factor,
    embed_int,
    facial_criterion,
    operator_trace,
    ordinariness_determinants,
    psi_a_matrix,
    t_to_pi,
    verify_trace_formula,
)
from tadic.errors import DomainError, IntegralityError, PrecisionError, TheoremViolation
from tadic.polytope import LaurentPoly, newton_data, restrict_to_face
from tadic.sums import np_report

from oracles import (
    cofacial_defect,
    criterion_matrix,
    e_f_expansion,
    from_reduced,
    full_kernel_product,
    leading_minors,
    oracle_berkowitz,
    oracle_det,
    oracle_exp_fractions,
    oracle_trace,
    oracle_transfer_entries,
    oracle_zqpi_mul,
    pi_of_t,
    shift,
    with_cap,
)

SPERBER = [(1, 0), (0, 1), (-1, -1)]

CTX3 = FieldContext(3, 1)


def poly(exps, p=3, a=1, coeffs=None):
    ctx = FieldContext(p, a)
    if coeffs is None:
        term_map = {e: ctx.one() for e in exps}
    else:
        term_map = {e: c for e, c in zip(exps, coeffs)}
    return LaurentPoly.make(len(exps[0]), term_map, ctx)


class TestSplittingKernel:
    def test_p2_prefix(self):
        ah = artin_hasse(2, 8)
        assert ah[:6] == (
            Fraction(1),
            Fraction(1),
            Fraction(1),
            Fraction(2, 3),
            Fraction(2, 3),
            Fraction(7, 15),
        )

    def test_p3_prefix(self):
        # exp(x + x^3/3) by hand through degree 5
        ah = artin_hasse(3, 6)
        assert ah[:6] == (
            Fraction(1),
            Fraction(1),
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(3, 8),
            Fraction(7, 40),
        )

    def test_matches_exp_below_p(self):
        for p in (5, 7):
            ah = artin_hasse(p, p + 3)
            for k in range(p):
                assert ah[k] == Fraction(1, math.factorial(k))

    def test_p_integral_denominators(self):
        for p in (2, 3, 5):
            ah = artin_hasse(p, 41)
            assert all(c.denominator % p for c in ah)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_kernel_matches_exp_of_the_log_series(self, p):
        # E = exp(sum_i X^(p^i)/p^i), by the general exp recurrence
        N = 60
        g = [Fraction(0)] * N
        q = 1
        while q < N:
            g[q] = Fraction(1, q)
            q *= p
        assert list(artin_hasse(p, N)) == oracle_exp_fractions(g, N)
        assert artin_hasse(p, 1) == (Fraction(1),)

    def test_uniformizer_p2_prefix(self):
        pi = pi_of_t(2, 6, 8)
        assert pi.coeffs[:4] == (
            Fraction(0),
            Fraction(1),
            Fraction(-1),
            Fraction(4, 3),
        )

    def test_uniformizer_is_log_below_p(self):
        for p in (5, 7):
            pi = pi_of_t(p, 4, p)
            for k in range(1, p):
                assert pi.coeffs[k] == Fraction((-1) ** (k + 1), k)

    def test_composition_recovers_one_plus_T(self):
        # sum lambda_m pi(T)^m == 1 + T, computed in exact rationals
        N = 12
        ah = artin_hasse(3, N)
        pi = pi_of_t(3, 6, N)
        acc = [Fraction(0)] * N
        power = [Fraction(1)] + [Fraction(0)] * (N - 1)
        for m in range(N):
            lam = ah[m]
            for j in range(N):
                acc[j] += lam * power[j]
            new = [Fraction(0)] * N
            for i, ci in enumerate(power):
                if not ci:
                    continue
                for j, dj in enumerate(pi.coeffs[: N - i]):
                    new[i + j] += ci * dj
            power = new
        assert acc[0] == 1 and acc[1] == 1
        assert all(c == 0 for c in acc[2:])

    def test_scalar_one_takes_no_product(self):
        # c = 1 + 3^4 is 1 mod 3^4 but not the tuple 1: it takes the products
        ah = artin_hasse(3, 8)
        ctx = FieldContext(3, 2)
        real = FieldContext.zq_mul
        with mock.patch.object(FieldContext, "zq_mul", autospec=True, side_effect=real) as zq:
            one = e_factor(ah, ctx, embed_int(ctx, 1, 4), 4, 8)
            assert zq.call_count == 0
            stepped = e_factor(ah, ctx, (1 + 3**4, 0), 4, 8)
            assert zq.call_count == 7
        assert one.coeffs == stepped.coeffs

    def test_short_kernel_refused(self):
        ah = artin_hasse(3, 4)
        with pytest.raises(PrecisionError):
            e_factor(ah, CTX3, embed_int(CTX3, 1, 3), 3, 6)


class TestZqPiRing:
    def mk(self, coeffs, prec=4, cap=6, ctx=CTX3):
        return ZqPi(ctx, prec, cap, coeffs)

    def test_constructor_guards(self):
        with pytest.raises(DomainError):
            self.mk({-1: (1,)})
        with pytest.raises(PrecisionError):
            ZqPi(CTX3, 0, 4, {})
        with pytest.raises(PrecisionError):
            ZqPi(CTX3, 4, 0, {})

    def test_cap_truncates_and_residues_drop(self):
        z = self.mk({7: (1,), 2: (81,), 1: (5,)})
        assert set(z.coeffs) == {1}
        assert z.coeff(1) == (5 % 81,)

    def test_mul_cap_accounts_for_orders(self):
        a = self.mk({0: (1,)}, cap=3)
        b = self.mk({2: (1,)}, cap=5)
        prod = a.mul(b)
        # unknown tail of a sits at pi^3, shifted by ord(b) = 2
        assert prod.cap == 5
        assert prod.coeff(2) == (1,)

    def test_shift_round_trip_and_guard(self):
        z = self.mk({2: (4,), 3: (1,)})
        assert shift(shift(z, 3), -3).coeffs == z.coeffs
        with pytest.raises(IntegralityError):
            shift(z, -3)

    def test_rescale_den(self):
        z = self.mk({1: (2,)}, cap=4)
        fine = z.rescale_den(3)
        assert fine.den == 3 and fine.cap == 12
        assert fine.coeff(3) == (2,)
        assert fine.ord() == Fraction(1)
        with pytest.raises(DomainError):
            fine.rescale_den(2)

    def test_agrees_with_window(self):
        a = self.mk({1: (2,)}, cap=3)
        b = self.mk({1: (2,), 4: (7,)}, cap=6)
        assert a.agrees_with(b) and b.agrees_with(a)
        c = self.mk({1: (2,), 2: (1,)}, cap=3)
        assert not a.agrees_with(c)

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(st.integers(0, 5), st.tuples(st.integers(0, 80)), max_size=4),
        st.dictionaries(st.integers(0, 5), st.tuples(st.integers(0, 80)), max_size=4),
        st.dictionaries(st.integers(0, 5), st.tuples(st.integers(0, 80)), max_size=4),
    )
    def test_ring_laws(self, da, db, dc):
        a, b, c = (self.mk(d) for d in (da, db, dc))
        assert a.mul(b).agrees_with(b.mul(a))
        assert a.mul(b.mul(c)).agrees_with(a.mul(b).mul(c))
        assert a.mul(b.add(c)).agrees_with(a.mul(b).add(a.mul(c)))
        assert a.add(a.neg()).is_zero()
        assert a.mul(a.one_like()).agrees_with(a)


class TestKernelExpansion:
    def test_single_variable_alphas_are_kernel_coefficients(self):
        # f = x: the product collapses to E(pi x), so alpha_m = lambda_m
        f = poly([(1,)], p=2)
        amap = e_f_expansion(f, 3, 6, 5)
        ah = artin_hasse(2, 8)
        pm = 2**6
        for m in range(4):
            lam = ah[m]
            want = lam.numerator * pow(lam.denominator, -1, pm) % pm
            assert amap[(m,)].coeff(0) == (want,)

    def test_alpha_at_origin_is_one(self):
        for exps, p in [([(2,)], 3), (SPERBER, 3), ([(1, 0), (0, 1)], 2)]:
            f = poly(exps, p=p)
            al = e_f_expansion(f, 1, 4, 2)[(0,) * f.n]
            assert al.coeff(0) == embed_int(f.ctx, 1, 4)

    def test_monomial_support_is_sparse(self):
        # f = x^3 only meets exponents divisible by 3
        f = poly([(3,)], p=2)
        amap = e_f_expansion(f, 2, 4, 3)
        for (u,), al in amap.items():
            if u % 3:
                assert al.is_zero()
            else:
                assert al.coeff(0) == (1,) or u == 0

    def test_face_alphas_match_at_pi_zero(self):
        # restriction to a closed face keeps the pi^0 layer of every alpha
        # supported on that face's cone
        f = poly(SPERBER, p=3)
        dd = newton_data(f)
        amap = e_f_expansion(f, 2, 4, 2)
        for facet in dd.facets_height:
            f_face = restrict_to_face(f, dd, facet.points)
            for u, al in e_f_expansion(f_face, 2, 4, 2).items():
                assert al.coeff(0) == amap[u].coeff(0)


class TestTransferMatrix:
    def test_small_matrix_orders(self):
        f = poly([(1,)], p=2)
        Mx = psi_a_matrix(f, 3, 5, 3)
        assert Mx.dim == 4 and Mx.basis == ((0,), (1,), (2,), (3,))
        ords = [[e.ord() for e in row] for row in Mx.entries]
        # entry(w, u) carries pi^w exactly when 2w >= u, else it vanishes
        assert ords[0] == [0, None, None, None]
        assert ords[1] == [1, 1, 1, None]
        assert ords[2] == [2, 2, 2, 2]
        # row 3 sits entirely above the certified pi-window
        assert ords[3] == [None, None, None, None]

    def test_valuation_pattern(self):
        for exps, p, B, N in [(SPERBER, 3, 2, 4), ([(2,), (1,)], 3, 2, 4)]:
            f = poly(exps, p=p)
            Mx = psi_a_matrix(f, B, 4, N)
            for w, row in enumerate(Mx.entries):
                bound = (p - 1) * Mx.degrees[w]
                for e in row:
                    assert e.ord() is None or e.ord() >= bound

    def test_basis_too_small_refused(self):
        f = poly([(1,)], p=2)
        with pytest.raises(PrecisionError):
            psi_a_matrix(f, 2, 5, 8)

    @pytest.mark.parametrize("B, M, N_pi", [(-1, 4, 2), (3, 0, 2), (3, 4, 0)])
    def test_out_of_range_inputs_refused(self, B, M, N_pi):
        with pytest.raises(DomainError, match="operator job needs"):
            psi_a_matrix(poly([(1,)], p=2), B, M, N_pi)

    def test_unsupported_extension_degree(self):
        f = poly([(1,)], p=2, a=3)
        with pytest.raises(DomainError):
            psi_a_matrix(f, 2, 4, 2)

    def test_entries_view_is_cached_and_converts_each_row_object_once(self, monkeypatch):
        Mx = psi_a_matrix(poly(SPERBER, p=3), 3, 4, 4)
        cells = [x for row in Mx.rows for x in row]
        convert = _PiSeries.to_zqpi
        seen = []
        monkeypatch.setattr(_PiSeries, "to_zqpi", lambda ring, x: seen.append(x) or convert(ring, x))
        entries = Mx.entries
        assert Mx.entries is entries
        # every zero cell is the ring's one zero object, converted once
        assert len(seen) == len({id(x) for x in cells}) < len(cells) // 2
        want = [[_bare(convert(Mx.ring, x)) for x in row] for row in Mx.rows]
        assert [[_bare(e) for e in row] for row in entries] == want
        assert all(e.den == Mx.D for row in entries for e in row)

    def test_char_series_shape(self):
        f = poly([(1,)], p=2)
        Mx = psi_a_matrix(f, 4, 6, 4)
        C = char_series(Mx, 3)
        assert C.coeffs[0].is_one()
        assert C.coeffs[1].agrees_with(operator_trace(Mx, 1).neg())
        with pytest.raises(DomainError):
            char_series(Mx, Mx.dim + 1)
        with pytest.raises(DomainError, match="need deg_s >= 0"):
            char_series(Mx, -1)

    def test_char_series_newton_identity(self):
        # 2 e_2 = tr(M)^2 - tr(M^2), checked where 2 is a unit
        f = poly([(2,), (1,)], p=3)
        Mx = psi_a_matrix(f, 3, 5, 4)
        C = char_series(Mx, 2)
        t1 = operator_trace(Mx, 1)
        t2 = operator_trace(Mx, 2)
        lhs = C.coeffs[2].add(C.coeffs[2])
        assert lhs.agrees_with(t1.mul(t1).sub(t2))

    def test_truncation_stable_in_basis_bound(self):
        for exps, p in [([(3,)], 2), (SPERBER, 3)]:
            f = poly(exps, p=p)
            small = char_series(psi_a_matrix(f, 2, 4, 2), 2)
            large = char_series(psi_a_matrix(f, 3, 4, 2), 2)
            for a, b in zip(small.coeffs, large.coeffs):
                assert a.agrees_with(b)


CONTEXTS = {(p, a): FieldContext(p, a) for p in (2, 3) for a in (1, 2)}


@st.composite
def zq_tuples(draw, ctx, M):
    # small multiples of p make zero divisors mod p^M, so products vanish
    pm = ctx.p**M
    pick = st.one_of(st.sampled_from([0, 1, ctx.p, pm - 1]), st.integers(0, pm - 1))
    return tuple(draw(pick) for _ in range(ctx.a))


@st.composite
def sparse_operators(draw, floors=False):
    """(Mx, entries): random sparse ZqPi entries, and a DworkMatrix whose rows
    are those entries in its ring, truncated at the spectral cap K = N_pi*D.
    Entries have den > 1, caps from K to K + 2 (every cell psi_a_matrix
    builds is known to K) and keys below and past K.  Some whole rows and
    columns, anywhere, are blanked with one zero.  With floors, every key in
    row w is >= b_w for nondecreasing b_w in [0, K), the valuation pattern
    ord >= (p-1)*deg(w) of the transfer matrix, with fewer blanks and no
    empty draws, so some Krylov entries are provably past K."""
    ctx = CONTEXTS[draw(st.sampled_from([2, 3])), draw(st.sampled_from([1, 2]))]
    M = 2
    D = draw(st.sampled_from([2, 3]))
    N_pi = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    top = N_pi * D + 2
    K = N_pi * D
    blank_rows = draw(st.sets(st.integers(0, n - 1), max_size=n // 2 if floors else n))
    blank_cols = draw(st.sets(st.integers(0, n - 1), max_size=n // 2 if floors else n))
    floor = [0] * n
    if floors:
        lows = draw(st.lists(st.integers(0, K - 1), min_size=n, max_size=n))
        floor = sorted(K - 1 - x for x in lows)  # near K, where skips happen
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i in blank_rows or j in blank_cols:
                row.append(ZqPi(ctx, M, top, {}, den=D))
                continue
            cap = draw(st.integers(K, top))
            coeffs = {}
            if floors or draw(st.booleans()):
                keys = draw(st.lists(st.integers(floor[i], top), max_size=3))
                coeffs = {k: draw(zq_tuples(ctx, M)) for k in keys}
            row.append(ZqPi(ctx, M, cap, coeffs, den=D))
        rows.append(tuple(row))
    return _operator(ctx, D, N_pi, rows)


def _operator(ctx, D, N_pi, rows):
    """(Mx, rows): a DworkMatrix at p-precision 2 whose rows are the ZqPi
    `rows` truncated at K = N_pi*D."""
    ring = _PiSeries(ctx, 2, D, N_pi * D)
    ft = ring.sc.from_tuple
    Mx = DworkMatrix(
        N_pi=N_pi,
        D=D,
        ctx=ctx,
        basis=tuple((i,) for i in range(len(rows))),  # only entries matter
        degrees=(Fraction(0),) * len(rows),
        ring=ring,
        rows=tuple(
            tuple({k: ft(t) for k, t in e.coeffs.items() if k < ring.K} for e in row)
            for row in rows
        ),
    )
    return Mx, rows


def _bare(z):
    return z.cap, z.prec, z.den, z.coeffs


@st.composite
def valued_matrices(draw, max_n):
    """(ctx, M, grid): an n x n matrix of Z_q tuples p^k * unit mod p^M with
    k <= M (k = M is zero), p <= 3, a <= 2, M <= 4, so non-unit pivots,
    singular prefixes and all-zero blocks all occur."""
    ctx = CONTEXTS[draw(st.sampled_from(sorted(CONTEXTS)))]
    M = draw(st.integers(1, 4))
    n = draw(st.integers(0, max_n))
    p, pm = ctx.p, ctx.p**M
    residues = st.integers(1, ctx.q - 1).map(ctx.decode)
    lifts = st.tuples(*[st.integers(0, pm // p - 1)] * ctx.a)

    def entry():
        k = draw(st.integers(0, M))
        unit = (r + p * s for r, s in zip(draw(residues), draw(lifts)))
        return tuple(p**k * c % pm for c in unit)

    return ctx, M, [[entry() for _ in range(n)] for _ in range(n)]


class TestPiSeriesProduct:
    """ZqPi.mul, which is _PiSeries' product, against the reference loop."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(1, 3), st.sampled_from([2, 3]), st.data())
    def test_matches_the_reference_product(self, p, a, den, data):
        # unequal precisions, keys past the cap, and zeros of every cap
        ctx = field_context(p, a)

        def operand():
            prec = data.draw(st.integers(1, 3))
            cap = data.draw(st.integers(1, 8))
            keys = data.draw(st.lists(st.integers(0, 9), max_size=4))
            if data.draw(st.integers(0, 3)) == 0:
                keys = []  # a zero operand
            coeffs = {k: data.draw(zq_tuples(ctx, prec)) for k in keys}
            return ZqPi(ctx, prec, cap, coeffs, den=den)

        x, y = operand(), operand()
        assert _bare(x.mul(y)) == _bare(oracle_zqpi_mul(x, y))


class TestBerkowitzKernel:
    """The bare-ring kernel against the ZqPi reference, coefficients and caps."""

    @settings(max_examples=150, deadline=None)
    @given(sparse_operators(), st.data())
    def test_char_series_matches_zqpi_berkowitz(self, job, data):
        Mx, entries = job
        keep = data.draw(st.integers(0, Mx.dim))
        K = Mx.cert_cap()
        zero = ZqPi(Mx.ctx, 2, Mx.N_pi * Mx.D, {}, den=Mx.D)
        want = oracle_berkowitz(entries, zero, zero.one_like(), keep)
        got = char_series(Mx, keep).coeffs
        assert [_bare(c) for c in got] == [_bare(with_cap(c, min(c.cap, K))) for c in want]

    @settings(max_examples=60, deadline=None)
    @given(sparse_operators(), st.integers(1, 3))
    def test_operator_trace_matches_matrix_powers(self, job, k):
        Mx, entries = job
        zero = ZqPi(Mx.ctx, 2, Mx.N_pi * Mx.D, {}, den=Mx.D)
        want = oracle_trace(entries, zero, k)
        assert _bare(operator_trace(Mx, k)) == _bare(with_cap(want, min(want.cap, Mx.cert_cap())))

    def test_krylov_entries_past_the_cap_are_skipped_exactly(self):
        # on the valuation pattern the kernel skips Krylov entries whose row
        # and vector start too late; the results still match the ZqPi
        # oracle, and the same kernel with a K no key reaches for its skip
        # test (the dots still truncate at K) yields the same vectors with
        # no fewer dots, strictly more in some drawn case
        skipped = []
        ctx = CONTEXTS[3, 1]
        # K = 2: s_0 of row 1 is pi^1 * pi^1, past the cap
        pi = ZqPi(ctx, 2, 2, {1: (1,)}, den=2)
        blank = pi.zero_like()

        @settings(max_examples=150, deadline=None)
        @given(sparse_operators(floors=True), st.integers(1, 3), st.integers(0, 5))
        @example(_operator(ctx, 2, 1, [(blank, pi), (pi, blank)]), 1, 0)
        def check(job, k, short):
            Mx, entries = job
            K = Mx.cert_cap()
            zero = ZqPi(Mx.ctx, 2, K, {}, den=Mx.D)
            keep = max(0, Mx.dim - short)
            want = oracle_berkowitz(entries, zero, zero.one_like(), keep)
            got = char_series(Mx, keep).coeffs
            assert [_bare(c) for c in got] == [_bare(with_cap(c, min(c.cap, K))) for c in want]
            trace = oracle_trace(entries, zero, k)
            assert _bare(operator_trace(Mx, k)) == _bare(with_cap(trace, min(trace.cap, K)))
            runs = []
            for bound in (K, 10**9):
                ring, calls = copy.copy(Mx.ring), []
                ring.K = bound
                ring.dot = lambda pairs, plus=None, calls=calls: (
                    calls.append(1) or _PiSeries.dot(Mx.ring, pairs, plus)
                )
                runs.append((list(dwork._berkowitz(ring, Mx.rows, keep)), len(calls)))
            (vecs, dots), (blind_vecs, blind_dots) = runs
            assert vecs == blind_vecs and dots <= blind_dots
            skipped.append(dots < blind_dots)

        check()
        assert any(skipped)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(CONTEXTS)), st.integers(0, 5), st.data())
    def test_leading_minors_match_prefix_determinants(self, key, n, data):
        ctx = CONTEXTS[key]
        M = 2
        grid = [[data.draw(zq_tuples(ctx, M)) for _ in range(n)] for _ in range(n)]
        sc = _ZqScalars(ctx, M)
        minors = leading_minors(sc, [[sc.from_tuple(t) for t in row] for row in grid])
        want = [oracle_det(ctx, M, [row[:r] for row in grid[:r]]) for r in range(n + 1)]
        assert [sc.to_tuple(d) for d in minors] == want

    def test_rows_past_the_spectral_cap_form_no_product(self):
        # rows w with (p-1)*deg(w) >= the cap clamp to the absorbing zero;
        # appended to the block before them, with their nonzero columns, they
        # change no yielded vector and cost no ring product
        Mx = psi_a_matrix(poly(SPERBER, p=3), 3, 2, 4)
        ring, rows = Mx.ring, Mx.rows
        K = Mx.cert_cap()
        n0 = sum(1 for d in Mx.degrees if (Mx.ctx.p - 1) * d * Mx.D < K)
        assert 0 < n0 < Mx.dim
        assert all(ring.is_zero(x) for row in rows[n0:] for x in row)
        assert any(not ring.is_zero(x) for row in rows[:n0] for x in row[n0:])
        calls = []

        def counted(pairs, plus=None):
            pairs = list(pairs)
            calls.append(len(pairs))  # the products this dot forms
            return _PiSeries.dot(ring, pairs, plus)

        ring.dot = counted
        for keep in range(n0 + 1):
            del calls[:]
            head = list(dwork._berkowitz(ring, [row[:n0] for row in rows[:n0]], keep))
            products = sum(calls)
            assert (products > 0) == (keep > 0)
            full = list(dwork._berkowitz(ring, rows, keep))
            assert sum(calls) == 2 * products
            assert full == head + [head[-1]] * (Mx.dim - n0)


class TestCutoffDeterminants:
    """Valuation-pivoted elimination against the permutation expansion and
    against every leading minor of one Berkowitz pass."""

    @settings(max_examples=150, deadline=None)
    @given(valued_matrices(4))
    # the first nonzero pivot, 3, does not divide the 1 below it
    @example((CONTEXTS[3, 1], 2, [[(3,), (1,)], [(1,), (0,)]]))
    def test_matches_permutation_expansion(self, job):
        ctx, M, grid = job
        sc = _ZqScalars(ctx, M)
        det = _det_mod(sc, [[sc.from_tuple(t) for t in row] for row in grid])
        assert sc.to_tuple(det) == oracle_det(ctx, M, grid)

    @settings(max_examples=80, deadline=None)
    @given(valued_matrices(12), st.data())
    def test_cutoff_dets_match_leading_minors(self, job, data):
        ctx, M, grid = job
        sc = _ZqScalars(ctx, M)
        mat = [[sc.from_tuple(t) for t in row] for row in grid]
        minors = leading_minors(sc, mat)
        sizes = data.draw(st.lists(st.integers(0, len(mat)), max_size=4))
        assert _cutoff_dets(sc, mat, sizes) == {r: minors[r] for r in sizes}
        assert [_det_mod(sc, [row[:r] for row in mat[:r]]) for r in range(len(mat) + 1)] == minors

    @pytest.mark.parametrize("p, a", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
    def test_unit_inverse(self, p, a):
        ctx, M = field_context(p, a), 4
        sc = _ZqScalars(ctx, M)
        for enc in range(1, ctx.q):
            unit = tuple((c + p * (k + 1)) % p**M for k, c in enumerate(ctx.decode(enc)))
            x = sc.from_tuple(unit)
            assert sc.mul(x, sc.unit_inv(x)) == sc.one


@st.composite
def operator_jobs(draw):
    """(f, B, M, N_pi) on a random support: p <= 5, a <= 2, n <= 2, up to
    three exponents in [-2, 2]^n, N_pi <= 3 and B from N_pi/(p - 1) to two
    past it."""
    ctx = field_context(draw(st.sampled_from([2, 3, 5])), draw(st.sampled_from([1, 2])))
    n = draw(st.integers(1, 2))
    exps = draw(
        st.lists(
            st.tuples(*[st.integers(-2, 2)] * n).filter(any), min_size=1, max_size=3, unique=True
        )
    )
    term_map = {e: ctx.decode(draw(st.integers(1, ctx.q - 1))) for e in exps}
    f = LaurentPoly.make(n, term_map, ctx)
    N_pi = draw(st.integers(1, 3))
    B = -(-N_pi // (ctx.p - 1)) + draw(st.integers(0, 2))
    return f, B, draw(st.integers(1, 3)), N_pi


def _doubled_first_factor(lifted):
    """_lifted_factors with the first exponent doubled: pi^1 then meets
    x^(2u), of degree 2, and entries fall below the valuation bound."""

    def doubled(*args, **kwargs):
        (c, u), *rest = lifted(*args, **kwargs)
        return [(c, tuple(2 * x for x in u)), *rest]

    return doubled


def _outcome(build):
    """The entries build() returns, as bare tuples, or the type of the
    error it raised."""
    try:
        return [[_bare(e) for e in row] for row in build()]
    except (TheoremViolation, DomainError) as exc:
        return type(exc)


@st.composite
def boxed_vectors(draw):
    """(bound, v, w, m): two vectors of one rank <= 3 with every coordinate
    in [-bound, bound], and a small multiplier."""
    bound = draw(st.integers(0, 6))
    coord = st.integers(-bound, bound)
    rank = draw(st.integers(1, 3))
    return bound, draw(st.tuples(*[coord] * rank)), draw(st.tuples(*[coord] * rank)), draw(
        st.integers(-3, 3)
    )


class TestLatticeCode:
    """The kernel's lattice code is injective and additive on its box."""

    @settings(max_examples=300, deadline=None)
    @given(boxed_vectors())
    # digits at the edge of the box: with a radix one short, (2, 0) and
    # (-2, 1) would share a code
    @example((2, (2, 0), (-2, 1), 1))
    @example((1, (1, -1, 1), (-1, 1, -1), -1))
    @example((3, (-3, 3, -3), (3, -3, 3), 2))
    @example((0, (0, 0), (0, 0), 3))
    def test_injective_and_additive_on_the_box(self, job):
        bound, v, w, m = job
        code = dwork._LatticeCode(len(v), bound)
        assert (code.enc(v) == code.enc(w)) == (v == w)
        assert code.enc(tuple(x + m * y for x, y in zip(v, w))) == code.enc(v) + m * code.enc(w)


class TestPrunedKernel:
    """The demand-driven kernel product against the full expansion."""

    @settings(max_examples=80, deadline=None)
    @given(operator_jobs(), st.booleans())
    @example((poly(SPERBER, p=3, a=2), 2, 2, 2), False)
    @example((poly(SPERBER, p=3), 2, 4, 3), True)
    @example((poly([(1,)], p=2, a=2), 3, 3, 3), False)
    @example((poly([(-2,), (1,)], p=2, a=2), 5, 2, 3), False)
    @example((poly([(-2,)], p=5), 1, 1, 1), True)
    def test_transfer_matrix_matches_full_expansion(self, job, doubled):
        # every entry's cap and coefficients, or the same error on both sides:
        # TheoremViolation for the doubled factor, DomainError past DIM_LIMIT
        f, B, M, N_pi = job
        lifted = dwork._lifted_factors
        if doubled:
            lifted = _doubled_first_factor(lifted)
        with mock.patch.object(dwork, "_lifted_factors", lifted):
            got = _outcome(lambda: psi_a_matrix(f, B, M, N_pi).entries)
            want = _outcome(lambda: oracle_transfer_entries(f, B, M, N_pi))
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(operator_jobs(), st.data())
    def test_kernel_digits_match_full_expansion(self, job, data):
        # any budget map: each wanted coefficient mod pi^budget, zeros left out
        f, B, M, N_pi = job
        dd = newton_data(f)
        factors = [
            fac for i in range(f.ctx.a) for fac in dwork._lifted_factors(f, dd, M, power_of_p=i)
        ]
        cap = N_pi + B + 1
        full = full_kernel_product(dd, f.ctx, factors, M, cap)
        keys = sorted(full) + [(7,) * dd.rank]  # and one the product may miss
        picked = data.draw(st.lists(st.sampled_from(keys), max_size=12, unique=True))
        budget = {v: data.draw(st.integers(1, cap)) for v in picked}
        want = {}
        for v, b in budget.items():
            if v in full:
                z = with_cap(full[v], b)
                if z.coeffs:
                    want[v] = z.coeffs
        # the least box holding the kernel's states and the picked keys
        bound = max((cap - 1) * dwork._box(u for _, u in factors), dwork._box(picked))
        code = dwork._LatticeCode(dd.rank, bound)
        tt = dwork._ZqScalars(f.ctx, M).to_tuple
        got = dwork._kernel_product(
            code, f.ctx, factors, M, {code.enc(v): b for v, b in budget.items()}
        )
        assert {c: {j: tt(x) for j, x in ser.items()} for c, ser in got.items()} == {
            code.enc(v): ser for v, ser in want.items()
        }


class TestTwoPaths:
    @pytest.mark.parametrize(
        "exps,p,a,k",
        [
            ([(1,)], 2, 1, 1),
            ([(1,)], 2, 1, 2),
            ([(3,)], 3, 1, 1),
            (SPERBER, 3, 1, 1),
            (SPERBER, 3, 1, 2),
            ([(1,)], 2, 2, 1),
            ([(1,)], 2, 2, 2),
            ([(2,), (1,)], 3, 1, 1),
            ([(2,), (1,)], 3, 1, 2),
        ],
    )
    def test_trace_formula(self, exps, p, a, k):
        f = poly(exps, p=p, a=a)
        Mx = psi_a_matrix(f, 2 if f.n > 1 else 4, 4, 2 if f.n > 1 else 4)
        chk = verify_trace_formula(Mx, f, k)
        assert chk["pass"]

    @pytest.mark.parametrize(
        "exps,p,a",
        [
            ([(1,)], 2, 1),
            ([(3,)], 2, 1),
            ([(3,)], 3, 1),
            ([(2,), (1,)], 5, 1),
            ([(2,), (1,)], 3, 1),
            (SPERBER, 3, 1),
            ([(1,)], 2, 2),
        ],
    )
    def test_char_series_matches_c_function(self, exps, p, a):
        f = poly(exps, p=p, a=a)
        Mx = psi_a_matrix(f, 2 if f.n > 1 else 4, 4, 2 if f.n > 1 else 4)
        cc = char_c_crosscheck(Mx, f, 2)
        assert cc["pass"], cc["mismatched_coefficients"]

    def test_char_series_matches_c_with_generator_coefficient(self):
        ctx = FieldContext(2, 2)
        f = LaurentPoly.make(1, {(1,): ctx.generator}, ctx)
        cc = char_c_crosscheck(psi_a_matrix(f, 4, 4, 4), f, 2)
        assert cc["pass"], cc["mismatched_coefficients"]

    @pytest.mark.parametrize("k", [1, 2])
    def test_trace_formula_with_generator_coefficient(self, k):
        ctx = FieldContext(2, 2)
        f = LaurentPoly.make(1, {(1,): ctx.generator}, ctx)
        assert verify_trace_formula(psi_a_matrix(f, 4, 4, 4), f, k)["pass"]

    @settings(max_examples=60, deadline=None)
    @given(operator_jobs())
    def test_routes_agree_on_random_supports(self, job):
        # both cross-checks against one matrix per input: the traces of
        # Mx and Mx^2, and det(1 - Mx*s) to s^2 (or the whole of it)
        f, B, M, N_pi = job
        try:
            Mx = psi_a_matrix(f, B, M, N_pi)
        except DomainError:  # past the dimension limit
            reject()
        for k in (1, 2):
            assert verify_trace_formula(Mx, f, k)["pass"], k
        cc = char_c_crosscheck(Mx, f, min(2, Mx.dim))
        assert cc["pass"], cc["mismatched_coefficients"]


class TestAdditiveSplitting:
    def test_power_of_kernel_splits_along_frobenius(self):
        # (1+T)^trace(c) at T = E(pi)-1 against prod_i E(pi c^(p^i))
        ctx = FieldContext(3, 2)
        M, N = 4, 6
        prec = M + binomial_guard(N, 3)
        ah = artin_hasse(3, N)
        x = ctx.generator
        for _ in range(ctx.q - 1):
            t = teichmuller_lift(ctx, x, prec)
            lhs = t_to_pi(one_plus_T_pow(ctx.zq_trace(t, prec), 3, M, N, prec), ah, ctx)
            rhs = e_factor(ah, ctx, t, M, N)
            rhs = rhs.mul(e_factor(ah, ctx, ctx.zq_pow(t, 3, M), M, N))
            assert lhs.agrees_with(rhs)
            x = ctx.mul(x, ctx.generator)

    def test_splitting_at_points_of_extension(self):
        # (1+T)^Tr(f(x)) over F_16 vs the four twisted kernel factors
        ctx = FieldContext(2, 2)
        f = LaurentPoly.make(1, {(2,): ctx.one(), (1,): ctx.generator}, ctx)
        k, M, N = 2, 3, 5
        prec = M + binomial_guard(N, 2)
        big = ctx.ext(k)
        phi = ctx.embed_into(big)
        ah = artin_hasse(2, N)
        lifted = [(teichmuller_lift(big, phi(c), prec), u[0]) for u, c in f.terms]
        x = big.generator
        for _ in range(5):
            xt = teichmuller_lift(big, x, prec)
            val = None
            for tc, u in lifted:
                term = big.zq_mul(tc, big.zq_pow(xt, u, prec), prec)
                val = term if val is None else big.zq_add(val, term, prec)
            lhs = t_to_pi(
                one_plus_T_pow(big.zq_trace(val, prec), 2, M, N, prec), ah, big
            )
            rhs = None
            for i in range(ctx.a * k):
                for tc, u in lifted:
                    c = big.zq_mul(
                        big.zq_pow(tc, 2**i, M),
                        big.zq_pow(big.zq_pow(xt, u, M), 2**i, M),
                        M,
                    )
                    fac = e_factor(ah, big, c, M, N)
                    rhs = fac if rhs is None else rhs.mul(fac)
            assert lhs.agrees_with(rhs)
            x = big.mul(x, big.generator)


class TestOrdinarinessCriterion:
    def test_diagonal_ordinary_when_residue_is_one(self):
        for d, p in [(2, 3), (3, 7), (4, 5)]:
            rep = ordinariness_determinants(poly([(d,)], p=p), d + 2, 4)
            assert all(rep["verdicts"])
            assert rep["block_sizes"][0] == 1 and rep["verdicts"][0]

    def test_cube_over_f2_fails(self):
        rep = ordinariness_determinants(poly([(3,)], p=2), 6, 4)
        assert rep["verdicts"] == (True, False, True, True, False, True, True)

    def test_sperber_ordinary(self):
        rep = ordinariness_determinants(poly(SPERBER, p=3), 3, 4)
        assert all(rep["verdicts"])
        assert rep["block_sizes"] == (1, 4, 10, 19)

    def test_extension_field_diagonal(self):
        ctx = FieldContext(2, 2)
        f = LaurentPoly.make(1, {(1,): ctx.generator}, ctx)
        rep = ordinariness_determinants(f, 3, 4)
        assert all(rep["verdicts"])

    def test_agrees_with_polygon_flag(self):
        # the determinant route and the certified-polygon route vote together
        cases = [
            ([(3,)], 7, True),
            ([(3,)], 2, False),
            ([(2,)], 3, True),
            ([(4,)], 5, True),
            ([(4,)], 7, False),
            (SPERBER, 3, True),
        ]
        for exps, p, ordinary in cases:
            f = poly(exps, p=p)
            rep = np_report(f, [], 3, 4, 12)
            od = ordinariness_determinants(f, 4, 4)
            assert all(od["verdicts"]) is ordinary
            assert rep["flags"]["t_ordinary"] == ("true" if ordinary else "false")


@st.composite
def criterion_jobs(draw):
    """(f, K, M) on a random support: p <= 5, a <= 2, n <= 2, up to three
    exponents in [-3, 3]^n (most such supports have D > 1), K <= 3*D."""
    ctx = field_context(draw(st.sampled_from([2, 3, 5])), draw(st.sampled_from([1, 2])))
    n = draw(st.integers(1, 2))
    exps = draw(
        st.lists(
            st.tuples(*[st.integers(-3, 3)] * n).filter(any), min_size=1, max_size=3, unique=True
        )
    )
    term_map = {e: ctx.decode(draw(st.integers(1, ctx.q - 1))) for e in exps}
    f = LaurentPoly.make(n, term_map, ctx)
    return f, draw(st.integers(0, 3 * newton_data(f).D)), draw(st.integers(1, 3))


def _oracle_report(f, K, M):
    """The criterion report from the full alpha map and Fraction degrees,
    plus the points, ring and matrix it came from."""
    dd = newton_data(f)
    pts, sc, mat = criterion_matrix(f, dd, K, M)
    minors = leading_minors(sc, mat)
    sizes = tuple(sum(1 for _, d in pts if d * dd.D <= k) for k in range(K + 1))
    verdicts = tuple(not sc.is_zero(minors[r]) for r in sizes)
    rep = {"depth": K, "denominator": dd.D, "M": M, "block_sizes": sizes, "verdicts": verdicts}
    return rep, pts, sc, mat


def _oracle_conjunction(f, K, pts, sc, mat):
    """Per cutoff, whether every open facial cone's block minor is nonzero,
    with carriers read from Fraction degrees."""
    dd = newton_data(f)
    blocks = {}
    for i, (ur, d) in enumerate(pts):
        if d > 0:
            carrier = frozenset(
                k
                for k, fc in enumerate(dd.facets_height)
                if Fraction(sum(a * b for a, b in zip(fc.normal, ur)), fc.offset) == d
            )
            blocks.setdefault(carrier, []).append(i)
    minors = {
        c: leading_minors(sc, [[mat[i][j] for j in idx] for i in idx]) for c, idx in blocks.items()
    }
    return tuple(
        all(
            not sc.is_zero(minors[c][sum(1 for i in idx if pts[i][1] * dd.D <= k)])
            for c, idx in blocks.items()
        )
        for k in range(K + 1)
    )


class TestCriterionLayer:
    """The exact-degree expansion against the full alpha map."""

    @settings(max_examples=60, deadline=None)
    @given(criterion_jobs())
    @example((poly([(2,), (-1,)], p=3), 6, 2))
    @example((poly([(2, 0), (0, 1), (-1, -1)], p=5), 5, 3))
    @example((poly([(3, 1), (-1, -2)], p=2, a=2), 15, 2))
    def test_matches_full_alpha_map(self, job):
        f, K, M = job
        dd = newton_data(f)
        try:
            whole, pts, sc, mat = _oracle_report(f, K, M)
        except DomainError:  # past the criterion dimension limit
            with pytest.raises(DomainError):
                _criterion_data(f, dd, K, M)
            return
        crit = _criterion_data(f, dd, K, M)
        assert crit.pts == tuple(ur for ur, _ in pts)
        assert crit.mat == mat
        assert ordinariness_determinants(f, K, M) == whole
        fr = facial_criterion(f, K, M)
        assert fr["whole"] == whole
        assert fr["conjunction"] == _oracle_conjunction(f, K, pts, sc, mat)
        assert len(fr["faces"]) == len(dd.facets_height)
        for fv, facet in zip(fr["faces"], dd.facets_height):
            f_face = restrict_to_face(f, dd, facet.points)
            K_face = int(Fraction(K, dd.D) * newton_data(f_face).D)
            want = _oracle_report(f_face, K_face, M)[0]
            assert {key: fv[key] for key in want} == want

    @settings(max_examples=40, deadline=None)
    @given(criterion_jobs())
    @example((poly([(2, 0), (0, 1), (-1, -1)], p=5), 5, 3))
    @example((poly([(1, 0), (1, 1)], p=2), 4, 1))
    def test_defects_match_direct_classification(self, job):
        # the input of the non-cofaciality check: None off the cone, else
        # D*(deg(p*w - u) + deg(u) - p*deg(w)) from Fraction degrees
        f, K, M = job
        dd = newton_data(f)
        try:
            crit = _criterion_data(f, dd, K, M)
        except DomainError:  # past the criterion dimension limit
            return
        p = f.ctx.p
        want = []
        for w in crit.pts:
            row = []
            for u in crit.pts:
                v = tuple(p * x - y for x, y in zip(w, u))
                if dd.in_cone_reduced(v):
                    defect = cofacial_defect(dd, from_reduced(dd, v), from_reduced(dd, u)) * dd.D
                    row.append(defect)
                else:
                    row.append(None)
            want.append(tuple(row))
        assert crit.defects == tuple(want)
        assert all(type(d) is int for row in crit.defects for d in row if d is not None)

    @pytest.mark.parametrize("criterion", [ordinariness_determinants, facial_criterion])
    def test_term_below_its_degree_raises(self, criterion, monkeypatch):
        # doubling a vertex exponent u puts pi^1 on x^(2u), of degree 2
        lifted = dwork._lifted_factors

        def doubled(*args):
            (c, u), *rest = lifted(*args)
            return [(c, tuple(2 * x for x in u)), *rest]

        monkeypatch.setattr(dwork, "_lifted_factors", doubled)
        with pytest.raises(IntegralityError, match="below its degree"):
            criterion(poly(SPERBER, p=3), 3, 4)


class TestFacialCriterion:
    @pytest.mark.parametrize("criterion", [ordinariness_determinants, facial_criterion])
    def test_no_p_digits_refused(self, criterion):
        with pytest.raises(DomainError, match="criterion job needs M >= 1"):
            criterion(poly(SPERBER, p=3), 3, 0)

    @pytest.mark.parametrize("criterion", [ordinariness_determinants, facial_criterion])
    def test_factor_above_degree_one_raises(self, criterion, monkeypatch):
        # at K = 0 the only cell is the origin, which the doubled term
        # pi x^(2u) never reaches: the factor check alone must catch it
        lifted = dwork._lifted_factors

        def doubled(*args):
            (c, u), *rest = lifted(*args)
            return [(c, tuple(2 * x for x in u)), *rest]

        monkeypatch.setattr(dwork, "_lifted_factors", doubled)
        with pytest.raises(IntegralityError, match="above 1"):
            criterion(poly(SPERBER, p=3), 0, 4)

    def test_sperber_faces(self):
        fr = facial_criterion(poly(SPERBER, p=3), 3, 4)
        assert all(fr["whole"]["verdicts"]) and all(fr["conjunction"])
        assert len(fr["faces"]) == 3
        seen = {fv["vertices"] for fv in fr["faces"]}
        assert ((0, 1), (1, 0)) in seen and ((-1, -1), (1, 0)) in seen
        for fv in fr["faces"]:
            assert all(fv["verdicts"])

    def test_single_face_mirrors_whole(self):
        # a monomial is its own leading face, so both runs share one matrix
        fr = facial_criterion(poly([(3,)], p=2), 6, 4)
        assert len(fr["faces"]) == 1
        assert fr["faces"][0]["vertices"] == ((3,),)
        assert fr["faces"][0]["verdicts"] == fr["whole"]["verdicts"]

    def test_leading_face_decides_one_variable(self):
        fr = facial_criterion(poly([(3,), (1,)], p=7), 6, 4)
        assert all(fr["whole"]["verdicts"])
        assert fr["faces"][0]["vertices"] == ((3,),)
        assert all(fr["faces"][0]["verdicts"])

    def test_conjunction_implies_whole(self):
        # per cutoff: a vanishing facial block forces the whole determinant
        # to vanish, never the other way around
        for exps, p in [([(3,)], 2), ([(2,), (1,)], 3), (SPERBER, 3)]:
            fr = facial_criterion(poly(exps, p=p), 3, 4)
            for ok, whole in zip(fr["conjunction"], fr["whole"]["verdicts"]):
                assert ok or not whole
