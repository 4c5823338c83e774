"""One contract over the sparse truncated-series core under TSeries and ZqPi.

Each check runs on TSeries (integer residues), ZqPi over Z_q with a = 1
and ZqPi with a = 2, built from the same integer residues.  The core owns
the store, the precision and cap windows, add/sub/neg/mul_int, coeff,
val_data and agrees_with, so TSeries and an a = 1 ZqPi must agree on all
of them; only the products differ, in their cap rule.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import with_cap
from tadic.arith import FieldContext
from tadic.dwork import ZqPi
from tadic.errors import DomainError, PrecisionError
from tadic.series import TSeries

P = 3
CTX1 = FieldContext(P, 1)
CTX2 = FieldContext(P, 2)

KINDS = {
    "TSeries": lambda prec, cap, cs: TSeries(P, prec, cap, cs),
    "ZqPi a=1": lambda prec, cap, cs: ZqPi(CTX1, prec, cap, {j: (c,) for j, c in cs.items()}),
    "ZqPi a=2": lambda prec, cap, cs: ZqPi(
        CTX2, prec, cap, {j: (c, 2 * c + 1) for j, c in cs.items()}
    ),
}
CAP_WORDS = {"TSeries": "exponents", "ZqPi a=1": "pi-digits", "ZqPi a=2": "pi-digits"}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return request.param


def test_constructor_guards(kind):
    mk = KINDS[kind]
    with pytest.raises(PrecisionError, match="no certified p-digits left"):
        mk(0, 4, {})
    with pytest.raises(PrecisionError, match=f"no certified {CAP_WORDS[kind]} left"):
        mk(2, 0, {})
    with pytest.raises(DomainError):
        mk(2, 4, {-1: 1})


def test_store_keeps_only_certified_nonzero_residues(kind):
    z = KINDS[kind](2, 4, {0: 1, 1: 0, 2: 9, 5: 1})
    assert set(z.coeffs) == ({0} if kind != "ZqPi a=2" else {0, 1, 2})
    assert z.val_data() == (Fraction(0), Fraction(4))


def test_windows_refuse_to_invent_or_empty(kind):
    z = KINDS[kind](2, 4, {1: 1})
    for shrink in (lambda: z.with_prec(0), lambda: with_cap(z, 0), lambda: z.with_prec(3)):
        with pytest.raises(PrecisionError):
            shrink()
    assert z.with_prec(1).prec == 1 and with_cap(z, 2).cap == 2


def test_reads_past_the_cap_raise(kind):
    z = KINDS[kind](2, 4, {1: 1})
    assert z.coeff(3) == z.zero_like().coeff(0)
    for j in (4, 5):
        with pytest.raises(PrecisionError):
            z.coeff(j)


def test_additive_laws(kind):
    mk = KINDS[kind]
    a, b = mk(3, 5, {0: 1, 2: 4}), mk(2, 4, {1: 7, 2: 5})
    assert a.add(a.neg()).is_zero() and a.sub(a).is_zero()
    assert a.add(b).agrees_with(b.add(a))
    assert a.add(b).prec == 2 and a.add(b).cap == 4
    assert a.mul_int(0).is_zero() and a.mul_int(1).agrees_with(a)
    assert a.one_like().is_one() and not a.is_one()
    assert a.agrees_with(with_cap(a, 1)) and not a.agrees_with(b)


residues = st.dictionaries(st.integers(0, 6), st.integers(-30, 30), max_size=5)
windows = st.tuples(st.integers(1, 3), st.integers(1, 7))


def _as_tseries(z: ZqPi) -> tuple:
    return z.prec, z.cap, {j: t[0] for j, t in z.coeffs.items()}


def _shape(t: TSeries) -> tuple:
    return t.prec, t.cap, t.coeffs


@settings(max_examples=80, deadline=None)
@given(windows, residues, windows, residues, st.integers(-5, 5))
def test_tseries_and_zqpi_a1_agree(wa, ca, wb, cb, k):
    ta, tb = TSeries(P, *wa, ca), TSeries(P, *wb, cb)
    za, zb = KINDS["ZqPi a=1"](*wa, ca), KINDS["ZqPi a=1"](*wb, cb)
    assert _shape(ta) == _as_tseries(za)
    assert _shape(ta.add(tb)) == _as_tseries(za.add(zb))
    assert _shape(ta.sub(tb)) == _as_tseries(za.sub(zb))
    assert _shape(ta.neg()) == _as_tseries(za.neg())
    assert _shape(ta.mul_int(k)) == _as_tseries(za.mul_int(k))
    assert ta.val_data() == za.val_data()
    assert ta.agrees_with(tb) == za.agrees_with(zb)
    assert [ta.coeff(j) for j in range(ta.cap)] == [za.coeff(j)[0] for j in range(za.cap)]


def test_products_differ_only_in_their_cap_rule():
    # TSeries cuts at the smaller cap; ZqPi at min(capA + ordB, capB + ordA)
    ta, tb = TSeries(P, 2, 3, {0: 1}), TSeries(P, 2, 5, {2: 1})
    za, zb = ZqPi(CTX1, 2, 3, {0: (1,)}), ZqPi(CTX1, 2, 5, {2: (1,)})
    assert ta.mul(tb).cap == 3 and za.mul(zb).cap == 5
    assert ta.mul(tb).coeffs == {2: 1} and za.mul(zb).coeffs == {2: (1,)}
