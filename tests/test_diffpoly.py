"""Tests for the differential-polynomial algebra."""

from fractions import Fraction as F
from functools import reduce
from math import gcd
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from largen.diffpoly import _LAYOUT, DiffPoly, XRelation, _normalize_monomial, own_layout
from largen.mpolys import MPoly
from largen.onecut import find_critical, scaled_series
from largen.polys import Poly, RationalFunc
from largen.potential import Potential, parse_potential
from largen.twocut import find_merging, symmetric_scaled_series

u = DiffPoly.var("u")
ux = DiffPoly.var("u", 1)
uxx = DiffPoly.var("u", 2)
v = DiffPoly.var("v")
w = DiffPoly.var("w")


def test_basic_arithmetic_and_equality():
    assert u + u == 2 * u
    assert (u + v) * (u - v) == u * u - v * v
    assert (u - u).is_zero()
    assert u * 0 == DiffPoly.zero()
    assert DiffPoly.const(F(1, 2)) + DiffPoly.const(F(1, 2)) == DiffPoly.const(1)


def test_monomials_merge_exponents():
    m = u * u * ux
    assert m.total_degree() == 3
    assert m.max_order() == 1
    assert m.max_order("u") == 1
    assert m.coefficient((("u", 0, 2), ("u", 1, 1))) == 1
    assert m.constant_term() == 0 and type(m.constant_term()) is F


def test_d_dx_product_rule():
    assert (u * u).d_dx() == 2 * u * ux
    assert (u * uxx).d_dx() == ux * uxx + u * DiffPoly.var("u", 3)
    assert DiffPoly.const(5).d_dx().is_zero()
    assert (u**3).d_dx() == 3 * u * u * ux


def test_partial():
    f = u * u * uxx
    assert f.partial("u", 2) == u * u
    assert f.partial("u", 0) == 2 * u * uxx
    assert f.partial("v", 0).is_zero()


def test_substitute_with_chain_rule():
    assert (u * u).substitute({"u": DiffPoly.var("v", 1)}) == DiffPoly.var("v", 1) ** 2
    # u_x under u -> v² becomes 2 v v_x
    got = ux.substitute({"u": v * v})
    assert got == 2 * v * DiffPoly.var("v", 1)
    # untouched variables pass through
    assert (u * w).substitute({"u": v}) == v * w


def test_ratfunc_and_poly_coefficients_are_refused():
    # coefficients are Fractions only: a parameter enters as a number
    for bad in (RationalFunc.var(), RationalFunc.const(2), Poly.const(2), Poly.x(), 0.5):
        with pytest.raises(TypeError):
            DiffPoly({(("u", 0, 1),): bad})
        with pytest.raises(TypeError):
            DiffPoly.const(bad)
        with pytest.raises(TypeError):
            u * bad
        with pytest.raises(TypeError):
            u + bad


def test_render_text_and_latex():
    f = 2 * DiffPoly.var("u", 4) + 3 * u * uxx + u**3
    s = f.render()
    assert s == "2*u_xxxx + 3*u*u_xx + u^3"
    assert f.render(latex=True) == "2 u_{xxxx} + 3 u u_{xx} + u^{3}"
    g = DiffPoly.const(F(-1, 2)) * uxx - u
    assert g.render() == "(-1/2)*u_xx - u"
    assert DiffPoly.var("u", 5).render() == "u^(5)"


def test_to_json_structure():
    f = DiffPoly.const(F(3, 4)) * uxx - 2 * u * ux
    assert f.to_json() == [
        {"coeff": "3/4", "factors": [["u", 2, 1]]},
        {"coeff": "-2", "factors": [["u", 0, 1], ["u", 1, 1]]},
    ]


def test_xrelation_normalize_and_render():
    rel = XRelation(
        DiffPoly.const(F(3, 2)) * ux,
        DiffPoly.const(F(-1, 2)),
    )
    norm = rel.normalize()
    assert norm.p == 3 * ux
    assert norm.q == DiffPoly.const(-1)
    assert norm.render() == "3*u_x - x = 0"
    # x-coefficient that is itself a polynomial
    rel2 = XRelation(2 * uxx, -u).normalize()
    assert rel2.render() == "2*u_xx - x*(u) = 0"


# -- the coefficient ring: ℚ, against a term-by-term reference ------------------

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
monos = st.lists(
    st.tuples(st.sampled_from("uv"), st.integers(0, 2), st.integers(1, 2)), max_size=2
).map(_normalize_monomial)
term_dicts = st.dictionaries(monos, fracs, max_size=4)
rational = term_dicts.map(DiffPoly)
# the two other IntTable rings, for the product and sum they share
univariate = st.lists(fracs, max_size=5).map(Poly)
bivariate = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), fracs, max_size=4
).map(lambda terms: MPoly(2, terms))
tables = st.one_of(rational, univariate, bivariate)


def ref_collect(pairs) -> dict:
    out: dict = {}
    for m, c in pairs:
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def ref_d_dx(a: dict) -> dict:
    pairs = []
    for mono, c in a.items():
        for idx, (n, o, e) in enumerate(mono):
            bumped = list(mono)
            bumped[idx] = (n, o, e - 1)
            pairs.append((_normalize_monomial(bumped + [(n, o + 1, 1)]), c * e))
    return ref_collect(pairs)


def ref_json(a: dict) -> list:
    key = lambda kv: DiffPoly._mono_sort_key(kv[0])  # noqa: E731
    return [
        {"coeff": str(c), "factors": [[n, o, e] for n, o, e in m]}
        for m, c in sorted(a.items(), key=key, reverse=True)
    ]


def ref_times(a: dict, b: dict, join=lambda m1, m2: _normalize_monomial(m1 + m2)) -> dict:
    """The convolution a·b, outer loop over a, monomials multiplied by ``join``."""
    return ref_collect((join(m1, m2), c1 * c2) for m1, c1 in a.items() for m2, c2 in b.items())


def ref_pow(a: dict, n: int) -> dict:
    """a**n by the square-and-multiply order of ``IntTable.__pow__``."""
    result, base = {(): F(1)}, a
    while n:
        if n & 1:
            result = ref_times(result, base)
        n >>= 1
        if n:
            base = ref_times(base, base)
    return result


def ref_partial(a: dict, name: str, order: int) -> dict:
    return ref_collect(
        (_normalize_monomial(mono[:i] + ((n, o, e - 1),) + mono[i + 1 :]), c * e)
        for mono, c in a.items()
        for i, (n, o, e) in enumerate(mono)
        if (n, o) == (name, order)
    )


def ref_substitute(a: dict, mapping: dict) -> dict:
    out: dict = {}
    for mono, c in a.items():
        term = {(): c}
        for n, o, e in mono:
            image = mapping.get(n, {((n, 0, 1),): F(1)})
            for _ in range(o):
                image = ref_d_dx(image)
            term = ref_times(term, ref_pow(image, e))
        out = ref_collect([*out.items(), *term.items()])
    return out


def only_fractions(p: DiffPoly) -> bool:
    return all(type(c) is F for c in p.terms.values())


def in_lowest_terms(p: DiffPoly) -> bool:
    """The stored form: nonzero int numerators over den > 0, gcd 1."""
    return (
        type(p.den) is int and p.den > 0 and gcd(p.den, *p.nums.values()) == 1
        and all(type(n) is int and n for n in p.nums.values())
    )


@given(a=rational, b=rational)
@settings(max_examples=60, deadline=None)
def test_rational_coefficients_match_reference(a, b):
    ra, rb = dict(a.terms), dict(b.terms)
    assert (a + b).to_json() == ref_json(ref_collect([*ra.items(), *rb.items()]))
    assert (a * b).to_json() == ref_json(ref_times(ra, rb))
    assert a.d_dx().to_json() == ref_json(ref_d_dx(ra))
    assert a.partial("u", 1).to_json() == ref_json(ref_partial(ra, "u", 1))
    # ints and Fractions are one coefficient, and every result is over ℚ,
    # stored in lowest terms
    assert a * 2 == a * F(2) and hash(a * 2) == hash(a * F(2))
    results = (a, a + b, a - b, a * b, a.d_dx(), a.partial("u", 1), -a, a * 3, a * F(-2, 3),
               a * 0, a + F(1, 6), b.substitute({"u": a}))
    assert all(only_fractions(p) and in_lowest_terms(p) for p in results)
    assert (a * 0).den == 1


@given(a=rational, k=st.integers(-4, 4))
@settings(max_examples=40, deadline=None)
def test_int_and_fraction_scalars_agree(a, k):
    for op in (
        lambda p, c: p + c, lambda p, c: c + p, lambda p, c: p - c, lambda p, c: c - p,
        lambda p, c: p * c, lambda p, c: c * p, lambda p, c: DiffPoly.const(c) * p,
    ):
        got, want = op(a, k), op(a, F(k))
        assert got == want and hash(got) == hash(want)
        assert in_lowest_terms(got)
    assert a + 0 is a and a + F(0) is a and 0 + a is a and a + DiffPoly.zero() is a


def test_double_scaled_engines_run_over_q():
    bmp = Potential.bmp()
    sc = scaled_series(bmp, find_critical(bmp)[0], 4)
    polys = [p for rel in sc.ladder for p in (rel.p, rel.q)]
    polys += [p for o in sc.orders for p in o.poles]
    quartic = parse_potential("quartic:-2,1")
    sym = symmetric_scaled_series(quartic, find_merging(quartic)[0], 5)
    polys += [p for rel in sym.ladder for p in (rel.p, rel.q)]
    polys += [p for o in sym.orders for p in (o.C, *o.A, *o.B)]
    assert sum(len(p.terms) for p in polys) > 100
    assert all(only_fractions(p) and in_lowest_terms(p) for p in polys)


# -- packed keys: the tuple reference in ``terms`` order, overflow, field order --


@given(a=rational, b=rational, k=fracs, n=st.integers(0, 3), p=univariate, q=univariate,
       r=bivariate, s=bivariate)
@settings(max_examples=60, deadline=None)
def test_packed_keys_agree_with_the_tuple_reference_in_terms_order(a, b, k, n, p, q, r, s):
    ra, rb = a.terms, b.terms
    exponents = lambda e1, e2: tuple(map(add, e1, e2))  # noqa: E731
    cases = (
        (a + b, ref_collect([*ra.items(), *rb.items()])),
        (a - b, ref_collect([*ra.items(), *((m, -c) for m, c in rb.items())])),
        (a * b, ref_times(ra, rb)),
        (a * k, ref_times(ra, {(): k})),
        (a**n, ref_pow(ra, n)),
        (a.d_dx(), ref_d_dx(ra)),
        (a.d_dx(2), ref_d_dx(ref_d_dx(ra))),
        (a.partial("u", 1), ref_partial(ra, "u", 1)),
        (a.partial("v", 0), ref_partial(ra, "v", 0)),
        (a.substitute({"u": b}), ref_substitute(ra, {"u": rb})),
        # the one product of all three rings, on Poly's powers and MPoly's exponents
        (p * q, ref_times(p.terms, q.terms, add)),
        (p * k, ref_times(p.terms, {0: k}, add)),
        (p + q, ref_collect([*p.terms.items(), *q.terms.items()])),
        (r * s, ref_times(r.terms, s.terms, exponents)),
        (r * k, ref_times(r.terms, {(0, 0): k}, exponents)),
        (r + s, ref_collect([*r.terms.items(), *s.terms.items()])),
    )
    for got, want in cases:
        assert list(got.terms.items()) == list(want.items())


@given(a=tables, k=fracs)
@settings(max_examples=60, deadline=None)
def test_no_op_operands_build_no_table(a, k):
    one, zero = a._scalar(1), a._scalar(0)
    assert a * 1 is a and 1 * a is a and a * F(1) is a and a * one is a
    assert one * a is a or set(a.nums) <= {0}  # of two constants, either may scale
    assert (a * 0).is_zero() and (a * zero).is_zero() and (zero * a).is_zero()
    assert -zero is zero and a - 0 is a and a - F(0) is a and a - zero is a
    # a scalar or a constant table scales a's table, in a's key order
    scaled = [(m, c * k) for m, c in a.terms.items() if k]
    for got in (a * k, k * a, a * a._scalar(k), a._scalar(k) * a):
        assert list(got.terms.items()) == scaled and type(got) is type(a)


@given(ps=st.one_of(*(st.lists(ring, min_size=1, max_size=5)
                      for ring in (rational, univariate, bivariate))))
@settings(max_examples=60, deadline=None)
def test_one_pass_sum_is_the_left_fold_of_plus(ps):
    # the negated operands cancel keys that the last one brings back, at the end
    ps = [*ps, *(-p for p in ps[:2]), ps[0]]
    want = reduce(add, ps)
    for got in (ps[0].sum(*ps[1:]), ps[0]._scalar(0).sum(*ps)):  # a zero start is skipped
        assert got == want and list(got.terms.items()) == list(want.terms.items())


# a one-variable MPoly, whose table a Poly shares
univariate_mpoly = st.dictionaries(
    st.tuples(st.integers(0, 4)), fracs, max_size=4
).map(lambda terms: MPoly(1, terms))


@given(data=st.data(), ring=st.sampled_from((rational, univariate, univariate_mpoly, bivariate)))
@settings(max_examples=80, deadline=None)
def test_one_pass_difference_is_the_sum_with_the_negation(data, ring):
    a, b = data.draw(ring), data.draw(ring)
    zero, k = a._scalar(0), data.draw(fracs)
    # b's keys cancel in a + b - b and a - a, and none is left of zero - b
    for x, y in ((a, b), (b, a), (a + b, b), (a, a), (zero, b), (a, zero), (a, k), (a, a._scalar(k))):
        got, want = x - y, x + (-y)
        assert got == want and got.den == want.den
        assert list(got.nums.items()) == list(want.nums.items())


def test_sum_takes_its_operands_as_plus_does():
    # an operand of another class or ring goes through _coerce, as in +: a
    # key of another arity or layout means another monomial
    with pytest.raises(ValueError):  # as + raises (test_polys.py::test_mpoly_arity_mismatch)
        MPoly.var(1, 0).sum(MPoly.var(2, 0))
    with pytest.raises(TypeError):
        Poly((1, 2)).sum(MPoly.var(1, 0))
    with pytest.raises(TypeError):
        Poly((1, 2)) + MPoly.var(1, 0)
    assert Poly((1, 2)).sum(3, F(1, 2)) == Poly((1, 2)) + 3 + F(1, 2)
    with own_layout():
        other = DiffPoly.var("a jet only this layout has") + u
    got, want = u.sum(other), u + other
    assert got == want and got.layout is u.layout
    assert list(got.terms.items()) == list(want.terms.items())


def reversed_layout_copy(terms: dict) -> DiffPoly:
    """DiffPoly(terms) in a new layout whose fields give v and u, highest order
    first, the reverse of the process's first use."""
    with own_layout() as layout:
        for name in "vu":
            for order in range(6, -1, -1):
                layout.field(name, order)
        return DiffPoly(terms)


@given(ta=term_dicts, tb=term_dicts, k=fracs)
@settings(max_examples=60, deadline=None)
def test_algebra_across_layouts_agrees_with_one_layout(ta, tb, k):
    a, b = DiffPoly(ta), DiffPoly(tb)
    a2 = reversed_layout_copy(ta)
    layouts = (a2.layout, b.layout)
    jets = [len(layout.jets) for layout in layouts]
    assert (a2 == a) and (a == a2) and hash(a2) == hash(a)
    assert (a2 == b) == (a == b) and (b != a2) == (b != a)
    assert [len(layout.jets) for layout in layouts] == jets
    cases = (
        (a2 + b, a + b), (b + a2, b + a), (a2 - b, a - b), (b - a2, b - a),
        (a2 * b, a * b), (b * a2, b * a), (a2 * k - b, a * k - b), (a2**2 * b, a**2 * b),
        ((a2 * b).d_dx(), (a * b).d_dx()), (a2.d_dx(2), a.d_dx(2)),
        (a2.substitute({"u": b}), a.substitute({"u": b})),
        (b.substitute({"v": a2}), b.substitute({"v": a})),
    )
    for got, want in cases:
        assert got.terms == want.terms and got.to_json() == want.to_json()
        assert got == want and want == got and hash(got) == hash(want)
    # a result keeps its first table operand's layout
    assert (a2 + b).layout is a2.layout and (b * a2).layout is b.layout
    assert a2.substitute({"u": b}).layout is a2.layout


def test_exponents_outside_the_fields_are_refused():
    for bad in (-1, F(3, 2), 1.0, 2**31):
        with pytest.raises(ValueError):
            DiffPoly({(("u", 0, bad),): 1})
    with pytest.raises(ValueError):  # two factors of one jet sum past its field
        DiffPoly({(("u", 0, 2**30), ("u", 0, 2**30)): 1})
    with pytest.raises(ValueError):
        DiffPoly.var("u", -1)
    top = 2**31 - 1
    assert DiffPoly({(("u", 0, top),): 1}).terms == {(("u", 0, top),): F(1)}


def test_exponents_never_alias_into_the_next_jet():
    top = DiffPoly({(("u", 0, 2**31 - 1),): 1})
    with pytest.raises(OverflowError):
        top * u
    with pytest.raises(OverflowError):
        u ** 2**31
    with pytest.raises(OverflowError):  # d/dx moves u's power onto the full u_x field
        (DiffPoly({(("u", 1, 2**31 - 1),): 1}) * u).d_dx()
    assert (top * v).terms == {(("u", 0, 2**31 - 1), ("v", 0, 1)): F(1)}
    assert top.d_dx().terms == {(("u", 0, 2**31 - 2), ("u", 1, 1)): F(2**31 - 1)}
    assert u.partial("a jet no table has met", 0).is_zero()


def test_reading_a_coefficient_registers_no_jet():
    jets = len(_LAYOUT.get().jets)
    assert DiffPoly.const(1).coefficient((("a jet only read", 3, 1),)) == 0
    assert len(_LAYOUT.get().jets) == jets
    assert (u * u).coefficient((("u", 0, 2),)) == 1 and u.coefficient((("u", 0, 2),)) == 0
    with pytest.raises(ValueError):
        u.coefficient((("a jet only read", 0, 2**31),))
    assert len(_LAYOUT.get().jets) == jets
    # nor does == or a hash across layouts, whatever jets the other one has
    with own_layout() as other:
        only_other = DiffPoly.var("a jet only the other layout has") * 2
        same_u = DiffPoly.var("u") * 2
    assert only_other != u * 2 and u * 2 != only_other and not only_other == u * 2
    assert same_u == u * 2 and u * 2 == same_u and hash(same_u) == hash(u * 2)
    assert len(_LAYOUT.get().jets) == jets and len(other.jets) == 2


def test_negative_derivative_counts_are_refused():
    with pytest.raises(ValueError):
        u.d_dx(-1)
    assert u.d_dx(0) is u


# the double-scaled documents: scaled_series(bmp, K=5), the symmetric series of
# quartic:-2,1 at K=7 and the crosscheck at each exact critical or merging point
DOCUMENTS = """
import json
from largen.onecut import find_critical, scaled_series
from largen.painleve import crosscheck_via_series
from largen.potential import parse_potential
from largen.twocut import find_merging, symmetric_scaled_series


def documents() -> str:
    bmp, quartic = parse_potential("bmp"), parse_potential("quartic:-2,1")
    sc = scaled_series(bmp, find_critical(bmp)[0], 5)
    sym = symmetric_scaled_series(quartic, find_merging(quartic)[0], 7)
    doc = {"scaled": [rel.to_json() for rel in sc.ladder],
           "poles": [[p.to_json() for p in o.poles] for o in sc.orders],
           "symmetric": [rel.to_json() for rel in sym.ladder],
           "sym_poles": [[p.to_json() for p in (o.C, *o.A, *o.B)] for o in sym.orders]}
    for name, find in (("sextic:42,-11,1", find_critical), ("bmp", find_critical),
                       ("quartic:-2,1", find_merging), ("sextic:-6,-3,1", find_merging)):
        g = parse_potential(name)
        report = crosscheck_via_series(g, find(g)[0])
        doc[name] = [report.member.to_json(), report.derived.to_json()]
    return json.dumps(doc, ensure_ascii=False)
"""


def test_outputs_do_not_depend_on_jet_registration_order(run_under_O):
    # a fresh interpreter gives the fields in the reverse of their usual order:
    # every jet the documents meet, highest order and last name first, in the
    # process's layout and in each new one that a solve or recursion runs in
    out = run_under_O(
        """
from largen import diffpoly
from largen.diffpoly import DiffPoly, _Layout, own_layout
names = ["u", "v", *(f"r{k}" for k in range(1, 6)), *(f"a{k}" for k in range(1, 8))]
init = _Layout.__init__
def reversed_init(self):
    init(self)
    for name in reversed(names):
        for order in range(12, -1, -1):
            self.field(name, order)
_Layout.__init__ = reversed_init
reversed_init(diffpoly._LAYOUT.get())
with own_layout() as layout:
    print(*diffpoly._LAYOUT.get().jets[0], *layout.jets[0])
"""
        + DOCUMENTS
        + "\nprint(documents())\n"
    )
    first, docs = out.rstrip("\n").split("\n")
    assert first == "a7 12 a7 12"
    ns: dict = {}
    exec(DOCUMENTS, ns)
    assert docs == ns["documents"]()


# scaled_series(bmp, K=6) timed in a fresh interpreter that first gave fields
# to the given number of unrelated jets; the best of three solves
HISTORY = """
import time
from largen.diffpoly import DiffPoly
from largen.onecut import _scaled, find_critical, scaled_series
from largen.potential import parse_potential
for i in range({jets}):
    DiffPoly.var(f"unrelated{{i}}")
bmp = parse_potential("bmp")
crit, best = find_critical(bmp)[0], float("inf")
for _ in range(3):
    _scaled.cache_clear()
    start = time.process_time()
    scaled_series(bmp, crit, 6)
    best = min(best, time.process_time() - start)
print(best)
"""


def test_jets_the_process_met_before_leave_a_solve_cost_alone(run_under_O):
    # the solve gives fields only to the jets it meets, so 2,000 jets given
    # fields first widen none of its keys, nor of the result, which keeps the
    # solve's layout.  Sharing one layout, it ran 13 to 19 times slower.
    fresh = float(run_under_O(HISTORY.format(jets=0)))
    after = float(run_under_O(HISTORY.format(jets=2000)))
    assert after <= 3 * fresh, (fresh, after)


# the widest key among the double-scaled and Painlevé results, in a fresh
# interpreter that first gave fields to the given number of unrelated jets:
# the ladders and pole tables of both series, R_4, and each crosscheck's derived
# relation and emitted member
WIDTHS = """
from largen.diffpoly import DiffPoly
from largen.onecut import find_critical, scaled_series
from largen.painleve import crosscheck_via_series, gelfand_dikii
from largen.potential import parse_potential
from largen.twocut import find_merging, symmetric_scaled_series
for i in range({jets}):
    DiffPoly.var(f"unrelated{{i}}")
bmp, quartic = parse_potential("bmp"), parse_potential("quartic:-2,1")
sc = scaled_series(bmp, find_critical(bmp)[0], 8)
sym = symmetric_scaled_series(quartic, find_merging(quartic)[0], 10)
polys = [p for series in (sc, sym) for rel in series.ladder for p in (rel.p, rel.q)]
polys += [p for o in sc.orders for p in o.poles]
polys += [p for o in sym.orders for p in (o.C, *o.A, *o.B)]
polys.append(gelfand_dikii(4).unit)
for name, find in (("sextic:42,-11,1", find_critical), ("bmp", find_critical),
                   ("quartic:-2,1", find_merging), ("sextic:-6,-3,1", find_merging)):
    g = parse_potential(name)
    report = crosscheck_via_series(g, find(g)[0])
    rels = (report.derived, report.member.equation)
    polys += [p for rel in rels for p in (rel.p, rel.q)]
print(max(key.bit_length() for p in polys for key in p.nums))
"""


def test_jets_the_process_met_before_widen_no_result_key(run_under_O):
    # each result keeps the layout it was built in, so the caller's 5,000
    # jets widen none of its keys (2,177 bits here); re-encoded into the
    # caller's layout, the widest was 163,457 bits, against 3,457 fresh
    fresh = int(run_under_O(WIDTHS.format(jets=0)))
    assert int(run_under_O(WIDTHS.format(jets=5000))) == fresh


# symmetric_scaled_series(quartic:-2,1, K=10) timed in a fresh interpreter,
# best of three, each from an empty memo: alone, or after the caller of a K = 4
# series, forked from the held solve, added the given number of new jets to its
# ``ladder[4].p`` by sums; prints the time and the widest key of the K = 10
# ladder and pole tables
GROWN = """
import time
from largen.diffpoly import DiffPoly
from largen.potential import parse_potential
from largen.twocut import _symmetric, find_merging, symmetric_scaled_series
quartic = parse_potential("quartic:-2,1")
point, best = find_merging(quartic)[0], float("inf")
for _ in range(3):
    _symmetric.cache_clear()
    if {jets}:
        p = symmetric_scaled_series(quartic, point, 4).ladder[4].p
        for i in range({jets}):
            p = p + DiffPoly.var(f"z{{i}}")
        if len(p.layout.jets) <= {jets}:
            raise SystemExit("the sums gave the held layout no new jet")
    start = time.process_time()
    sym = symmetric_scaled_series(quartic, point, 10)
    best = min(best, time.process_time() - start)
polys = [q for rel in sym.ladder for q in (rel.p, rel.q)]
polys += [q for o in sym.orders for q in (o.C, *o.A, *o.B)]
print(best, max(key.bit_length() for q in polys for key in q.nums))
"""


def test_a_held_solve_grown_by_its_caller_is_not_extended_in_place(run_under_O):
    # a caller may still grow a handed-out result's layout, which is the held
    # solve's; the next new K then solves afresh in a new layout, so it costs
    # a fresh solve and its keys are as wide as fresh.  Forked in the grown
    # layout, every new key would lie past the caller's 2,000 jets
    fresh, fresh_bits = run_under_O(GROWN.format(jets=0)).split()
    after, after_bits = run_under_O(GROWN.format(jets=2000)).split()
    assert float(after) <= 3 * float(fresh), (fresh, after)
    assert after_bits == fresh_bits
