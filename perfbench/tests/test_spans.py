"""Self-time accounting of nested spans, and wrappers installed from outside largen."""

import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_child_spans_on_a_toy_tree():
    clock = FakeClock()
    rec = spans.Recorder(clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        leaf_span()
        clock.advance(1.0)
        leaf_span()

    def root():
        clock.advance(3.0)
        middle_span()

    leaf_span = rec.wrap("leaf", leaf)
    middle_span = rec.wrap("middle", middle)
    rec.wrap("root", root)()
    assert rec.stats["root"] == [1, 9.0, 3.0]
    assert rec.stats["middle"] == [1, 6.0, 2.0]
    assert rec.stats["leaf"] == [2, 4.0, 4.0]
    assert sum(s[2] for s in rec.stats.values()) == rec.stats["root"][1]


def test_recursion_counts_inclusive_time_once():
    clock = FakeClock()
    rec = spans.Recorder(clock)

    def fact(n):
        clock.advance(1.0)
        return 1 if n <= 1 else n * fact_span(n - 1)

    fact_span = rec.wrap("fact", fact)
    assert fact_span(4) == 24
    assert rec.stats["fact"] == [4, 4.0, 4.0]


def test_exceptions_still_close_the_span():
    clock = FakeClock()
    rec = spans.Recorder(clock)

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    wrapped = rec.wrap("boom", boom)
    try:
        wrapped()
    except KeyError:
        pass
    assert rec.stats["boom"] == [1, 1.0, 1.0]
    assert rec._covered == [1.0]


def test_install_reports_missing_targets_and_counts_real_calls():
    from fractions import Fraction

    from largen.polys import Poly, RationalFunc

    original_gcd = Poly.__dict__["gcd"]
    original_mul = RationalFunc.__dict__["__mul__"]
    rec = spans.Recorder()
    layers = {"polys.gcd": ("polys:Poly.gcd",),
              "polys.ratfunc_mul": ("polys:RationalFunc.__mul__",),
              "gone": ("polys:NoSuchRing.__add__", "nosuchmodule:f")}
    try:
        present, missing = spans.install(rec, layers)
        assert present == {"polys.gcd", "polys.ratfunc_mul"}
        assert missing == ["polys:NoSuchRing.__add__", "nosuchmodule:f"]
        x = RationalFunc(Poly((Fraction(1), Fraction(1))))
        before = rec.stats["polys.gcd"][0]
        x * x
        assert rec.stats["polys.ratfunc_mul"][0] == 1
        assert rec.stats["polys.gcd"][0] > before
    finally:
        Poly.gcd = original_gcd
        RationalFunc.__mul__ = original_mul


def test_module_function_is_replaced_in_every_importer():
    import largen.onecut
    import largen.phase

    original = largen.phase.solve_one_cut
    rec = spans.Recorder()
    try:
        spans.install(rec, {"phase.solve_one_cut": ("phase:solve_one_cut",)})
        assert largen.onecut.solve_one_cut is largen.phase.solve_one_cut is not original
    finally:
        largen.phase.solve_one_cut = largen.onecut.solve_one_cut = original
