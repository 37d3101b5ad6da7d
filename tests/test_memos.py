"""The process-global memos of the large-N entry points.  The regular
expansions and the one-cut double-scaled series keep their finished output
per (potential, K) or (potential, point, K), and a miss solves orders 0..K on
a ``wring.Defect`` built for that call alone.  The merging-point series holds
one solve per (potential, point) one order short of its least K, and a call
at a new K extends a fork of it, on a defect of its own, so its cost is that
of its K alone.  Phase classification keeps the two-cut elimination per
potential.  No output may depend on what the process computed before, a hit
builds no defect, no lattice or defect outlives its call or its memo entry,
and a call that raises leaves nothing behind: no output, and no held solve.
The tables the package docstring names and two constant tables are the only
module-level tables of the package."""

import gc
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from contextvars import ContextVar
from fractions import Fraction as F
from pathlib import Path

import pytest

import largen
from largen import onecut, painleve, phase, twocut, wring
from largen.diffpoly import DiffPoly, own_layout
from largen.errors import Mismatch
from largen.onecut import expand_regular, find_critical, scaled_series, u_series_coefficients
from largen.painleve import crosscheck_via_series, gelfand_dikii, pii_hierarchy
from largen.phase import classify_phase
from largen.potential import parse_potential
from largen.scalars import rationalize
from largen.twocut import expand_two_cut_regular, find_merging, symmetric_scaled_series

QUARTIC = parse_potential("quartic:1,1")
MERGING = parse_potential("quartic:-2,1")
BMP = parse_potential("bmp")
DOUBLE_WELL = parse_potential("sextic:-6,-3,1")
# two cuts below the merging temperature T = 12, one cut from there on
PHASE_GRID = (2, 6, 10, 12, 14, 20)
HERE = Path(__file__).resolve().parent

# kind -> (memo, orders asked for)
KINDS = {
    "one-cut": (onecut._regular, (1, 2, 3)),
    "two-cut": (twocut._two_cut, (0, 1, 2)),
    "scaled": (onecut._scaled, (3, 4, 5)),
    "merged": (twocut._symmetric, (3, 4, 5)),
}
# the orders a double-scaled ladder asks for in one process
LADDERS = {"scaled": range(3, 9), "merged": range(3, 11)}
DOUBLE_SCALED = sorted(LADDERS)
# the kinds whose memo entry holds a solve per point, not an output per K
HELD = ("merged",)


def document(kind: str, K: int) -> str:
    """The rendered output of ``kind``'s entry point at order K."""
    if kind == "one-cut":
        tables = u_series_coefficients(QUARTIC, K=K)
        doc = {
            "expansion": expand_regular(QUARTIC, F(2), K).to_json(),
            "poles": [[p.render("r0") for p in o.poles] for o in tables],
        }
    elif kind == "two-cut":
        doc = expand_two_cut_regular(MERGING, F(3, 4), K, 30).to_json(30)
    elif kind == "scaled":
        sc = scaled_series(BMP, find_critical(BMP)[0], K)
        doc = {
            "ladder": [rel.to_json() for rel in sc.ladder],
            "poles": [[p.to_json() for p in o.poles] for o in sc.orders],
        }
    else:
        sc = symmetric_scaled_series(MERGING, find_merging(MERGING)[0], K)
        doc = {
            "ladder": [rel.to_json() for rel in sc.ladder],
            "poles": [[o.C.to_json(), [a.to_json() for a in o.A], [b.to_json() for b in o.B]]
                      for o in sc.orders],
        }
    return json.dumps(doc, ensure_ascii=False)


def _exact(x):
    return None if x is None else str(rationalize(x))


def phase_document(T) -> str:
    """``classify_phase(DOUBLE_WELL, T)`` with every number as its exact value."""
    p = classify_phase(DOUBLE_WELL, F(T), 30)
    return json.dumps({"s": p.s, "status": p.status, "note": p.note,
                       "endpoints": [_exact(e) for e in p.endpoints],
                       "point": [_exact(x) for x in (p.r0, p.a0, p.b0)],
                       "h": [_exact(c) for c in p.h_coeffs()],
                       "alternates": len(p.alternates)})


def fresh_documents() -> dict:
    """Every kind's documents, each from a solve made for that call alone,
    and each grid point's classification from an empty elimination memo."""
    out = {}
    for kind, (memo, orders) in KINDS.items():
        for K in sorted({*orders, *LADDERS.get(kind, ())}):
            memo.cache_clear()
            out[f"{kind}:{K}"] = document(kind, K)
    for T in PHASE_GRID:
        phase._branch_elimination.cache_clear()
        out[f"phase:{T}"] = phase_document(T)
    return out


@pytest.fixture(scope="module")
def reference():
    """``fresh_documents`` as a fresh interpreter computes them."""
    code = "import json, test_memos; print(json.dumps(test_memos.fresh_documents()))"
    path = os.pathsep.join([str(HERE), str(HERE.parent / "src")])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=300, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def site(kind: str) -> tuple:
    """The potential and point of a double-scaled kind."""
    return (BMP, find_critical(BMP)[0]) if kind == "scaled" else (MERGING, find_merging(MERGING)[0])


def held(kind: str):
    """The memo entry of a held kind's point: its ``HeldSolve``."""
    return KINDS[kind][0](*site(kind))


def series(kind: str, K: int):
    """A double-scaled kind's series at order K."""
    call = scaled_series if kind == "scaled" else symmetric_scaled_series
    return call(*site(kind), K)


def crosscheck(kind: str) -> None:
    assert crosscheck_via_series(*site(kind)).matches()


# crosscheck_via_series runs only the double-scaled engines
SEQUENCES = [(kind, sequence) for kind in sorted(KINDS)
             for sequence in ("ascending", "descending", "crosscheck first")
             if sequence != "crosscheck first" or kind in ("scaled", "merged")]


@pytest.mark.parametrize("kind, sequence", SEQUENCES)
def test_outputs_do_not_depend_on_the_call_order(kind, sequence, reference):
    memo, orders = KINDS[kind]
    memo.cache_clear()
    if sequence == "crosscheck first":
        crosscheck(kind)
    for K in sorted(orders, reverse=sequence == "descending"):
        assert document(kind, K) == reference[f"{kind}:{K}"], K


def _perturb_embedded(monkeypatch):
    # a solved coefficient reaches the identity shifted by 1 (CORRUPTIONS'
    # "perturbed-r_k"): only coefficients with a nonzero first exponent
    embed = wring.Lattice.embed
    monkeypatch.setattr(wring.Lattice, "embed",
                        lambda self, c: embed(self, c + 1 if getattr(c, "e", (0,))[0] else c))


def _double_d_dx(monkeypatch):
    d_dx = DiffPoly.d_dx
    monkeypatch.setattr(DiffPoly, "d_dx", lambda self, times=1: d_dx(self, times) * 2)


# kind -> (order to warm, corruption, order whose solve must fail)
FAILURES = {
    "one-cut": (1, _perturb_embedded, 2),
    "two-cut": (0, _perturb_embedded, 1),
    "scaled": (3, _double_d_dx, 4),
    "merged": (3, _double_d_dx, 4),
}


@pytest.mark.parametrize("kind", sorted(FAILURES))
def test_failed_call_leaves_nothing(kind, monkeypatch, reference):
    memo = KINDS[kind][0]
    warm, corrupt, K = FAILURES[kind]
    memo.cache_clear()
    document(kind, warm)
    with monkeypatch.context() as patched:
        corrupt(patched)
        with pytest.raises(Mismatch):
            document(kind, K)
    if kind in HELD:
        # the failed extension dropped the point's held solve, warm orders too
        assert held(kind).solve is None
    else:
        # the output that failed was never stored, and the warm one stays
        assert memo.cache_info().currsize == 1
    assert document(kind, K) == reference[f"{kind}:{K}"]
    assert document(kind, warm) == reference[f"{kind}:{warm}"]


def _fail_at_the_last_order(monkeypatch, n):
    # the defect certificate at ε^n fails once the order it closes is solved
    certify_n = wring.Defect.certify

    def failing(self, m, what):
        certify_n(self, m, what)
        if m == n:
            raise Mismatch(f"{what} at ε^{m} failed on purpose")

    monkeypatch.setattr(wring.Defect, "certify", failing)


@pytest.mark.parametrize("kind", HELD)
def test_a_failed_extension_drops_the_held_solve(kind, monkeypatch, reference):
    # a fork's extension to order 5 fails after orders 3 and 4 were appended
    # and order 5 half solved: the held solve is dropped, and the next calls
    # solve afresh in a new layout, one defect held and one per K
    KINDS[kind][0].cache_clear()
    first = held(kind).at(3)
    with monkeypatch.context() as patched:
        _fail_at_the_last_order(patched, 5)
        with pytest.raises(Mismatch, match="on purpose"):
            document(kind, 5)
    assert held(kind).solve is None
    made = _count_defects(monkeypatch)
    for K in (5, 3, 4):
        assert document(kind, K) == reference[f"{kind}:{K}"], K
    assert len(made) == 4 and held(kind).at(3) is not first


def _count_defects(monkeypatch) -> list:
    """The argument tuples of every ``wring.Defect`` built from here on."""
    made = []
    init = wring.Defect.__init__
    monkeypatch.setattr(wring.Defect, "__init__",
                        lambda self, *args: made.append(args) or init(self, *args))
    return made


# entry point -> (call at K, the least K it takes)
TRUNCATED = {
    "expand_regular": (lambda K: expand_regular(QUARTIC, F(2), K), 0),
    "u_series_coefficients": (lambda K: u_series_coefficients(QUARTIC, K=K), 0),
    "expand_two_cut_regular": (lambda K: expand_two_cut_regular(MERGING, F(3, 4), K, 30), 0),
    "scaled_series": (lambda K: scaled_series(*site("scaled"), K), 3),
    "symmetric_scaled_series": (lambda K: symmetric_scaled_series(*site("merged"), K), 3),
    "crosscheck_via_series": (lambda K: crosscheck_via_series(*site("scaled"), K), 3),
}


@pytest.mark.parametrize("warm", [False, True], ids=["miss", "hit"])
@pytest.mark.parametrize("name", sorted(TRUNCATED))
def test_a_truncation_order_is_an_int(name, warm):
    # K is checked before any memo is read, so a float, a bool or a string is
    # refused alike whether its int value is held or not; an int below the
    # least order keeps its own message
    call, least = TRUNCATED[name]
    for memo, _ in KINDS.values():
        memo.cache_clear()
    if warm:
        for K in {1, least, 3} - set(range(least)):
            call(K)
    sizes = [memo.cache_info().currsize for memo, _ in KINDS.values()]
    for K in (1.0, 3.0, True, "3"):
        with pytest.raises(ValueError, match="truncation order must be an int"):
            call(K)
    assert [memo.cache_info().currsize for memo, _ in KINDS.values()] == sizes
    with pytest.raises(ValueError, match="nonnegative" if least == 0 else "need K"):
        call(least - 1)


def test_warm_memo_sees_a_changed_derivation(run_under_O):
    # a call at a new K builds a fresh engine, which certifies its derivation:
    # the one-cut engine by the closed form of r₁, the two-cut one by the
    # quotient rule, and the double-scaled lattices by Poly.derivative on a
    # probe; the defect and string residuals hold for whatever derivation the
    # ring implements
    out = run_under_O(
        """
        assert False, "python -O should have stripped this"
        from fractions import Fraction as F
        from largen import onecut, twocut
        from largen.diffpoly import DiffPoly
        from largen.errors import Mismatch
        from largen.potential import parse_potential
        q11, q21, bmp = map(parse_potential, ("quartic:1,1", "quartic:-2,1", "bmp"))
        crit, point = onecut.find_critical(bmp)[0], twocut.find_merging(q21)[0]
        calls = [(lambda K: onecut.expand_regular(q11, F(2), K), 1, 3),
                 (lambda K: twocut.expand_two_cut_regular(q21, F(3, 4), K), 0, 1),
                 (lambda K: onecut.scaled_series(bmp, crit, K), 3, 5),
                 (lambda K: twocut.symmetric_scaled_series(q21, point, K), 3, 5)]
        for call, warm, _ in calls:
            call(warm)
        diff, d_dx = onecut._Loc.diff, DiffPoly.d_dx
        onecut._Loc.diff = lambda self, k: diff(self, k) * 2
        DiffPoly.d_dx = lambda self, times=1: d_dx(self, times) * 2
        for call, _, K in calls:
            try:
                call(K)
            except Mismatch as exc:
                print("Mismatch:", exc)
        """
    )
    assert out.splitlines() == [
        "Mismatch: r₁ differs from ρ(2W''² - W'W''')/(12W'⁴)",
        "Mismatch: two-cut derivation differs from the quotient rule",
    ] + ["Mismatch: d/dx of the double-scaled engine differs from Poly.derivative"] * 2, out


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_hit_runs_no_engine(kind, monkeypatch):
    # every solve runs on wring.Defect towers of its own (two for the
    # two-cut pair), so a hit is a call that builds none
    memo, orders = KINDS[kind]
    memo.cache_clear()
    document(kind, orders[1])
    made = _count_defects(monkeypatch)
    document(kind, orders[1])
    assert made == []
    document(kind, orders[0])
    document(kind, orders[2])
    if kind in HELD:
        # a lower or a higher K extends a fork of the held solve, on a
        # defect of its own, in the point's one entry
        assert len(made) == 2 and memo.cache_info().currsize == 1
    else:
        # any other K, lower or higher, is solved from order 0
        assert len(made) == 2 * (2 if kind == "two-cut" else 1)


@pytest.mark.parametrize("kind", DOUBLE_SCALED)
@pytest.mark.parametrize("sequence", ["ascending", "descending"])
def test_a_ladder_builds_one_defect_per_order(kind, sequence, monkeypatch, reference):
    # every order of the ladder equals a fresh interpreter's solve at that K
    # alone, whichever order the ladder runs in, and each K builds one defect,
    # for a solve from order 0 or a fork of the held one (which is one more);
    # a repeat of a K is the very object it was
    KINDS[kind][0].cache_clear()
    made = _count_defects(monkeypatch)
    orders = sorted(LADDERS[kind], reverse=sequence == "descending")
    for K in orders:
        assert document(kind, K) == reference[f"{kind}:{K}"], K
    assert len(made) == len(orders) + (kind in HELD)
    assert all(series(kind, K) is series(kind, K) for K in orders)
    assert [series(kind, K).K for K in orders] == orders


@pytest.mark.parametrize("kind", DOUBLE_SCALED)
def test_a_crosscheck_gives_the_series_layout_no_jet(kind, monkeypatch):
    # a crosscheck derives its relation in a layout of its own, so the layout
    # of the series it read gains no jet; the series asked for after it then
    # fork the held solve that the crosscheck's series forked, in its layout
    KINDS[kind][0].cache_clear()
    made = _count_defects(monkeypatch)
    crosscheck(kind)
    layout = series(kind, 3).ladder[0].p.layout
    jets = len(layout.jets)
    crosscheck(kind)
    assert len(layout.jets) == jets and len(made) == 1 + (kind in HELD)
    if kind in HELD:
        assert held(kind).jets == jets
        for K in (3, 4, 5):
            document(kind, K)
        assert len(made) == 4 and held(kind).layout is layout


def test_a_hit_in_the_callers_layout_is_served_as_it_is():
    # a double-scaled result keeps the jet layout it was solved in, so every
    # hit, in whatever layout the caller runs, returns the very object
    crit, point = find_critical(BMP)[0], find_merging(MERGING)[0]
    for call in (lambda: scaled_series(BMP, crit, 4),
                 lambda: symmetric_scaled_series(MERGING, point, 4)):
        first = call()
        ladder = [rel.to_json() for rel in first.ladder]
        assert call() is first
        with own_layout():
            DiffPoly.var("a jet only this layout has")
            assert call() is first
            assert [rel.to_json() for rel in call().ladder] == ladder
        assert call() is first and [rel.to_json() for rel in first.ladder] == ladder


def _alive(kinds) -> list:
    return [o for o in gc.get_objects() if isinstance(o, kinds)]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_no_engine_outlives_its_call(kind):
    # a memo of outputs keeps only the finished output, so the lattice and its
    # wring.Defect towers go once the call returns; a held memo entry holds
    # its point's one lattice and defect until ``cache_clear``, and each
    # fork's defect goes with its call.  The
    # collector stays off, so a lattice held by a reference cycle (a
    # derivation closing over the engine that owns it) fails.  Lattice and
    # Defect have __slots__ and take no weakref, but both are tracked by the
    # collector, so a live one is in its list.
    memo, orders = KINDS[kind]
    memo.cache_clear()
    kinds = (wring.Lattice, wring.Defect)
    gc.collect()
    gc.disable()
    try:
        before = _alive(kinds)
        new = lambda: [o for o in _alive(kinds) if not any(o is b for b in before)]  # noqa: E731
        for K in orders:
            document(kind, K)
        if kind in HELD:
            assert sorted(type(o).__name__ for o in new()) == ["Defect", "Lattice"]
            memo.cache_clear()
        assert new() == []
    finally:
        gc.enable()


def test_each_memo_keeps_32_entries():
    assert [memo.cache_info().maxsize for memo, _ in KINDS.values()] == [32] * 4


@pytest.mark.parametrize("sequence", ["ascending", "descending"])
def test_phase_grid_does_not_depend_on_the_call_order(sequence, reference):
    phase._branch_elimination.cache_clear()
    for T in sorted(PHASE_GRID, reverse=sequence == "descending"):
        assert phase_document(T) == reference[f"phase:{T}"], T


def test_the_elimination_is_built_once_per_potential(monkeypatch):
    memo = phase._branch_elimination
    assert memo.cache_info().maxsize == 32
    built = []
    resultant = phase.branch_resultant
    monkeypatch.setattr(phase, "branch_resultant",
                        lambda L, W_a: built.append(L) or resultant(L, W_a))
    memo.cache_clear()
    classify_phase(DOUBLE_WELL, F(6), 30)
    classify_phase(DOUBLE_WELL, F(14), 30)  # one cut: the two-cut candidates are still sought
    assert len(built) == 1 and memo.cache_info().currsize == 1
    memo.cache_clear()
    assert memo.cache_info().currsize == 0
    classify_phase(DOUBLE_WELL, F(10), 30)
    assert len(built) == 2


# the tables the package keeps across calls, each named in its docstring with
# the work that reuses it, and the two it only reads
GROWING_TABLES = {
    "onecut._regular", "onecut._scaled", "twocut._two_cut", "twocut._symmetric",
    "phase._branch_elimination", "oracle._standard_nodes", "mpolys._layout",
    "diffpoly._LAYOUT",
}
CONSTANT_TABLES = {"phase._OUTSIDE", "potential._NAMED_ARITY"}


def module_tables() -> set:
    """Every module-level list, dict, set and context variable and every
    ``functools`` cache defined in a ``largen`` module, as "module.name"."""
    found = set()
    for info in pkgutil.iter_modules(largen.__path__):
        module = importlib.import_module(f"largen.{info.name}")
        for name, value in vars(module).items():
            memo = hasattr(value, "cache_clear") and value.__module__ == module.__name__
            kinds = (list, dict, set, ContextVar)
            if not name.startswith("__") and (memo or type(value) in kinds):
                found.add(f"{info.name}.{name}")
    return found


def test_the_process_global_tables_are_the_documented_ones():
    assert module_tables() == GROWING_TABLES | CONSTANT_TABLES
    assert sorted(t for t in GROWING_TABLES if f"``{t}``" not in largen.__doc__) == []


@pytest.mark.parametrize("member, certificate", [
    (gelfand_dikii, "R_1 does not integrate the recursion"),
    (pii_hierarchy, "S_1 does not integrate the second recursion"),
])
def test_a_hierarchy_certifies_every_call(member, certificate, monkeypatch):
    # an earlier call leaves nothing for a later one to read: the recursion
    # and its certificates run again
    member(2)
    product = painleve._product
    monkeypatch.setattr(painleve, "_product", lambda a, b, k: product(a, b, k) * 2)
    with pytest.raises(Mismatch, match=certificate):
        member(2)
