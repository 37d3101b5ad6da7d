"""The process-global memos of the large-N entry points.  The two regular
engines are kept per potential and resumed order by order; the double-scaled
series are kept whole per (potential, point, K).  No output may depend on what
the process computed before, a hit runs no engine, and a call that raises
leaves nothing behind."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from largen import onecut, twocut, wring
from largen.diffpoly import DiffPoly
from largen.errors import Mismatch
from largen.onecut import expand_regular, find_critical, scaled_series, u_series_coefficients
from largen.painleve import crosscheck_via_series
from largen.potential import parse_potential
from largen.twocut import expand_two_cut_regular, find_merging, symmetric_scaled_series

QUARTIC = parse_potential("quartic:1,1")
MERGING = parse_potential("quartic:-2,1")
BMP = parse_potential("bmp")
HERE = Path(__file__).resolve().parent

# kind -> (memo, engine class, orders asked for)
KINDS = {
    "one-cut": (onecut._regular_engine, onecut._RegularEngine, (1, 2, 3)),
    "two-cut": (twocut._two_cut_engine, twocut._TwoCutRegularEngine, (0, 1, 2)),
    "scaled": (onecut._scaled, onecut._ScaledEngine, (3, 4, 5)),
    "merged": (twocut._symmetric, twocut._SymmetricScaledEngine, (3, 4, 5)),
}
KEPT = ("one-cut", "two-cut")  # the engines resumed across calls


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


def fresh_documents() -> dict:
    """Every kind's documents, each from an engine built for that call alone."""
    out = {}
    for kind, (memo, _, orders) in KINDS.items():
        for K in orders:
            memo.cache_clear()
            out[f"{kind}:{K}"] = document(kind, K)
    return out


@pytest.fixture(scope="module")
def reference():
    """``fresh_documents`` as a fresh interpreter computes them."""
    code = "import json, test_memos; print(json.dumps(test_memos.fresh_documents()))"
    path = os.pathsep.join([str(HERE), str(HERE.parent / "src")])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=300, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def crosscheck(kind: str) -> None:
    g = BMP if kind == "scaled" else MERGING
    point = find_critical(g)[0] if kind == "scaled" else find_merging(g)[0]
    assert crosscheck_via_series(g, point).matches()


# crosscheck_via_series runs only the double-scaled engines
SEQUENCES = [(kind, sequence) for kind in sorted(KINDS)
             for sequence in ("ascending", "descending", "crosscheck first")
             if sequence != "crosscheck first" or kind in ("scaled", "merged")]


@pytest.mark.parametrize("kind, sequence", SEQUENCES)
def test_outputs_do_not_depend_on_the_call_order(kind, sequence, reference):
    memo, _, orders = KINDS[kind]
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


# kind -> (engine key, order to warm, corruption, order whose solve must fail)
FAILURES = {
    "one-cut": ((QUARTIC,), 1, _perturb_embedded, 2),
    "two-cut": ((MERGING,), 0, _perturb_embedded, 1),
    "scaled": (None, 3, _double_d_dx, 4),
    "merged": (None, 3, _double_d_dx, 4),
}


@pytest.mark.parametrize("kind", sorted(FAILURES))
def test_failed_call_leaves_nothing(kind, monkeypatch, reference):
    memo = KINDS[kind][0]
    key, warm, corrupt, K = FAILURES[kind]
    memo.cache_clear()
    document(kind, warm)
    engine = memo(*key) if key else None
    with monkeypatch.context() as patched:
        corrupt(patched)
        with pytest.raises(Mismatch):
            document(kind, K)
    # a kept engine that failed to extend is evicted; a whole series that
    # failed was never stored, and the warm one stays
    assert memo.cache_info().currsize == (0 if key else 1)
    assert document(kind, K) == reference[f"{kind}:{K}"]
    if key:
        assert memo(*key) is not engine


def test_warm_memo_sees_a_changed_derivation(run_under_O):
    # a kept engine certifies its derivation again before it resumes, and a
    # double-scaled series at a new K builds a lattice that certifies it: the
    # defect and string residuals hold for whatever derivation the ring implements
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
        "Mismatch: one-cut derivation differs from the quotient rule",
        "Mismatch: two-cut derivation differs from the quotient rule",
    ] + ["Mismatch: d/dx of the double-scaled engine differs from Poly.derivative"] * 2, out


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_hit_runs_no_engine(kind, monkeypatch):
    memo, engine, orders = KINDS[kind]
    memo.cache_clear()
    document(kind, orders[1])
    runs = []
    run = engine.run
    monkeypatch.setattr(engine, "run", lambda self, K: runs.append(K) or run(self, K))
    document(kind, orders[1])
    assert runs == []
    # a kept engine serves a lower order too; a double-scaled series at a new
    # K is solved from order 0
    document(kind, orders[0])
    assert runs == ([] if kind in KEPT else [orders[0]])
    document(kind, orders[2])
    assert runs[-1] == orders[2]


def test_each_memo_keeps_32_entries():
    assert [memo.cache_info().maxsize for memo, _, _ in KINDS.values()] == [32] * 4
