"""The four benchmark workloads: their inputs, their jobs and the checks on each output.

A job is one call into largen's public API.  ``build(workload, seed)`` turns
a seed into the workload's fixed job list; the same seed always gives the
same list.  Each job carries a check that either re-derives the answer from
a closed form written out here, independently of the code under test, or
compares a digest of the output with one frozen in ``goldens.json``.

Seeded potentials are drawn from fixed pools, so that every input a seed
can pick has a frozen golden, and so that the cost of a run varies little
from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable, Optional

import mpmath

from largen.errors import LargenError, NumericallySingular
from largen.onecut import expand_regular, find_critical, scaled_series
from largen.oracle import (
    check_string_equation,
    compute_moments,
    oracle_table,
    recurrence_from_moments,
)
from largen.painleve import crosscheck_via_series
from largen.phase import classify_phase
from largen.potential import Potential, parse_potential
from largen.twocut import expand_two_cut_regular, find_merging, symmetric_scaled_series

DIGITS = 30
ORACLE_DIGITS = 80
GOLDENS = Path(__file__).with_name("goldens.json")

# (g2, g4, T) with g2 > 0: one-cut at every T.  expand_regular at K=1 costs
# 0.13-0.16 s on each (2 cores, seed commit), so a seed changes the inputs but
# not the amount of work; three cheaper draws (0.08 s) were left out for that.
ONE_CUT_QUARTICS = [
    (8, 7, "3/2"), (1, 2, "1"), (9, 7, "2"), (1, 7, "1"), (2, 1, "3"), (6, 3, "3"),
    (7, 1, "3"), (1, 5, "3/2"), (3, 3, "1"), (6, 4, "1/2"), (8, 2, "1/2"), (4, 3, "2"),
    (3, 5, "1"), (5, 4, "2"), (2, 8, "3"), (7, 6, "2"), (9, 6, "2"), (6, 9, "3/2"),
    (4, 8, "1/2"), (5, 7, "3/2"), (7, 5, "2"),
]
# (g2, g4, g6, T) with positive couplings: a convex well, one-cut at every T
ONE_CUT_SEXTICS = [(3, 1, 1, "1"), (1, 2, 3, "1/2"), (2, 1, 2, "2"), (4, 3, 1, "3/2")]
# (g2, g4, f) with g2 < 0 at T = f·T_c, below the merging temperature T_c = g2²/(4 g4)
TWO_CUT_QUARTICS = [
    (-7, 9, "2/3"), (-3, 1, "1/3"), (-3, 2, "1/2"), (-7, 2, "1/2"), (-6, 7, "1/4"),
    (-9, 7, "1/3"), (-6, 3, "2/3"), (-8, 9, "1/3"), (-8, 3, "2/3"), (-7, 6, "1/4"),
    (-5, 1, "1/3"), (-6, 6, "1/4"),
]
# double wells swept across their merging temperature: T = f·T_c
SWEEP_QUARTICS = [(-7, 5), (-5, 5), (-8, 6), (-6, 5), (-6, 4), (-2, 7)]
SWEEP_FACTORS = ("1/3", "1/2", "2/3", "4/3", "3/2", "2")

# classify_phase grids; sextic:42,-11,1 must keep T = 6 and T = 9
PHASE_GRIDS = {
    "sextic:42,-11,1": (1, 3, 6, 9, 12, 15, 18, 21, 24),
    "bmp": (10, 30, 50, 60, 70, 90),
    "sextic:-6,-3,1": (2, 6, 10, 12, 14, 20),
    "quartic:-2,1": ("1/4", "1/2", "3/4", "1", "5/4", "2"),
}
PHASE_QUARTIC_FACTORS = ("1/4", "1/2", "1", "3/2", "2")

# (potential, T, ladder of N); the two-cut N=24 table (5.5 s) is left out so
# that a run fits two repetitions
ORACLE_CASES = (("quartic:1,1", "1", (8, 16, 24)), ("quartic:-2,1", "1/2", (8, 16)))
# NumericallySingular.trusted_n of this table is the oracle_trusted_n metric
TRUSTED_CASE = ("quartic:1,1", "1", 40, DIGITS)


@dataclass
class Job:
    kind: str  # jobs of one kind are the same computation at the same size
    key: str  # names the inputs; golden digests are filed under it
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the output is right
    expect: Optional[type] = None  # the LargenError the job must raise, if any


@dataclass
class Outcome:
    kind: str
    key: str
    latency_s: float
    status: str  # "pass" | "wrong" | "fail" | "refused"
    error: Optional[str] = None  # class name of what the job raised
    reason: Optional[str] = None
    value: object = None  # the job's output (or expected exception) when it passed


def attempt(job: Job, clock=time.perf_counter) -> Outcome:
    """Run one job and classify it.

    "fail": it raised something other than a LargenError.  "refused": it
    raised a LargenError it was not expected to raise.  "wrong": its output,
    or the refusal it was expected to give, failed the check, or an
    expected refusal did not come.  The check runs outside the timed region.
    """
    start = clock()
    try:
        out = job.run()
    except LargenError as exc:
        latency = clock() - start
        if job.expect is None or not isinstance(exc, job.expect):
            return Outcome(job.kind, job.key, latency, "refused", type(exc).__name__, str(exc))
        out = exc
    except Exception as exc:  # the harness keeps running and reports the failure
        latency = clock() - start
        return Outcome(job.kind, job.key, latency, "fail", type(exc).__name__, _last_frame(exc))
    else:
        latency = clock() - start
        if job.expect is not None:
            return Outcome(job.kind, job.key, latency, "wrong", None,
                           f"expected {job.expect.__name__}, got a result")
    try:
        reason = job.check(out)
    except Exception as exc:
        reason = f"check raised {type(exc).__name__}: {_last_frame(exc)}"
    error = type(out).__name__ if isinstance(out, BaseException) else None
    if reason is not None:
        return Outcome(job.kind, job.key, latency, "wrong", error, reason)
    return Outcome(job.kind, job.key, latency, "pass", error, value=out)


def _last_frame(exc: BaseException) -> str:
    tb = traceback.extract_tb(exc.__traceback__)
    where = f" at {Path(tb[-1].filename).name}:{tb[-1].lineno}" if tb else ""
    return f"{exc}{where}"


# -- digests of outputs frozen at the seed commit ---------------------------------


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def golden_doc(out):
    """The JSON document a job's output is frozen as."""
    if hasattr(out, "to_json"):
        return out.to_json(DIGITS)
    if hasattr(out, "painleve_relation"):  # ScaledOneCut
        return {
            "ladder": [rel.to_json() for rel in out.ladder],
            "poles": [[p.to_json() for p in o.poles] for o in out.orders],
        }
    if hasattr(out, "relation"):  # SymmetricTwoCut
        return {
            "ladder": [rel.to_json() for rel in out.ladder],
            "poles": [
                [o.C.to_json(), [a.to_json() for a in o.A], [b.to_json() for b in o.B]]
                for o in out.orders
            ],
        }
    if hasattr(out, "derived"):  # CrosscheckReport
        return {"member": out.member.to_json(), "derived": out.derived.to_json()}
    if hasattr(out, "endpoints"):  # PhaseResult
        return {
            "s": out.s,
            "status": out.status,
            "endpoints": [_num(e) for e in out.endpoints],
        }
    raise TypeError(f"no golden form for {type(out).__name__}")


def _num(x) -> str:
    if isinstance(x, (int, F)):
        return str(x)
    return mpmath.nstr(x, 20)


def _golden_check(goldens: dict, key: str, extra: Callable[[object], Optional[str]] = None):
    def check(out):
        if extra is not None:
            reason = extra(out)
            if reason is not None:
                return reason
        want = goldens.get(key)
        if want is None:
            return "no frozen golden for this input"
        if digest(golden_doc(out)) != want:
            return "output differs from the frozen golden"
        return None

    return check


# -- closed forms, re-derived here rather than taken from largen -------------------


def _close(x, y, digits=DIGITS - 5) -> bool:
    with mpmath.workdps(DIGITS + 10):
        x, y = _mpf(x), _mpf(y)
        return abs(x - y) <= mpmath.mpf(10) ** (-digits) * max(1, abs(y))


def _mpf(x):
    """x as an mpf at DIGITS + 10."""
    with mpmath.workdps(DIGITS + 10):
        if isinstance(x, F):
            return mpmath.mpf(x.numerator) / x.denominator
        return mpmath.mpf(x)


def hodograph(gs):
    """W(r) = Σ C(2k,k)·k·g_{2k}·r^k as coefficients of r⁰, r¹, …"""
    from math import comb

    return [F(0)] + [comb(2 * k, k) * k * F(g) for k, g in enumerate(gs, start=1)]


def _poly_eval(coeffs, x):
    """Exact for a rational x, else at DIGITS + 10."""
    if isinstance(x, F):
        acc = F(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc
    with mpmath.workdps(DIGITS + 10):
        acc = mpmath.mpf(0)
        for c in reversed(coeffs):
            acc = acc * x + _mpf(c)
        return acc


def _deriv(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:]


def one_cut_r1(gs, r0):
    """r₁ = r₀ (W''² / (6 W'⁴) - W''' / (12 W'³)) at ρ = r₀.

    Reduces to 6 g₄² ρ / (12 g₄ ρ + g₂)⁴ for quartics and to
    ρ / (64800 (ρ-1)⁶) for bmp.
    """
    w1 = _deriv(hodograph(gs))
    w2, w3 = _deriv(w1), _deriv(_deriv(w1))
    with mpmath.workdps(DIGITS + 10):
        x = r0 if isinstance(r0, F) else _mpf(r0)
        a, b, c = (_poly_eval(p, x) if p else 0 for p in (w1, w2, w3))
        return x * (b * b / (6 * a**4) - c / (12 * a**3))


def quartic_one_cut_r0(g2, g4, T):
    """The positive root of 12 g₄ r² + 2 g₂ r = T."""
    with mpmath.workdps(DIGITS + 10):
        g2, g4, T = _mpf(F(g2)), _mpf(F(g4)), _mpf(F(T))
        return (-2 * g2 + mpmath.sqrt(4 * g2 * g2 + 48 * g4 * T)) / (24 * g4)


def quartic_two_cut(g2, g4, T):
    """(a₀, b₀, a₁, b₁) for the quartic two-cut phase, disc = g₂² - 4 T g₄ > 0."""
    with mpmath.workdps(DIGITS + 10):
        g2, g4, T = _mpf(F(g2)), _mpf(F(g4)), _mpf(F(T))
        disc = g2 * g2 - 4 * T * g4
        s = mpmath.sqrt(disc)
        a0 = (s - g2) / (4 * g4)
        b0 = (-g2 - s) / (4 * g4)
        a1 = -g4 * (g2 * g2 + 4 * T * g4 - g2 * s) / (2 * disc**2 * s)
        b1 = g4 * (g2 * g2 + 4 * T * g4 + g2 * s) / (2 * disc**2 * s)
        return a0, b0, a1, b1


def _check_one_cut(gs, T, r0_expected=None):
    def check(exp):
        vals = exp.values(DIGITS)
        if r0_expected is not None and not _close(exp.r0, r0_expected):
            return "r0 differs from the closed form"
        if not _close(_poly_eval(hodograph(gs), exp.r0), F(T)):
            return "W(r0) != T"
        if not _close(vals[1], one_cut_r1(gs, exp.r0)):
            return "r1 differs from the closed form"
        return None

    return check


def _check_two_cut(g2, g4, T):
    def check(exp):
        a0, b0, a1, b1 = quartic_two_cut(g2, g4, T)
        vals = exp.values(DIGITS)
        for got, want, name in ((exp.a0, a0, "a0"), (exp.b0, b0, "b0"),
                                (vals[1][0], a1, "a1"), (vals[1][1], b1, "b1")):
            if not _close(got, want):
                return f"{name} differs from the closed form"
        return None

    return check


def _quartic_phase_expect(g2, g4, T):
    """(s, status) of the symmetric quartic at T, from T_c = g₂²/(4 g₄) when g₂ < 0."""
    if g2 >= 0:
        return 1, "regular"
    Tc = F(g2 * g2, 4 * g4)
    if T < Tc:
        return 2, "regular"
    return (1, "critical") if T == Tc else (1, "regular")


def _check_quartic_phase(g2, g4, T):
    def check(p):
        s, status = _quartic_phase_expect(g2, g4, T)
        if (p.s, p.status) != (s, status):
            return f"classified ({p.s}, {p.status}), expected ({s}, {status})"
        if s == 1:
            r0 = quartic_one_cut_r0(g2, g4, T)
            with mpmath.workdps(DIGITS + 10):
                quarter_support = _mpf(p.endpoints[1]) / 4
            if not _close(p.r0, r0) or not _close(quarter_support, r0):
                return "one-cut r0 or support differs from the closed form"
        else:
            a0, b0, _, _ = quartic_two_cut(g2, g4, T)
            if not (_close(p.a0, a0) and _close(p.b0, b0)):
                return "two-cut endpoints differ from the closed form"
        return None

    return check


def _check_phase_one_cut_root(gs, T):
    def check(p):
        if p.s == 1 and not _close(_poly_eval(hodograph(gs), p.r0), F(T)):
            return "W(r0) != T"
        return None

    return check


def _check_oracle(name, T, N):
    """String-equation residual below the certified digits, and the N² relation.

    One cut: |N²(r_{N,N} - r₀) - r₁| ≤ 5·10⁻⁴/N² (about 6·10⁻⁵/N² at the seed),
    so the residual shrinks with N.  Two cuts: r_{N,N} approaches b₀ (N even)
    or a₀ (N odd) as |r_{N,N} - x₀| ≤ 1/N².
    """
    g = parse_potential(name)

    def check(rt):
        if rt.certified_digits < 10:
            return "fewer than 10 certified digits"
        with mpmath.workdps(ORACLE_DIGITS):
            if check_string_equation(rt) > mpmath.mpf(10) ** (2 - rt.certified_digits):
                return "string-equation residual exceeds the certified digits"
            rN = rt.r_at(N)
            g2, g4 = g.gs
            if g2 > 0:
                r0 = quartic_one_cut_r0(g2, g4, F(T))
                err = abs(N * N * (rN - r0) - one_cut_r1(g.gs, r0))
                if err > mpmath.mpf(5) / 10**4 / (N * N):
                    return f"|N^2(r_NN - r0) - r1| = {mpmath.nstr(err, 5)} too large"
            else:
                a0, b0, _, _ = quartic_two_cut(g2, g4, F(T))
                x0 = b0 if N % 2 == 0 else a0
                if abs(rN - x0) > mpmath.mpf(1) / (N * N):
                    return "r_NN does not approach the planar endpoint"
        return None

    return check


def _check_scaled_ladder(sc):
    for k in range(1, sc.crit.m):
        if not sc.ladder[k].p.is_zero():
            return f"ladder entry {k} below the critical order is nonzero"
    return None


def _check_crosscheck(report):
    return None if report.matches() else "derived relation differs from the emitted member"


# -- workloads ------------------------------------------------------------------------


@dataclass
class Workload:
    jobs: list
    growth: tuple  # (large kind, small kind) whose median latencies give order_growth


def build(workload: str, seed: int, goldens: dict | None = None) -> Workload:
    """The workload's fixed job list for this seed, with its inputs generated
    and its critical and merging points found."""
    goldens = load_goldens() if goldens is None else goldens
    rng = random.Random(f"{workload}:{seed}")
    makers = {"regular": _regular, "critical": _critical, "oracle": _oracle, "phase": _phase}
    wl = makers[workload](rng, goldens)
    rng.shuffle(wl.jobs)
    _pair_growth_jobs(wl)
    return wl


def _pair_growth_jobs(wl: Workload) -> None:
    """Move each job of the large growth kind right after one of the small kind.

    order_growth divides their latencies, and jobs run back to back see
    nearly the same machine speed.
    """
    large, small = wl.growth
    order = [j for j in wl.jobs if j.kind != large]
    smalls = iter([j for j in order if j.kind == small])
    for big in (j for j in wl.jobs if j.kind == large):
        little = next(smalls, None)
        order.insert(len(order) if little is None else order.index(little) + 1, big)
    wl.jobs[:] = order


def _regular(rng, goldens) -> Workload:
    picks = rng.sample(ONE_CUT_QUARTICS, 10)
    jobs = _regular_jobs(goldens, picks[:2], picks[2:], [rng.choice(ONE_CUT_SEXTICS)],
                         rng.sample(TWO_CUT_QUARTICS, 2), [rng.choice(SWEEP_QUARTICS)])
    return Workload(jobs, ("onecut.K2", "onecut.K1"))


def _regular_jobs(goldens, k2, k1, sextics, two_cuts, sweeps) -> list:
    jobs = []
    for K, (g2, g4, T) in [(2, p) for p in k2] + [(1, p) for p in k1]:
        g = Potential.quartic(g2, g4)
        key = f"onecut:quartic:{g2},{g4}:T={T}:K={K}"
        extra = _check_one_cut(g.gs, T, quartic_one_cut_r0(g2, g4, F(T)))
        jobs.append(Job(f"onecut.K{K}", key, _call(expand_regular, g, F(T), K, DIGITS),
                        _golden_check(goldens, key, extra)))
    for g2, g4, g6, T in sextics:
        g = Potential((g2, g4, g6), label="sextic")
        key = f"onecut:sextic:{g2},{g4},{g6}:T={T}:K=1"
        jobs.append(Job("onecut.K1.sextic", key, _call(expand_regular, g, F(T), 1, DIGITS),
                        _golden_check(goldens, key, _check_one_cut(g.gs, T))))
    for g2, g4, f in two_cuts:
        g = Potential.quartic(g2, g4)
        T = F(f) * F(g2 * g2, 4 * g4)
        key = f"twocut:quartic:{g2},{g4}:T={T}:K=1"
        jobs.append(Job("twocut.K1", key, _call(expand_two_cut_regular, g, T, 1, DIGITS),
                        _golden_check(goldens, key, _check_two_cut(g2, g4, T))))
    for g2, g4 in sweeps:
        g = Potential.quartic(g2, g4)
        (merge,) = find_merging(g, DIGITS)
        for f in SWEEP_FACTORS:
            T = F(f) * merge.T_c
            key = f"sweep:quartic:{g2},{g4}:T={T}:K=1"
            check = _check_two_cut(g2, g4, T) if T < merge.T_c else _check_one_cut(
                g.gs, T, quartic_one_cut_r0(g2, g4, T))
            jobs.append(Job("sweep", key, _call(_sweep, g, T), _golden_check(goldens, key, check)))
    return jobs


def _sweep(g, T):
    """classify_phase, then the regular expansion of the phase it found."""
    p = classify_phase(g, T, DIGITS)
    if p.s == 2:
        return expand_two_cut_regular(g, T, 1, DIGITS)
    return expand_regular(g, T, 1, DIGITS)


def _critical(rng, goldens) -> Workload:
    jobs = []
    s42, bmp = parse_potential("sextic:42,-11,1"), parse_potential("bmp")
    q21, s63 = parse_potential("quartic:-2,1"), parse_potential("sextic:-6,-3,1")
    (c42,) = find_critical(s42, DIGITS)
    (cbmp,) = find_critical(bmp, DIGITS)
    (mq21,) = find_merging(q21, DIGITS)
    (ms63,) = find_merging(s63, DIGITS)
    for name, g, crit in (("sextic:42,-11,1", s42, c42), ("bmp", bmp, cbmp),
                          ("quartic:-2,1", q21, mq21), ("sextic:-6,-3,1", s63, ms63)):
        key = f"crosscheck:{name}:m={crit.m}"
        jobs.append(Job("crosscheck", key, _call(crosscheck_via_series, g, crit),
                        _golden_check(goldens, key, _check_crosscheck)))
    for K in (3, 4, 5):
        key = f"scaled:bmp:K={K}"
        jobs.append(Job(f"scaled.K{K}", key, _call(scaled_series, bmp, cbmp, K),
                        _golden_check(goldens, key, _check_scaled_ladder)))
    for K in (3, 4, 5, 6, 7):
        key = f"symmetric:quartic:-2,1:K={K}"
        jobs.append(Job(f"symmetric.K{K}", key, _call(symmetric_scaled_series, q21, mq21, K),
                        _golden_check(goldens, key)))
    return Workload(jobs, ("scaled.K5", "scaled.K4"))


def _oracle(rng, goldens) -> Workload:
    jobs = []
    for name, T, ladder in ORACLE_CASES:
        g = parse_potential(name)
        for N in ladder:
            key = f"oracle:{name}:T={T}:N={N}"
            jobs.append(Job(f"oracle.N{N}", key,
                            _call(oracle_table, g, F(T), N, N + 1, ORACLE_DIGITS),
                            _check_oracle(name, T, N)))
    name, T, N, digits = TRUSTED_CASE
    jobs.append(Job("oracle.trusted_n", f"oracle:{name}:T={T}:N={N}:digits={digits}",
                    _call(oracle_table, parse_potential(name), F(T), N, N + 1, digits),
                    lambda exc: None if exc.trusted_n >= 1 else "no trusted index",
                    expect=NumericallySingular))
    return Workload(jobs, ("oracle.N16", "oracle.N8"))


def oracle_probe() -> dict:
    """trusted_n of TRUSTED_CASE, and the certified digits of its table cut there.

    Workloads without oracle jobs report these as oracle_trusted_n and
    oracle_digits_min; the probe runs after their timed repetitions.
    """
    name, T, N, digits = TRUSTED_CASE
    mt = compute_moments(parse_potential(name), F(T), N, N + 1, digits)
    try:
        trusted = recurrence_from_moments(mt, N + 1).nmax
    except NumericallySingular as exc:
        trusted = exc.trusted_n
    return {"trusted_n": trusted,
            "digits_min": recurrence_from_moments(mt, trusted).certified_digits}


def _phase(rng, goldens) -> Workload:
    jobs = _phase_grid_jobs(goldens)
    couplings = [(g2, g4) for g2 in range(-9, 10) for g4 in range(1, 10)
                 if g2 not in (-1, 0) and (g2, g4) != (-2, 1)]  # quartic:-2,1 has its grid
    for g2, g4 in rng.sample(couplings, 4):
        g = Potential.quartic(g2, g4)
        scale = F(g2 * g2, 4 * g4) if g2 < 0 else F(1)
        for f in PHASE_QUARTIC_FACTORS:
            T = F(f) * scale
            jobs.append(Job("phase.quartic", f"phase:quartic:{g2},{g4}:T={T}",
                            _call(classify_phase, g, T, DIGITS), _check_quartic_phase(g2, g4, T)))
    return Workload(jobs, ("phase.sextic", "phase.quartic"))


def _phase_grid_jobs(goldens) -> list:
    jobs = []
    for name, grid in PHASE_GRIDS.items():
        g = parse_potential(name)
        kind = "phase.quartic" if len(g.gs) == 2 else "phase.sextic"
        for T in grid:
            key = f"phase:{name}:T={T}"
            jobs.append(Job(kind, key, _call(classify_phase, g, F(T), DIGITS),
                            _golden_check(goldens, key, _check_phase_one_cut_root(g.gs, T))))
    return jobs


def _call(fn, *args):
    return lambda: fn(*args)


def all_golden_jobs(goldens: dict) -> list:
    """One job for every input any seed can pick that is checked against a golden."""
    every_quartic = list(ONE_CUT_QUARTICS)
    return (
        _regular_jobs(goldens, every_quartic, every_quartic, ONE_CUT_SEXTICS,
                      TWO_CUT_QUARTICS, SWEEP_QUARTICS)
        + _critical(random.Random(0), goldens).jobs
        + _phase_grid_jobs(goldens)
    )
