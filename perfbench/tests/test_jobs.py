"""Failure versus refusal classification, and the frozen goldens at this commit."""

from fractions import Fraction

import pytest

import jobs
from largen.errors import CriticalPointHit, NumericallySingular, Unclassifiable


def _job(run, check=lambda out: None, expect=None):
    return jobs.Job("kind", "key", run, check, expect)


def _raise(exc):
    def run():
        raise exc

    return run


def test_result_that_passes_its_check():
    out = jobs.attempt(_job(lambda: 42, lambda v: None if v == 42 else "bad"))
    assert (out.status, out.error, out.value) == ("pass", None, 42)


def test_result_that_fails_its_check_is_wrong():
    out = jobs.attempt(_job(lambda: 41, lambda v: None if v == 42 else "bad"))
    assert (out.status, out.reason) == ("wrong", "bad")


def test_non_largen_error_is_a_failure():
    out = jobs.attempt(_job(_raise(TypeError("cannot unpack"))))
    assert (out.status, out.error) == ("fail", "TypeError")


def test_unexpected_largen_error_is_a_refusal():
    out = jobs.attempt(_job(_raise(Unclassifiable("no admissible phase"))))
    assert (out.status, out.error) == ("refused", "Unclassifiable")


def test_expected_refusal_passes_and_is_checked():
    ok = jobs.attempt(_job(_raise(NumericallySingular("lost", trusted_n=24)),
                           lambda e: None if e.trusted_n == 24 else "index", NumericallySingular))
    assert (ok.status, ok.error, ok.value.trusted_n) == ("pass", "NumericallySingular", 24)
    other = jobs.attempt(_job(_raise(Unclassifiable("x")), expect=CriticalPointHit))
    assert (other.status, other.error) == ("refused", "Unclassifiable")
    missing = jobs.attempt(_job(lambda: 1, expect=CriticalPointHit))
    assert missing.status == "wrong"


def test_a_check_that_raises_counts_against_the_job():
    out = jobs.attempt(_job(lambda: 1, lambda v: v.no_such_field))
    assert out.status == "wrong" and "AttributeError" in out.reason


def test_same_seed_same_inputs():
    for workload in ("regular", "critical", "oracle", "phase"):
        a = [j.key for j in jobs.build(workload, 7).jobs]
        b = [j.key for j in jobs.build(workload, 7).jobs]
        assert a == b
    assert [j.key for j in jobs.build("regular", 7).jobs] != [
        j.key for j in jobs.build("regular", 8).jobs]


def test_every_pickable_input_has_a_golden_except_those_that_raise():
    goldens = jobs.load_goldens()
    keys = {j.key for j in jobs.all_golden_jobs(goldens)}
    # classify_phase raises on these at this commit: TypeError at T=6 and 9,
    # Unclassifiable at 15, 18 and 21
    raising = {f"phase:sextic:42,-11,1:T={T}" for T in (6, 9, 15, 18, 21)}
    assert keys - set(goldens) == raising
    assert set(goldens) <= keys


CHEAP_KINDS = {"crosscheck", "scaled.K3", "symmetric.K3", "symmetric.K4", "phase.sextic",
               "phase.quartic"}


def test_frozen_goldens_match_on_the_cheap_inputs():
    goldens = jobs.load_goldens()
    cheap = [j for j in jobs.all_golden_jobs(goldens)
             if j.kind in CHEAP_KINDS and j.key in goldens]
    cheap += [j for j in jobs.all_golden_jobs(goldens) if j.kind == "onecut.K1"][:3]
    assert len(cheap) > 20
    for job in cheap:
        out = jobs.attempt(job)
        assert out.status == "pass", (job.key, out.reason)


def test_closed_forms_agree_with_known_values():
    # bmp: r1 = ρ/(64800 (ρ-1)⁶); quartic: 6 g4² ρ/(12 g4 ρ + g2)⁴
    rho = Fraction(2)
    assert jobs.one_cut_r1((90, -15, 1), rho) == rho / (64800 * (rho - 1) ** 6)
    assert jobs.one_cut_r1((1, 1), rho) == 6 * rho / (12 * rho + 1) ** 4
    a0, b0, a1, b1 = jobs.quartic_two_cut(-2, 1, Fraction(3, 4))
    assert (float(a0), float(b0), float(a1), float(b1)) == pytest.approx((0.75, 0.25, -4.5, 2.5))
