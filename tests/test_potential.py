from fractions import Fraction as F

import pytest

from largen.potential import BadPotential, Potential, parse_potential
from largen.structured import psi_poly


def test_quartic_named_form():
    p = parse_potential("quartic:-2,1")
    assert p.gs == (F(-2), F(1))


def test_bmp_couplings_and_hodograph():
    p = parse_potential("bmp")
    assert p.gs == (F(90), F(-15), F(1))
    W = p.hodograph()
    # W(r) = 180r - 180r² + 60r³, minimum structure W'(r) = 180(r-1)²
    assert [W[k] for k in range(4)] == [F(0), F(180), F(-180), F(60)]
    assert p.hodograph().derivative()(F(1)) == 0


def test_gaussian():
    p = parse_potential("gaussian")
    assert p.gs == (F(1),)
    assert p.hodograph()(F(1, 2)) == F(1)  # W(r) = 2r, semicircle at T=1


def test_fractional_and_decimal_couplings():
    p = parse_potential("quartic:1/2,0.25")
    assert p.gs == (F(1, 2), F(1, 4))


def test_generic_gs_form():
    p = parse_potential("gs:42,-11,1")
    assert p.gs == (F(42), F(-11), F(1))


def test_inline_json():
    p = parse_potential('{"g": [[-2, 1], [1, 1]]}')
    assert p.gs == (F(-2), F(1))


def test_json_file(tmp_path):
    f = tmp_path / "pot.json"
    f.write_text('{"g": [[90,1],[-15,1],[1,1]]}')
    assert parse_potential(f"@{f}").gs == Potential.bmp().gs


def test_json_round_trip():
    p = parse_potential("quartic:-2,1")
    import json

    again = parse_potential(json.dumps(p.to_json()))
    assert again.gs == p.gs


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "quartic:1",
        "quartic:1,2,3",
        "bmp:1",
        "unknownpot:1,2",
        "gs:",
        "quartic:-2,-1",  # leading coupling not positive
        '{"h": []}',
        "gs:1,0",
        '{"g": [[1.5, 1], [1, 1]]}',  # a pair of non-integers, not g2 = 1
        '{"g": [true, 1]}',  # a bool is not a coupling
        "quartic:abc,1",
        "quartic:1,2/0",
        '{"g": [[1, 0], [1, 1]]}',  # a zero denominator
        '{"g": 5}',  # "g" must be a list of couplings
        '{"g": null}',
        '{"g": {"a": 1}}',
        '{"g": {"1": 1}}',  # not g2 = 1 from the keys of a dict
    ],
)
def test_rejects(bad):
    with pytest.raises(BadPotential):
        parse_potential(bad)


@pytest.mark.parametrize(
    "text", ["gaussian", "bmp", "quartic:-2,1", "sextic:42,-11,1", "octic:1,-2,1/3,1", "gs:1,0,1/2"]
)
def test_describe_parses_back(text):
    p = parse_potential(text)
    assert p.describe() == text
    assert parse_potential(p.describe()) == p


def test_float_coupling_rejected():
    with pytest.raises(BadPotential):
        Potential((0.1, 1.0))


def test_psi_matches_quartic_closed_form():
    p = parse_potential("quartic:-2,1")
    # Ψ(r) = g2 + 4 g4 r
    psi = psi_poly(p.gs)
    assert psi(F(0)) == F(-2) and psi(F(1, 2)) == F(0)
