"""Package-wide checks: certificates survive ``python -O``, the zero
tolerance lives in one place, and differential polynomials stay over ℚ."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "largen"


def test_package_has_no_assert_statement():
    # ``python -O`` strips assert statements; certificates use errors.certify
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def test_zero_tolerance_is_defined_once():
    # when an mpf counts as zero is decided by scalars.tolerance alone
    found = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "digits // 2" in path.read_text(encoding="utf-8")
    ]
    assert found == ["scalars.py"]


def test_diffpoly_never_names_rationalfunc():
    # DiffPoly coefficients are Fractions; ρ-dependent coefficients are built
    # only where a symbolic hierarchy member is rendered (painleve)
    found = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "RationalFunc" in path.read_text(encoding="utf-8")
    ]
    assert "diffpoly.py" not in found
    assert found == ["onecut.py", "painleve.py", "polys.py"]
