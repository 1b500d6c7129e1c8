"""Each narrative demo runs in-process without raising; the linear-algebra
demo's output is pinned, since it prints rank's echelon form and operation
log, the inverse and every solver's result."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

LINEAR_ALGEBRA_OUT = (
    "== Determinants ==\n"
    "  det by elimination: -86\n"
    "  det by laplace: -86\n"
    "  det by sarrus3: -86\n"
    "\n"
    "== Inverse ==\n"
    "-1/6 1/6  1/3\n"
    "   1   0    2\n"
    "-1/6 1/6 -2/3\n"
    "\n"
    "== Rank ==\n"
    "3 6  6  9    1\n"
    "0 0 -3 -4 -2/3\n"
    "0 0  0  0    0\n"
    "  rank = 2, pivot columns (0, 2)\n"
    "  ops: IIv-(2/3)Iv; IIIv-(-1/3)Iv; IIIv-(-2)IIv\n"
    "\n"
    "== Linear systems ==\n"
    "  verdict: unique\n"
    "  gauss: Unique(values=(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)))\n"
    "  cramer: Unique(values=(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)))\n"
    "  inverse method: Unique(values=(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)))\n"
    "  one-parameter family: Parametric(particular=(Fraction(5, 1), Fraction(-2, 1), "
    "Fraction(0, 1)), directions=((Fraction(-4, 1), Fraction(3, 1), Fraction(1, "
    "1)),), free_cols=(2,))\n"
)


def test_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_linear_algebra_demo_output(capsys):
    path = next(p for p in DEMOS if p.stem == "linear_algebra")
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out == LINEAR_ALGEBRA_OUT
