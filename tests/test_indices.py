"""Every index argument of the public names is a plain int.

A bool or a float index is refused with a TypeError that names the argument,
before any computation or memo lookup: True must never answer for 1, and
2.0 must not fail deep inside with a message about something else.
"""

from fractions import Fraction

import pytest

from degenbern.bernoulli import (
    carlitz_beta,
    carlitz_beta_gf,
    classical_bernoulli,
    gen_beta,
    gen_beta_classical_limit,
    gen_beta_eulerian,
    gen_beta_gf,
    gen_beta_integral,
    gen_beta_poly,
    gen_beta_poly_derivative,
    gen_beta_poly_gf,
    gen_beta_poly_stirling,
    gen_beta_rstirling,
    gen_beta_rstirling_simplified,
    gen_beta_stirling_sum,
    remark_sides,
)
from degenbern.exactcore import PolyLambda, PolyXOverLambda
from degenbern.series import TruncatedSeries, degenerate_exp, degenerate_log
from degenbern.triangles import (
    _row,
    eulerian_classical,
    eulerian_degenerate,
    falling_factorial,
    falling_lambda,
    forward_difference,
    log_weight,
    r_stirling2_classical,
    r_stirling2_deg,
    stirling1_classical,
    stirling1_deg,
    stirling2_classical,
    stirling2_deg,
    stirling2_deg_poly,
    substituted,
)
from degenbern.verify import run_suite, suite_plan

LAM = PolyLambda.lam()
SERIES = degenerate_exp(1, 3)


def _in_corrupted_run(n, k):
    """stirling2_deg(n, k) under the mutation check's substitution of row 4."""
    row = _row(4, 0, False, LAM)
    with substituted(_row, (4, 0, False, LAM), row[:2] + (PolyLambda.zero(),) + row[3:]):
        return stirling2_deg(n, k)


# (id, call, valid keyword arguments, the index arguments among them); the
# valid values are all 1 or 2, so True would land inside every range
ROUTES = [
    ("falling_factorial", lambda n: falling_factorial(LAM, n), {"n": 2}, ("n",)),
    ("falling_lambda", lambda n: falling_lambda(PolyXOverLambda.x(), n), {"n": 2}, ("n",)),
    ("log_weight", log_weight, {"k": 2}, ("k",)),
    ("stirling1_deg", stirling1_deg, {"n": 2, "k": 1}, ("n", "k")),
    ("stirling2_deg", stirling2_deg, {"n": 2, "k": 1}, ("n", "k")),
    ("stirling2_deg-table", _in_corrupted_run, {"n": 2, "k": 1}, ("n", "k")),
    ("stirling1_classical", stirling1_classical, {"n": 2, "k": 1}, ("n", "k")),
    ("stirling2_classical", stirling2_classical, {"n": 2, "k": 1}, ("n", "k")),
    ("stirling2_deg_poly", stirling2_deg_poly, {"n": 2, "k": 1}, ("n", "k")),
    ("r_stirling2_deg", r_stirling2_deg, {"n": 2, "k": 1, "r": 1}, ("n", "k", "r")),
    ("r_stirling2_classical", r_stirling2_classical, {"n": 2, "k": 1, "r": 1}, ("n", "k", "r")),
    ("eulerian_classical", eulerian_classical, {"n": 2, "m": 1}, ("n", "m")),
    ("eulerian_degenerate", eulerian_degenerate, {"n": 2, "m": 1}, ("n", "m")),
    ("forward_difference", lambda k: forward_difference([1, 2, 4], k), {"k": 2}, ("k",)),
    ("PolyLambda.__pow__", lambda k: LAM**k, {"k": 2}, ("k",)),
    ("PolyXOverLambda.__pow__", lambda k: PolyXOverLambda.x() ** k, {"k": 2}, ("k",)),
    ("PolyLambda.coefficient", LAM.coefficient, {"i": 1}, ("i",)),
    ("PolyXOverLambda.coefficient", PolyXOverLambda.x().coefficient, {"i": 1}, ("i",)),
    ("TruncatedSeries.one", TruncatedSeries.one, {"order": 2}, ("order",)),
    ("TruncatedSeries.coefficient", SERIES.coefficient, {"n": 2}, ("n",)),
    ("TruncatedSeries.truncate", SERIES.truncate, {"order": 2}, ("order",)),
    ("degenerate_exp", lambda order: degenerate_exp(1, order), {"order": 2}, ("order",)),
    ("degenerate_log", degenerate_log, {"order": 2}, ("order",)),
    ("carlitz_beta", carlitz_beta, {"n": 2}, ("n",)),
    ("carlitz_beta_gf", carlitz_beta_gf, {"n": 1, "order": 2}, ("n", "order")),
    ("classical_bernoulli", classical_bernoulli, {"n": 2}, ("n",)),
    ("gen_beta", gen_beta, {"n": 2, "p": 1}, ("n", "p")),
    ("gen_beta_stirling_sum", gen_beta_stirling_sum, {"n": 2, "p": 1}, ("n", "p")),
    ("gen_beta_gf", gen_beta_gf, {"n": 1, "p": 1, "order": 2}, ("n", "p", "order")),
    ("gen_beta_eulerian", gen_beta_eulerian, {"n": 2, "p": 1}, ("n", "p")),
    ("gen_beta_integral", gen_beta_integral, {"n": 2, "p": 1}, ("n", "p")),
    ("gen_beta_rstirling", gen_beta_rstirling, {"n": 2, "p": 1}, ("n", "p")),
    ("gen_beta_rstirling_simplified", gen_beta_rstirling_simplified, {"n": 2, "p": 1}, ("n", "p")),
    ("gen_beta_classical_limit", gen_beta_classical_limit, {"n": 2, "p": 1}, ("n", "p")),
    ("gen_beta_poly", gen_beta_poly, {"n": 2, "p": 1}, ("n", "p")),
    ("gen_beta_poly_stirling", gen_beta_poly_stirling, {"n": 2, "p": 1}, ("n", "p")),
    ("gen_beta_poly_gf", gen_beta_poly_gf, {"n": 1, "p": 1, "order": 2}, ("n", "p", "order")),
    ("gen_beta_poly_derivative", gen_beta_poly_derivative, {"n": 2, "p": 1}, ("n", "p")),
    (
        "remark_sides",
        lambda n, p, y: remark_sides("addition", n, p, y=y),
        {"n": 2, "p": 1, "y": 1},
        ("n", "p", "y"),
    ),
    ("remark_sides-step", lambda n, p: remark_sides("step", n, p), {"n": 2, "p": 1}, ("n", "p")),
    (
        "remark_sides-ratio",
        lambda n, p, m: remark_sides("ratio", n, p, m=m),
        {"n": 2, "p": 1, "m": 2},
        ("n", "p", "m"),
    ),
    (
        "run_suite",
        lambda max_n, max_p, truncation: run_suite(["Eq11"], max_n, max_p, truncation),
        {"max_n": 1, "max_p": 1, "truncation": 2},
        ("max_n", "max_p", "truncation"),
    ),
    (
        "suite_plan",
        lambda max_n, max_p, truncation: suite_plan(None, max_n, max_p, truncation),
        {"max_n": 1, "max_p": 1, "truncation": 2},
        ("max_n", "max_p", "truncation"),
    ),
]

CASES = [
    pytest.param(call, valid, name, bad, id=f"{route}-{name}-{type(bad).__name__}")
    for route, call, valid, names in ROUTES
    for name in names
    for bad in (True, 2.0, Fraction(1))
]


@pytest.mark.parametrize("call,valid,name,bad", CASES)
def test_non_int_index_is_refused_by_name(call, valid, name, bad):
    call(**valid)  # the valid call works, and warms any memo the bad one could hit
    with pytest.raises(TypeError, match=rf"\b{name} must be int, got {type(bad).__name__}"):
        call(**{**valid, name: bad})


def test_bool_never_answers_from_the_int_memo():
    assert gen_beta(1, 0) == gen_beta(1, 0)
    with pytest.raises(TypeError, match="n must be int, got bool"):
        gen_beta(True, 0)
    assert all(type(n) is int for n, _ in gen_beta.pristine)
