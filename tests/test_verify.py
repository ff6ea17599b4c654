"""The identity suite: selection, reporting, forensics, and mutation detection."""

import hashlib
import json
import pickle

from fractions import Fraction

import pytest

from degenbern import bernoulli, series, triangles, verify
from degenbern.cli import main
from degenbern.exactcore import PolyLambda, PolyXOverLambda
from degenbern.series import TruncatedSeries, degenerate_exp
from degenbern.triangles import substituted
from degenbern.verify import (
    FirstFailure,
    IdentityCase,
    IdentityId,
    IdentityReport,
    explain_failure,
    run_suite,
    suite_plan,
)

SMALL = dict(max_n=6, max_p=2, truncation=8)


@pytest.fixture(scope="module")
def small_suite():
    return run_suite(**SMALL)


class TestRegistry:
    def test_every_identity_documented(self):
        for ident in IdentityId:
            assert isinstance(ident.description, str) and ident.description

    def test_only_the_remark_mult_readings_are_informational(self):
        assert {ident: ident.informational for ident in IdentityId} == {
            ident: ident in (IdentityId.REMARK_MULT_A, IdentityId.REMARK_MULT_B) for ident in IdentityId
        }

    def test_tokens_are_stable_strings(self):
        assert {i.name: i.value for i in IdentityId} == {
            "THM1": "Thm1",
            "THM2": "Thm2",
            "THM3_VS_GF": "Thm3-vs-GF",
            "THM4": "Thm4",
            "THM5": "Thm5",
            "THM6": "Thm6",
            "THM7_VS_THM9": "Thm7-vs-Thm9",
            "PROP8": "Prop8",
            "LEMMA38": "Lemma38",
            "EQ8_PFAFF": "Eq8-Pfaff",
            "EQ9_EULER": "Eq9-Euler",
            "EQ11": "Eq11",
            "EQ12": "Eq12",
            "EQ13": "Eq13",
            "EQ23": "Eq23",
            "EQ26_27": "Eq26-27",
            "EQ30": "Eq30",
            "EQ32_33": "Eq32-33",
            "REMARK_ADD": "Remark-add",
            "REMARK_DIFF": "Remark-diff",
            "REMARK_MULT_A": "Remark-mult-A",
            "REMARK_MULT_B": "Remark-mult-B",
            "STIRLING_DUALITY": "StirlingDuality",
            "CLASSICAL_LIMITS": "ClassicalLimits",
        }
        assert str(IdentityId.THM2) == "Thm2" and f"{IdentityId.EQ26_27}" == "Eq26-27"
        assert IdentityId("Eq11") is IdentityId.EQ11
        assert len(IdentityId) == 24

    def test_members_survive_pickle(self):
        for ident in IdentityId:
            assert pickle.loads(pickle.dumps(ident)) is ident

    def test_unknown_identity_rejected(self):
        with pytest.raises(ValueError, match="unknown identity: Thm99"):
            run_suite(["Thm99"], max_n=2, truncation=4)

    def test_selection_accepts_enum_and_string(self):
        a = run_suite([IdentityId.THM4], max_n=2, truncation=4)
        b = run_suite(["Thm4"], max_n=2, truncation=4)
        assert [r.identity_id for r in a] == [r.identity_id for r in b]


class TestRecords:
    """The report records are immutable and compare and print field by field."""

    def test_field_names_in_order(self):
        assert FirstFailure._fields == ("parameters", "lhs", "rhs", "mismatch_index")
        assert IdentityCase._fields == ("identity_id", "parameters")
        assert IdentityReport._fields == ("identity_id", "cases_run", "cases_passed", "first_failure", "elapsed")

    def test_mismatch_index_defaults_to_none(self):
        failure = FirstFailure((("n", 2),), "1/1", "2/1")
        assert failure.mismatch_index is None
        assert failure == FirstFailure((("n", 2),), "1/1", "2/1", None) != FirstFailure((("n", 2),), "1/1", "2/1", 0)
        assert repr(failure) == "FirstFailure(parameters=(('n', 2),), lhs='1/1', rhs='2/1', mismatch_index=None)"

    def test_passed_reads_the_counts(self):
        assert IdentityReport(IdentityId.THM1, 3, 3, None, 0.0).passed
        assert not IdentityReport(IdentityId.THM1, 3, 2, FirstFailure((), "a", "b"), 0.0).passed

    def test_records_refuse_attribute_assignment(self):
        report = run_suite(["Thm1"], max_n=2, truncation=3)[0]
        (case,) = suite_plan(["Thm1"], max_n=2, truncation=3)
        for record, field in ((report, "cases_passed"), (FirstFailure((), "a", "b"), "lhs"), (case, "parameters")):
            for name in (field, "extra"):
                with pytest.raises(AttributeError):
                    setattr(record, name, None)


class TestCaseCounts:
    def test_one_case_per_row_index(self):
        (report,) = run_suite(["Eq11"], max_n=6, truncation=8)
        assert report.cases_run == 6
        assert report.cases_passed == 6

    def test_row_zero_only(self):
        (report,) = run_suite(["Thm4"], max_n=0, max_p=1, truncation=4)
        assert report.cases_run == 1
        assert report.passed

    def test_positive_start_identities(self):
        (report,) = run_suite(["Thm2"], max_n=1, max_p=0, truncation=4)
        assert report.cases_run == 1
        assert report.passed

    def test_plan_covers_selection(self):
        plan = suite_plan(["Eq11", "Thm4"], max_n=6, max_p=2, truncation=8)
        ids = [case.identity_id for case in plan]
        assert ids == [IdentityId.EQ11, IdentityId.THM4]
        assert plan[0].parameters["n"] == range(1, 7)
        assert plan[1].parameters["n"] == range(0, 7)

    def test_plan_defaults_to_all(self):
        plan = suite_plan(max_n=4, truncation=6)
        assert len(plan) == len(IdentityId)


class TestCleanSuite:
    def test_reports_sorted_and_complete(self, small_suite):
        tokens = [str(r.identity_id) for r in small_suite]
        assert tokens == sorted(tokens)
        assert len(small_suite) == len(IdentityId)

    def test_only_the_recorded_scaling_reading_fails(self, small_suite):
        failing = [r.identity_id for r in small_suite if not r.passed]
        assert failing == [IdentityId.REMARK_MULT_B]

    def test_failure_location_and_sides(self, small_suite):
        report = next(r for r in small_suite if not r.passed)
        ff = report.first_failure
        assert ff.parameters == (("n", 2), ("p", 0), ("m", 2))
        assert ff.mismatch_index == 1
        assert ff.lhs != ff.rhs
        assert report.cases_passed < report.cases_run

    def test_report_invariants(self, small_suite):
        for report in small_suite:
            assert 0 <= report.cases_passed <= report.cases_run
            assert report.passed == (report.first_failure is None)
            assert report.elapsed >= 0.0

    def test_deterministic_apart_from_timing(self, small_suite):
        again = run_suite(**SMALL)
        strip = lambda r: (r.identity_id, r.cases_run, r.cases_passed, r.first_failure)
        assert [strip(r) for r in small_suite] == [strip(r) for r in again]


class TestExplainFailure:
    def test_message_contents(self, small_suite):
        report = next(r for r in small_suite if not r.passed)
        text = explain_failure(report)
        assert text.startswith("Remark-mult-B failed at n=2, p=0, m=2")
        assert "lhs:" in text and "rhs:" in text
        assert "first differing coefficient index: 1" in text

    def test_requires_a_failure(self, small_suite):
        passing = next(r for r in small_suite if r.passed)
        with pytest.raises(ValueError, match="no failure to explain"):
            explain_failure(passing)


class TestValidation:
    def test_truncation_must_cover_rows(self):
        with pytest.raises(ValueError, match="insufficient series order"):
            run_suite(["Thm1"], max_n=8, truncation=8)

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            run_suite(["Thm1"], max_n=-1, truncation=4)
        with pytest.raises(ValueError):
            run_suite(["Thm3-vs-GF"], max_n=2, max_p=-1, truncation=4)


class TestBoundsAreOneCheck:
    """suite_plan refuses exactly what run_suite refuses."""

    ENTRY_POINTS = {
        "run_suite": lambda **bounds: run_suite(["Eq11"], **bounds),
        "suite_plan": lambda **bounds: suite_plan(["Eq11"], **bounds),
    }

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "bounds,message",
        [
            (dict(max_n=-1, truncation=4), "max_n must be nonnegative"),
            (dict(max_n=2, max_p=-1, truncation=4), "max_p must be nonnegative"),
            (dict(max_n=8, truncation=3), "insufficient series order"),
        ],
        ids=["max_n", "max_p", "truncation"],
    )
    def test_unrunnable_bounds_refused(self, entry, bounds, message):
        with pytest.raises(ValueError, match=message):
            self.ENTRY_POINTS[entry](**bounds)


def _s2_substituted(n, k, value):
    """The scope in which stirling2_deg(n, k) reads value: row n of the
    degenerate second-kind triangle with entry k replaced."""
    key = (n, 0, False, PolyLambda.lam())
    row = triangles._row(*key)
    return substituted(triangles._row, key, row[:k] + (PolyLambda.constant(value),) + row[k + 1 :])


@pytest.mark.parametrize(
    "position,message",
    [
        ((True, 0), "n must be int, got bool"),
        ((2.0, 1), "n must be int, got float"),
        ((2, 3), r"type and shape of _row\(2, 0, False"),
    ],
    ids=["bool", "float", "k-past-n"],
)
def test_corruption_position_it_cannot_honour_is_refused(position, message):
    # the row's own index check, or substituted's shape check on a row one entry too long
    with pytest.raises(TypeError, match=message):
        with _s2_substituted(*position, 1):
            pytest.fail("a refused corruption ran its block")
    assert triangles._substitution.get() is None


def test_corruption_past_max_n_is_not_read(small_suite):
    with _s2_substituted(9, 9, 0):
        reports = run_suite(**SMALL)
    assert _report_digest(reports) == _report_digest(small_suite)


class TestMutationDetection:
    def test_corrupted_table_entry_is_caught(self):
        with _s2_substituted(4, 2, 0):
            reports = run_suite(max_n=6, max_p=2, truncation=8)
        failing = {r.identity_id for r in reports if not r.passed}
        assert IdentityId.STIRLING_DUALITY in failing
        assert len(failing) > 1

    def test_corruption_localizes_to_dependent_identities(self):
        with _s2_substituted(4, 2, 0):
            reports = run_suite(["StirlingDuality", "Eq8-Pfaff"], max_n=6, max_p=2, truncation=8)
        by_id = {r.identity_id: r for r in reports}
        assert not by_id[IdentityId.STIRLING_DUALITY].passed
        # the hypergeometric transformation never consults the table
        assert by_id[IdentityId.EQ8_PFAFF].passed

    def test_duality_failure_names_first_bad_row(self):
        with _s2_substituted(4, 2, 0):
            (report,) = run_suite(["StirlingDuality"], max_n=6, max_p=2, truncation=8)
        assert report.first_failure.parameters[0] == ("n", 4)


# Canonical reports of run_suite(**SMALL), clean and under five substituted
# triangle entries, as the sha256 of their JSON form.  The corruptions fail
# 12-14 of the 24 identities each, so these pin most failure paths: where a
# case stops, which sides it reports and the coefficient index it names.
_LAM = PolyLambda.lam()
PINNED_REPORTS = {
    "clean": (None, "337f60e0ef382b9d13e5aa85b20c64693f9032afb99ad90174cb5914ddd316a6"),
    "s2(4,2)=0": ((4, 2, 0), "a9b6179b2ec581b34c3dabe7088a43fd2725941265815d642d6cc72b72d4b33f"),
    "s2(3,1)=1": ((3, 1, 1), "d186d9029be77f9d66b0d2fd4f1241395273e78e01d82567b0da80e8d15485a1"),
    "s2(5,5)=l": ((5, 5, _LAM), "e076ac8bc60ff96dc7c8057885a35847a7fb232864b7b42f7e7766353ced98bd"),
    "s2(6,0)=1": ((6, 0, 1), "8848ac80d48ac75770c75291ee1ca9619142f20a96bca63f3e5ea36c91e732f5"),
    "s2(2,1)=1+l": (
        (2, 1, 1 + _LAM),
        "a3c4bdb239403b40c06ed9860534716d8e0e2bb96097de3d4234541adf1a2b09",
    ),
}

# suite_plan ranges as (start, stop) at max_n 6 and at max_n 0, max_p 2
PINNED_PLAN = {
    "ClassicalLimits": ({"n": (0, 7), "k": (0, 7)}, {"n": (0, 1), "k": (0, 1)}),
    "Eq11": ({"n": (1, 7)}, {"n": (1, 1)}),
    "Eq12": ({"n": (0, 7), "m": (0, 7)}, {"n": (0, 1), "m": (0, 1)}),
    "Eq13": ({"n": (0, 7)}, {"n": (0, 1)}),
    "Eq23": ({"n": (0, 7)}, {"n": (0, 1)}),
    "Eq26-27": ({"n": (0, 7), "k": (0, 9)}, {"n": (0, 1), "k": (0, 3)}),
    "Eq30": ({"n": (0, 7)}, {"n": (0, 1)}),
    "Eq32-33": ({"n": (0, 7), "k": (0, 7), "r": (1, 3)}, {"n": (0, 1), "k": (0, 1), "r": (1, 3)}),
    "Eq8-Pfaff": ({"n": (0, 7), "p": (0, 3)}, {"n": (0, 1), "p": (0, 3)}),
    "Eq9-Euler": ({"n": (0, 7), "p": (0, 3)}, {"n": (0, 1), "p": (0, 3)}),
    "Lemma38": ({"n": (0, 7), "k": (0, 7)}, {"n": (0, 1), "k": (0, 1)}),
    "Prop8": ({"n": (1, 7), "p": (0, 3)}, {"n": (1, 1), "p": (0, 3)}),
    "Remark-add": ({"n": (0, 7), "p": (0, 3)}, {"n": (0, 1), "p": (0, 3)}),
    "Remark-diff": ({"n": (0, 7), "p": (0, 3)}, {"n": (0, 1), "p": (0, 3)}),
    "Remark-mult-A": (
        {"n": (0, 7), "p": (0, 3), "m": (2, 4)},
        {"n": (0, 1), "p": (0, 3), "m": (2, 4)},
    ),
    "Remark-mult-B": (
        {"n": (0, 7), "p": (0, 3), "m": (2, 4)},
        {"n": (0, 1), "p": (0, 3), "m": (2, 4)},
    ),
    "StirlingDuality": ({"n": (0, 7), "k": (0, 7)}, {"n": (0, 1), "k": (0, 1)}),
    "Thm1": ({"n": (0, 7)}, {"n": (0, 1)}),
    "Thm2": ({"n": (1, 7)}, {"n": (1, 1)}),
    "Thm3-vs-GF": ({"n": (0, 7), "p": (-1, 3)}, {"n": (0, 1), "p": (-1, 3)}),
    "Thm4": ({"n": (0, 7), "p": (0, 3)}, {"n": (0, 1), "p": (0, 3)}),
    "Thm5": ({"n": (1, 7), "p": (1, 3)}, {"n": (1, 1), "p": (1, 3)}),
    "Thm6": ({"n": (0, 7), "p": (0, 3)}, {"n": (0, 1), "p": (0, 3)}),
    "Thm7-vs-Thm9": ({"n": (0, 7), "p": (0, 3)}, {"n": (0, 1), "p": (0, 3)}),
}


def _report_digest(reports) -> str:
    rows = []
    for r in reports:
        ff = r.first_failure
        failure = None
        if ff is not None:
            failure = [[list(p) for p in ff.parameters], ff.lhs, ff.rhs, ff.mismatch_index]
        rows.append([str(r.identity_id), r.cases_run, r.cases_passed, failure])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _plan_ranges(max_n: int) -> dict:
    plan = suite_plan(max_n=max_n, max_p=2, truncation=max_n + 2)
    assert all(r.step == 1 for case in plan for r in case.parameters.values())
    return {
        str(case.identity_id): {
            name: (r.start, r.stop) for name, r in case.parameters.items()
        }
        for case in plan
    }


class TestPinnedReports:
    @pytest.mark.parametrize("name", list(PINNED_REPORTS))
    def test_reports_match_pinned_digest(self, name, small_suite):
        corruption, digest = PINNED_REPORTS[name]
        if corruption is None:
            reports = small_suite
        else:
            with _s2_substituted(*corruption):
                reports = run_suite(**SMALL)
        assert _report_digest(reports) == digest

    def test_suite_after_a_cli_sweep_matches_the_clean_digest(self, capsys):
        # the sweeps drop pristine rows; the suite builds them again
        for family in ("beta", "stirling2", "eulerian-deg"):
            assert main(["compute", family, "--max-n", "9", "--format", "csv"]) == 0
        capsys.readouterr()
        assert _report_digest(run_suite(**SMALL)) == PINNED_REPORTS["clean"][1]

    def test_suite_drops_no_row(self):
        # every second-kind row the suite read is still in the memo after it
        kept = dict(triangles._row.pristine)
        try:
            triangles._row.pristine.clear()
            run_suite(**SMALL)
            rows = {key[0] for key in triangles._row.pristine if key[1:] == (0, False, _LAM)}
        finally:
            triangles._row.pristine.clear()
            triangles._row.pristine.update(kept)
        assert rows >= set(range(SMALL["max_n"] + 1))

    def test_plan_ranges_match_pinned(self):
        six, zero = _plan_ranges(6), _plan_ranges(0)
        assert {k: (six[k], zero[k]) for k in six} == PINNED_PLAN


def _bumped(value, path):
    """value plus one at path: element indices into tuples and series
    coefficients, down to one ring element."""
    if not path:
        return value + 1
    i, rest = path[0], path[1:]
    if isinstance(value, tuple):
        return value[:i] + (_bumped(value[i], rest),) + value[i + 1 :]
    c = value.coeffs
    return TruncatedSeries(value.ring, c[:i] + (_bumped(c[i], rest),) + c[i + 1 :])


_ORDER = SMALL["truncation"]
_ONE = PolyLambda.one()
_E_MINUS_ONE = degenerate_exp(1, _ORDER) - TruncatedSeries.one(PolyLambda, _ORDER)

# One substituted entry per memoized builder (for a tuple or a series one
# element, at the path given) and the identities whose verdict on
# run_suite(**SMALL) it flips.  Each set is what the identities must keep
# catching: an empty one would mean no identity reads that builder's entry.
CATCH_MATRIX = {
    "_falling_chain-e_l": (
        triangles._falling_chain,
        (int, 1, PolyLambda, _LAM, _ONE, _ORDER),
        (3,),
        {"Eq32-33", "Thm3-vs-GF", "Thm4", "Thm5", "Thm6", "Thm7-vs-Thm9"},
    ),
    # gen_beta and eulerian_degenerate sum by Horner in the factors l - k, so
    # only the routes that still multiply by log_weight read this entry
    "log_weight": (triangles.log_weight, (3,), (), {"Eq30", "Thm2", "Thm6", "Thm7-vs-Thm9"}),
    "_row-first-kind": (
        triangles._row,
        (4, 0, True, _LAM),
        (2,),
        {"ClassicalLimits", "StirlingDuality", "Thm2"},
    ),
    "_row-second-kind": (
        triangles._row,
        (4, 0, False, _LAM),
        (2,),
        {
            "ClassicalLimits", "Eq12", "Eq23", "Eq26-27", "Eq32-33", "Lemma38", "StirlingDuality",
            "Thm1", "Thm2", "Thm3-vs-GF", "Thm4", "Thm5", "Thm7-vs-Thm9",
        },
    ),
    "_poly_entry-symbolic": (triangles._poly_entry, (4, 2, type(None), None), (), {"Lemma38", "Thm7-vs-Thm9"}),
    "_poly_entry-r": (triangles._poly_entry, (4, 2, Fraction, Fraction(1)), (), {"Eq32-33", "Thm5"}),
    "eulerian_degenerate": (triangles.eulerian_degenerate, (4, 1), (), {"ClassicalLimits", "Eq30", "Thm4"}),
    "_carlitz_series": (bernoulli._carlitz_series, (_ORDER,), (4,), {"Thm1"}),
    "classical_bernoulli": (bernoulli.classical_bernoulli, (4,), (), {"ClassicalLimits"}),
    # gen_beta_poly, its derivative and the remark rules all read the same
    # corrupted number, so only the independent polynomial routes notice
    "gen_beta": (bernoulli.gen_beta, (4, 1), (), {"Thm7-vs-Thm9"}),
    "_gen_beta_series": (
        bernoulli._gen_beta_series,
        (1, _ORDER),
        (4,),
        {"Eq8-Pfaff", "Eq9-Euler", "Thm3-vs-GF", "Thm4", "Thm5", "Thm6", "Thm7-vs-Thm9"},
    ),
    "_shifted_rising": (bernoulli._shifted_rising, (3,), (), {"Thm5"}),
    "gen_beta_poly": (
        bernoulli.gen_beta_poly,
        (4, 1),
        (),
        {"Prop8", "Remark-add", "Remark-diff", "Remark-mult-A", "Thm7-vs-Thm9"},
    ),
    "_gen_beta_poly_series": (bernoulli._gen_beta_poly_series, (1, _ORDER), (4,), {"Thm7-vs-Thm9"}),
    # the powers of e_l(t) - 1 that compose shares with the restricted columns
    "_scaled_powers": (
        series._scaled_powers,
        (_E_MINUS_ONE, _ORDER),
        (2, 4),
        {"Eq32-33", "Eq8-Pfaff", "Eq9-Euler"},
    ),
    "_transform_side": (verify._transform_side, ("pfaff", 1, _ORDER), (4,), {"Eq8-Pfaff"}),
    "_restricted_column": (verify._restricted_column, (2, 1, _ORDER), (4,), {"Eq32-33"}),
}


def _verdicts(reports) -> dict:
    return {str(r.identity_id): r.passed for r in reports}


class TestCatchMatrix:
    def test_every_memoized_builder_is_covered(self):
        builders = {
            value
            for module in (triangles, bernoulli, series, verify)
            for value in vars(module).values()
            if getattr(value, "pristine", None) is not None and value.__module__ == module.__name__
        }
        assert builders == {builder for builder, *_ in CATCH_MATRIX.values()}
        assert len(builders) == 15

    @pytest.mark.parametrize("name", list(CATCH_MATRIX))
    def test_substituted_entry_flips_exactly_the_pinned_identities(self, name, small_suite):
        builder, args, path, caught = CATCH_MATRIX[name]
        value = _bumped(builder(*args), path)
        with substituted(builder, args, value):
            reports = run_suite(**SMALL)
        clean = _verdicts(small_suite)
        assert {token for token, passed in _verdicts(reports).items() if passed != clean[token]} == caught


class TestRemarkAddEquivalence:
    """Remark-add compares the l-step rule B_m(x + l) - B_m(x) = m l B_{m-1}(x)
    at row m.  By Newton's expansion with step l, the literal addition rule
    holds at row n for every y exactly when the step rule holds at rows 1..n,
    so the literal y = 0..n sweep fails at row n exactly when Remark-add fails
    at some row m <= n.  A corrupted B_4 is caught by the step rule where B_4
    appears: at m = 5, and at m = 4 unless the bump is a constant, which
    cancels in B_4(x + l) - B_4(x)."""

    @pytest.mark.parametrize(
        "bump,step_rows", [(PolyXOverLambda.x(), {4, 5}), (1, {5})], ids=["plus-x", "plus-one"]
    )
    def test_suite_rows_match_the_literal_sweep(self, bump, step_rows):
        rows = range(SMALL["max_n"] + 1)
        with substituted(bernoulli.gen_beta_poly, (4, 1), bernoulli.gen_beta_poly(4, 1) + bump):
            failed = [
                report.cases_run - report.cases_passed
                for top in rows
                for report in run_suite(["Remark-add"], max_n=top, max_p=1, truncation=top + 1)
            ]
            literal_rows = {
                n
                for n in rows
                for y in range(n + 1)
                for lhs, rhs in [bernoulli.remark_sides("addition", n, 1, y=y)]
                if lhs != rhs
            }
        suite_rows = {n for n in rows if failed[n] > (failed[n - 1] if n else 0)}
        assert suite_rows == step_rows
        assert literal_rows == {n for n in rows if n >= min(step_rows)}
