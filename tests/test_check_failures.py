"""The CI verdict script `.github/check_failures.py`, fed synthetic JUnit reports."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("check_failures", ROOT / ".github" / "check_failures.py")
check_failures = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_failures)

CRITERION_5 = '<testcase classname="tests.test_acceptance" name="test_criterion_5_lie_operator_as_published">'
PASSING = '<testcase classname="tests.test_verify.TestHybe" name="test_it_holds" />'
FAILING = '<testcase classname="tests.test_verify.TestHybe" name="test_it_fails"><failure message="no" /></testcase>'
# what pytest writes for a module that fails to import
COLLECTION_ERROR = '<testcase classname="" name="tests.test_broken"><error message="collection failure" /></testcase>'

REPORTS = {
    "only-criterion-5-fails": ([PASSING, CRITERION_5 + '<failure message="hybe" /></testcase>'], 0),
    "another-failure": ([FAILING, CRITERION_5 + '<failure message="hybe" /></testcase>'], 1),
    "a-collection-error": ([COLLECTION_ERROR, CRITERION_5 + '<failure message="hybe" /></testcase>'], 1),
    "criterion-5-passes": ([PASSING, CRITERION_5 + "</testcase>"], 1),
    "no-test-cases": ([], 1),
}


@pytest.mark.parametrize("cases, code", REPORTS.values(), ids=REPORTS)
def test_only_the_documented_failure_passes(cases, code, tmp_path, capsys):
    junit = tmp_path / "junit.xml"
    junit.write_text(f'<testsuites><testsuite name="pytest">{"".join(cases)}</testsuite></testsuites>',
                     encoding="utf-8")
    assert check_failures.main(["check_failures.py", str(junit), str(ROOT)]) == code
    assert capsys.readouterr().out.startswith(f"{len(cases)} test cases")


def test_a_class_name_maps_to_the_pytest_id():
    assert (check_failures.node_id("tests.test_verify.TestX", "name", ROOT)
            == "tests/test_verify.py::TestX::name")
    assert (check_failures.node_id("tests.test_acceptance", "test_criterion_5_lie_operator_as_published", ROOT)
            in check_failures.EXPECTED_FAILURES)
