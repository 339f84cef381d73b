import pytest

from bellgraphs.suites import SUITE_NAMES, run_suite

# Host-size bound per suite: as large as keeps the whole sweep to seconds.
N_MAX = {"lineroot": 6, "full-recon": 6, "classify": 4}


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_has_no_failures(suite):
    report = run_suite(suite, N_MAX.get(suite, 5), seeds=2)
    failed = [item.to_json() for item in report.items if item.status == "fail"]
    assert report.items and failed == []
