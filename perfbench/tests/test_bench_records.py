"""Record-key checks, exit-code classification and fail_frac counting."""

import pytest

from records import CSV_HEADER, check_run, parse_csv

ROWS = [
    "spin,p=10,so3-closure,1e-15,1e-10,true",
    "spin,k=1;p=10,ccr-weight-defect,0.2,,true",
    "clifford,nu=30,gamma-anticommutation,nan,,skip:register of 30 sites exceeds cap 22",
]
KEYS = {
    ("spin", "p=10", "so3-closure"),
    ("spin", "k=1;p=10", "ccr-weight-defect"),
    ("clifford", "nu=30", "gamma-anticommutation"),
}


def csv(rows) -> bytes:
    return ("\n".join([CSV_HEADER] + rows) + "\n").encode()


def test_skip_records_count_as_failed_under_exit_3():
    check = check_run(3, csv(ROWS), KEYS)
    assert check.ok, check.problems
    assert (check.status, check.attempted, check.failed, check.skipped) == (
        "resource", 3, 1, 1,
    )
    assert check.fail_frac == pytest.approx(1 / 3)
    assert check.failing == [("clifford", "nu=30", "gamma-anticommutation")]


def test_bounded_false_counts_as_failed_and_needs_exit_1():
    rows = ["spin,p=10000,so3-closure,1.8e-09,1e-10,false"] + ROWS[1:]
    check = check_run(1, csv(rows), {("spin", "p=10000", "so3-closure")} | KEYS - {
        ("spin", "p=10", "so3-closure")
    })
    assert check.ok, check.problems
    assert check.status == "identity-failure"
    assert check.failed == 2
    assert check.margin_max == pytest.approx(18.0)


def test_exit_code_must_agree_with_records():
    check = check_run(0, csv(ROWS), KEYS)
    assert not check.ok
    assert "records imply 3" in check.problems[0]


def test_missing_and_unexpected_keys_are_reported():
    rows = ROWS[:2] + ["spin,p=11,so3-closure,1e-15,1e-10,true"]
    check = check_run(0, csv(rows), KEYS)
    assert any("1 missing, 1 unexpected" in p for p in check.problems)


def test_duplicate_keys_are_reported():
    check = check_run(3, csv(ROWS + ROWS[:1]), KEYS)
    assert "duplicate record keys" in check.problems


@pytest.mark.parametrize("code, payload", [(70, None), (-9, csv(ROWS)), (1, None)])
def test_a_crashed_run_fails_every_expected_record(code, payload):
    check = check_run(code, payload, KEYS)
    assert check.status == "crash"
    assert check.attempted == check.failed == len(KEYS)
    assert check.fail_frac == 1.0
    assert not check.ok


def test_unreadable_file_counts_as_crash():
    check = check_run(0, b"not,a,record,file\n", KEYS)
    assert check.status == "crash"
    assert check.fail_frac == 1.0


def test_parse_rejects_short_lines():
    with pytest.raises(ValueError):
        parse_csv(CSV_HEADER + "\nspin,p=10,so3-closure\n")


def test_sha256_is_of_the_exact_bytes():
    a = check_run(3, csv(ROWS), KEYS)
    b = check_run(3, csv(ROWS).replace(b"1e-15", b"2e-15"), KEYS)
    assert a.sha256 != b.sha256
