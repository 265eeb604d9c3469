"""The golden runs of ``golden_runs.py`` reproduce their committed records:
the ledger exactly, accuracies within one test row, losses and array norms
within GOLDEN_RTOL relative, or a run's own ``RTOLS`` entry."""

import pytest

from golden_runs import (CONFIGS, GOLDEN_RTOL, RTOLS, load_golden, measure, pinned_values,
                         write_tsv_sets)


@pytest.fixture(scope="module")
def tsv_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-sets")
    write_tsv_sets(str(root))
    return str(root)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_run_matches_its_golden_record(name, tsv_root):
    golden = load_golden(name)
    assert golden["config"] == CONFIGS[name], "config changed: regenerate the golden files"
    record = measure(name, tsv_root)
    assert record["ledger"] == golden["ledger"]
    assert len(record["users"]) == len(golden["users"])
    for uid, (user, pinned) in enumerate(zip(record["users"], golden["users"])):
        assert user["test_rows"] == pinned["test_rows"]
        assert abs(user["accuracy"] - pinned["accuracy"]) <= 1.0 / pinned["test_rows"] + 1e-12, \
            f"user {uid} accuracy moved by more than one test row"
        assert (user["teacher_norms"] is None) == (pinned["teacher_norms"] is None)
    got, want = pinned_values(record), pinned_values(golden)
    rtol = RTOLS.get(name, GOLDEN_RTOL)
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=rtol, abs=1e-12), key
