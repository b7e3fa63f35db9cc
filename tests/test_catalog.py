import json
from pathlib import Path

import pytest

from hopfcqt.catalog import CHECKS, entry_ids, get_entry, run_entry
from hopfcqt.errors import UnknownEntry
from hopfcqt.serialize import bundle_to_json

GOLDEN = Path(__file__).parent / "golden"


def test_entry_listing():
    ids = entry_ids()
    for expected in ("Z2_Dinf", "Z3_Dinf", "Q8_Dinf", "Z3_Z", "Q8_Z", "S3_Z2",
                     "Z2_Z", "Z2_Z2_tau", "Z2_Z2xZ_central"):
        assert expected in ids


def test_unknown_entry_and_check():
    with pytest.raises(UnknownEntry):
        get_entry("nope")
    with pytest.raises(UnknownEntry):
        run_entry("Z2_Z", checks=["nope"])


@pytest.mark.parametrize("entry_id", entry_ids())
def test_every_entry_reproduces_expected_verdicts(entry_id):
    bundle = run_entry(entry_id)
    bad = [(rec["check"], rec["observed"], rec["expected"])
           for rec in bundle["records"] if not rec["matches"]]
    assert bundle["all_match"], bad
    # byte for byte what `hopfcqt run --entry <id> --json` printed when pinned
    text = json.dumps(bundle_to_json(bundle), indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN / (entry_id + ".json")).read_text()


def test_run_entry_subset_of_checks():
    bundle = run_entry("Z3_Z", checks=["necessary-battery"])
    assert [rec["check"] for rec in bundle["records"]] == ["necessary-battery"]
    assert bundle["records"][0]["observed"] == "fail"
    assert bundle["all_match"]


def test_checks_registry_is_complete():
    used = set()
    for eid in entry_ids():
        used |= set(get_entry(eid).expected)
    assert used <= set(CHECKS)
