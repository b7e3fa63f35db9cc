import json
from pathlib import Path

import pytest

from hopfcqt.catalog import CHECKS, entry_ids, get_entry, run_entry
from hopfcqt.cqt import necessary_battery
from hopfcqt.errors import UnknownEntry
from hopfcqt.serialize import bundle_to_json, context_from_json, context_to_json

GOLDEN = Path(__file__).parent / "golden"
CONTEXTS = GOLDEN / "contexts.json"


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


def contexts_snapshot():
    "context_to_json of every entry's context, as one document."
    return json.dumps({eid: context_to_json(get_entry(eid).context()) for eid in entry_ids()},
                      indent=2, sort_keys=True) + "\n"


def test_catalog_contexts_match_golden():
    # the groups, generator actions and cocycle tables of every entry; with
    # test_action_table_matches_word_folding this pins each action on the window.
    # Regenerate with `PYTHONPATH=src:tests python tests/test_catalog.py` only
    # for a change that is meant to alter a catalog context.
    assert contexts_snapshot() == CONTEXTS.read_text()


@pytest.mark.parametrize("entry_id", [
    pytest.param(eid, marks=pytest.mark.xfail(
        strict=True, reason="the K4 quotient lives on the catalog entry, not on the context, "
                            "so the round trip lifts no quotient characters; ROADMAP item 12 "
                            "deletes the quotient path"))
    if eid == "Q8_Z" else eid for eid in entry_ids()])
def test_battery_survives_a_json_round_trip(entry_id):
    entry = get_entry(entry_id)
    H, bound = entry.context(), entry.default_bound
    loaded = context_from_json(context_to_json(H))
    assert ([r.to_json() for r in necessary_battery(loaded, bound)]
            == [r.to_json() for r in necessary_battery(H, bound, entry.quotient_homs())])


if __name__ == "__main__":
    CONTEXTS.write_text(contexts_snapshot())
