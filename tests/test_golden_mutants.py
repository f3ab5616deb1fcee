"""Seeded model-file mutants keep the parse outcome recorded in
``tests/golden_mutants.jsonl`` (see ``tests/mutants.py``)."""

import pytest

from tests.mutants import SEEDS, mutants, outcome, recorded

RECORDED = recorded()


@pytest.mark.parametrize("fixture", sorted(SEEDS))
def test_mutants_keep_their_recorded_outcome(fixture):
    """Every mutant that parsed or was rejected without a crash when the
    outcomes were recorded gives the same model or the same issues."""
    wants = RECORDED[fixture]
    generated = list(mutants(fixture))
    assert len(generated) == len(wants)
    mismatches = [
        (i, applied, want, got)
        for i, ((text, applied), want) in enumerate(zip(generated, wants))
        if "crash" not in want and (got := outcome(text)) != want
    ]
    assert not mismatches, f"{len(mismatches)} mutants changed; first: {mismatches[0]}"



@pytest.mark.parametrize("fixture", sorted(SEEDS))
def test_no_mutant_crashes_the_parser(fixture):
    crashes = [(applied, got) for text, applied in mutants(fixture) if "crash" in (got := outcome(text))]
    assert not crashes, f"{len(crashes)} mutants crash; first: {crashes[0]}"
