"""The standing mutant gate (tests/mutants.py) takes minutes to run; its
patches are checked here in milliseconds, so a change that leaves one stale
fails the ordinary test run."""

import mutants

SRC = mutants.ROOT / "src" / "mdsx"


def test_every_mutant_patch_still_applies():
    # the old text occurs exactly once in its file, and the tests that
    # must kill the mutant exist
    stale = [name for name, path, old, _, tests in mutants.MUTANTS
             if (SRC / path).read_text().count(old) != 1
             or not all((mutants.ROOT / t).exists() for t in tests)]
    assert stale == []
