"""The seeded loop that ``helpers.property_test`` returns when hypothesis is
not installed, run here with hypothesis hidden from the harness: the loop is
named after its check, runs the fixed cases and then ``examples`` draws, and
draws the same cases on every run."""

from random import Random

import helpers


def test_seeded_loop_runs_the_fixed_cases_then_the_same_draws(monkeypatch):
    monkeypatch.setattr(helpers, "st", None)
    seen = []

    def check_cases(case):
        seen.append(case)

    harness = helpers.property_test(4, None, lambda rng: rng.getrandbits(32), fixed=("a", "b"))
    loop = harness(check_cases)
    assert loop.__name__ == "check_cases"
    loop()
    rng = Random("check_cases")
    assert seen == ["a", "b"] + [rng.getrandbits(32) for _ in range(4)]
    loop()
    assert seen[6:] == seen[:6]
