"""The contract of `verify.run_suite`: which keyword reaches which check."""

import re
from inspect import signature

import pytest

from immaculate import cli, verify

NAMES = ["golden", "replay", "bijection", "oracle", "skew-oracle", "census",
         "signs", "ribbon", "roundtrips", "duality", "forgetful",
         "diagram-invariants"]
SEEDED = {"bijection", "skew-oracle", "census", "signs", "roundtrips",
          "diagram-invariants"}
SIZED = {"oracle", "ribbon", "roundtrips", "duality", "forgetful"}


#: What a recorder is given for a parameter that run_suite did not pass.
UNSET = object()


@pytest.fixture
def calls(monkeypatch):
    """Swap every check for one with the real check's parameters that
    records the keywords it was given and reports them as its detail."""
    seen = {}

    def recorder(name, params):
        def record(**kwargs):
            seen[name] = {k: v for k, v in kwargs.items() if v is not UNSET}
            return {"check": name, "pass": True, "detail": repr(seen[name])}
        return {
            (): lambda: record(),
            ("seed",): lambda seed=UNSET: record(seed=seed),
            ("max_n",): lambda max_n=UNSET: record(max_n=max_n),
            ("max_n", "seed"): lambda max_n=UNSET, seed=UNSET: record(
                max_n=max_n, seed=seed),
        }[params]

    for name in NAMES:
        params = tuple(signature(verify.CHECKS[name]).parameters)
        monkeypatch.setitem(verify.CHECKS, name, recorder(name, params))
    return seen


def test_checks_take_only_seed_and_max_n():
    params = {name: set(signature(fn).parameters)
              for name, fn in verify.CHECKS.items()}
    assert params == {
        name: ({"seed"} if name in SEEDED else set())
        | ({"max_n"} if name in SIZED else set())
        for name in NAMES}
    assert sum(map(len, params.values())) == 11


def test_seed_reaches_the_seeded_checks(calls):
    verify.run_suite(seed=9)
    assert calls == {name: {"seed": 9} if name in SEEDED else {}
                     for name in NAMES}


def test_max_n_reaches_the_sized_checks(calls):
    verify.run_suite(max_n=3)
    assert calls == {name: {"max_n": 3} if name in SIZED else {}
                     for name in NAMES}


def test_both_keywords_reach_a_check_that_takes_both(calls):
    verify.run_suite(["roundtrips", "golden"], seed=0, max_n=1)
    assert calls == {"roundtrips": {"seed": 0, "max_n": 1}, "golden": {}}


def test_a_misspelt_keyword_raises(calls):
    with pytest.raises(TypeError):
        verify.run_suite(["duality"], max_nn=3)
    assert calls == {}


def test_a_new_check_gets_the_seed_by_its_parameter_alone(calls, monkeypatch):
    # no list besides CHECKS names the checks that take a seed
    def check_new(seed=0):
        calls["new"] = {"seed": seed}
        return {"check": "new", "pass": True, "detail": "ok"}

    monkeypatch.setitem(verify.CHECKS, "new", check_new)
    verify.run_suite(["new", "golden"], seed=7, max_n=2)
    assert calls == {"new": {"seed": 7}, "golden": {}}


@pytest.mark.parametrize("argv, kwargs", [((), {}),
                                          (("--seed", "3"), {"seed": 3})])
def test_cli_verify_runs_what_run_suite_runs(calls, capsys, argv, kwargs):
    # without --seed each check runs at its own default, as in run_suite()
    assert cli.main(["verify", *argv]) == 0
    printed = capsys.readouterr().out.splitlines()
    via_cli = dict(calls)
    calls.clear()
    reports = verify.run_suite(**kwargs)
    assert calls == via_cli
    assert printed == [f"{r['check']:<20} pass  {r['detail']}" for r in reports]
    assert len(printed) == len(NAMES)


@pytest.mark.parametrize("names", ["golden", "bijection,signs", ""])
def test_names_as_one_string_raise_before_any_check(calls, names):
    # a str is iterable, so it would be read as one check per character
    with pytest.raises(ValueError,
                       match="^names must be a list of check names, not a str$"):
        verify.run_suite(names)
    assert calls == {}


def test_default_suite_passes_every_check_in_order():
    assert verify.run_suite() == [
        {"check": name, "pass": True, "detail": "ok"} for name in NAMES]


@pytest.mark.parametrize("max_n", [-1, 0, 9, 12])
def test_max_n_outside_1_to_8_raises_before_any_check(calls, max_n):
    # 0 would pass every sized check vacuously, and 12 would fold 4^11
    # compositions in duality
    message = f"--n (max_n) must be between 1 and 8, got {max_n}"
    with pytest.raises(ValueError, match=re.escape(message)):
        verify.run_suite(max_n=max_n)
    assert calls == {}


def test_max_n_at_either_end_reaches_the_check(calls):
    verify.run_suite(["duality", "oracle"], max_n=8)
    verify.run_suite(["ribbon"], max_n=1)
    assert calls == {"duality": {"max_n": 8}, "oracle": {"max_n": 8},
                     "ribbon": {"max_n": 1}}
