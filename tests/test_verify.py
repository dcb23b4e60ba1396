import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

import covmod
from covmod import ValidationError, verify_module_axioms, verify
from covmod.verify import (
    builtin_corpus,
    check_fast_kernels,
    check_full_agreement,
    check_norm_bound,
    check_pullback_shift,
    check_txi_homomorphism,
    run_verification,
)

DELETED = (
    "average_over_subgroup",
    "char_eval",
    "is_covariant",
    "l1_norm",
    "max_abs_diff",
)


@pytest.fixture(scope="module")
def corpus():
    return {entry.name: entry for entry in builtin_corpus()}


@pytest.mark.parametrize(
    "check", [check_norm_bound, check_txi_homomorphism, check_full_agreement]
)
def test_nan_sections_fail_their_rows(corpus, monkeypatch, check):
    original = verify._module_action

    def nan_action(*args):
        return np.full_like(original(*args), complex("nan"))

    monkeypatch.setattr(verify, "_module_action", nan_action)
    row = check(corpus["S3/A3"], 42, 3)
    assert math.isnan(row["residual"]), row
    assert not row["passed"], row


def test_fast_kernels_do_not_swallow_unexpected_errors(corpus, monkeypatch):
    def broken(*args):
        raise RuntimeError("kernel failed")

    monkeypatch.setattr(verify, "_module_action", broken)
    with pytest.raises(RuntimeError):
        check_fast_kernels(corpus["WH(2,4)/K"], 42, 1)


def test_pullback_shift_does_not_swallow_unexpected_errors(corpus, monkeypatch):
    def broken(sd):
        raise RuntimeError("shape probe failed")

    monkeypatch.setattr(verify, "_wh_parameters", broken)
    with pytest.raises(RuntimeError):
        check_pullback_shift(corpus["Heis2/center"], 42, 1)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_a_tolerance_that_judges_nothing_is_refused(corpus, tol):
    entry = corpus["Z4/evens"]
    with pytest.raises(ValidationError, match=re.escape(repr(tol))):
        run_verification([entry], trials=1, tol=tol)
    with pytest.raises(ValidationError, match=re.escape(repr(tol))):
        verify_module_axioms(entry.quot, entry.characters[0], trials=1, tol=tol)


def test_zero_tolerance_stays_valid(corpus):
    # the exact checks run at zero tolerance by default
    entry = corpus["Z4/evens"]
    assert verify_module_axioms(entry.quot, entry.characters[0], trials=1, tol=0.0)["tol"] == 0.0
    report = run_verification([entry], trials=0, tol=0.0)
    assert report["passed"]
    assert {row["tol"] for row in report["checks"]} == {0.0}


def test_characters_enumerated_once_per_subgroup(monkeypatch):
    seen = []
    original = verify.enumerate_characters

    def counting(domain):
        seen.append(domain)
        return original(domain)

    monkeypatch.setattr(verify, "enumerate_characters", counting)
    report = run_verification(seed=42, trials=50)
    assert report["passed"]
    for sub in seen:
        assert sum(1 for other in seen if other is sub) == 1, sub
    # the report's shape: the row count the benchmark gates on, and plain
    # Python scalars, which json.dumps can write
    assert len(report["checks"]) == 105
    for row in report["checks"]:
        assert type(row["residual"]) is float, row
        assert type(row["passed"]) is bool, row
        assert type(row["seconds"]) is float and row["seconds"] >= 0.0, row
    assert type(report["seconds"]) is float
    assert report["seconds"] >= sum(row["seconds"] for row in report["checks"])


def test_public_names_resolve():
    for name in covmod.__all__:
        assert hasattr(covmod, name), name
    for name in DELETED:
        assert name not in covmod.__all__
        assert not hasattr(covmod, name)


def _without_seconds(report):
    rows = [{k: v for k, v in row.items() if k != "seconds"} for row in report["checks"]]
    return {**{k: v for k, v in report.items() if k != "seconds"}, "checks": rows}


def test_a_report_is_fixed_by_its_seed():
    first, again, other = (
        _without_seconds(run_verification(builtin_corpus(), seed=s, trials=3)) for s in (5, 5, 6)
    )
    assert first == again
    assert first["passed"] and other["passed"]
    changed = [
        (a["check"], a["config"])
        for a, b in zip(first["checks"], other["checks"])
        if a["residual"] != b["residual"]
    ]
    assert any(check == "module_axioms" for check, _ in changed), changed


_NO_MASKED = """
import json, sys
import numpy
if "numpy.ma" in sys.modules:
    print(json.dumps("preloaded"))
    raise SystemExit
from covmod import builtin_corpus, run_verification, weyl_heisenberg_finite
from covmod.jsonio import group_from_json, group_to_json
group_from_json(json.loads(json.dumps(group_to_json(weyl_heisenberg_finite(4, 4).product))))
run_verification(builtin_corpus(), seed=3, trials=1)
print(json.dumps("numpy.ma" in sys.modules))
"""


def test_loading_and_verifying_do_not_import_numpy_ma():
    """`np.unique` without `return_index` imports `numpy.ma` on numpy 2.x;
    group loading and verify dedupe indices without it."""
    res = subprocess.run(
        [sys.executable, "-c", _NO_MASKED], capture_output=True, text=True, check=True
    )
    loaded = json.loads(res.stdout)
    if loaded == "preloaded":
        pytest.skip("a bare `import numpy` already loads numpy.ma")
    assert loaded is False
