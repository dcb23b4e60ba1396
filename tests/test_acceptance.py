"""End-to-end acceptance run: one pass/fail line per verified claim.

Each test exercises one acceptance criterion at its stated tolerance over
the full built-in corpus with 50 seeded random draws per configuration,
and prints a single PASS/FAIL line with the worst observed residual.
"""

import subprocess
import sys
import time

import pytest

from covmod import run_bench
from covmod.verify import (
    builtin_corpus,
    check_characters,
    check_fast_kernels,
    check_module_axioms,
    check_norm_bound,
    check_norm_identity,
    check_semidirect_structure,
    check_trivial_identification,
    check_txi_homomorphism,
    check_weil,
    fast_grid_rows,
)

SEED = 42
TRIALS = 50


@pytest.fixture(scope="module")
def corpus():
    return builtin_corpus()


def _report(name: str, passed: bool, detail: str) -> None:
    line = f"{'PASS' if passed else 'FAIL'} {name}: {detail}"
    print(line)
    assert passed, line


def _run_check(corpus, check):
    rows = [check(entry, SEED, TRIALS) for entry in corpus]
    rows = [r for r in rows if r is not None]
    worst = max(r["residual"] for r in rows)
    return rows, worst


def test_criterion_01_iterated_coset_summation(corpus):
    t0 = time.perf_counter()
    rows, worst = _run_check(corpus, check_weil)
    dt = time.perf_counter() - t0
    ok = all(r["passed"] for r in rows) and dt < 5.0
    _report(
        "criterion 1 (iterated coset sums equal group sums, 8 pairs)",
        ok,
        f"worst residual {worst:.2e} vs 1e-12 relative, {dt:.2f}s of 5s budget",
    )


def test_criterion_02_averaging_intertwines_convolution(corpus):
    rows, worst = _run_check(corpus, check_txi_homomorphism)
    _report(
        "criterion 2 (averaging of f*g equals f acting on averaged g)",
        all(r["passed"] for r in rows),
        f"worst residual {worst:.2e} vs 1e-9 relative to |f|_1 |g|_1",
    )


def test_criterion_03_action_norm_bound(corpus):
    rows, worst = _run_check(corpus, check_norm_bound)
    _report(
        "criterion 3 (|f * psi|_p bounded by |f|_1 |psi|_p, p in 1..3)",
        all(r["passed"] for r in rows),
        f"worst excess {worst:.2e} vs 1e-9 absolute",
    )


def test_criterion_04_section_norm_identity(corpus):
    rows, worst = _run_check(corpus, check_norm_identity)
    _report(
        "criterion 4 (section norm equals full norm over |N|^(1/p))",
        all(r["passed"] for r in rows),
        f"worst residual {worst:.2e} vs 1e-9 relative",
    )


def test_criterion_05_module_axioms(corpus):
    rows, worst = _run_check(corpus, check_module_axioms)
    _report(
        "criterion 5 (associativity and bilinearity of the action)",
        all(r["passed"] for r in rows),
        f"worst residual {worst:.2e} vs 1e-9 absolute",
    )


def test_criterion_06_trivial_character_descends(corpus):
    rows, worst = _run_check(corpus, check_trivial_identification)
    _report(
        "criterion 6 (trivial covariance identifies with quotient convolution)",
        all(r["passed"] for r in rows),
        f"worst residual {worst:.2e} vs 1e-9 absolute",
    )


def test_criterion_07_semidirect_measure_structure(corpus):
    rows, worst = _run_check(corpus, check_semidirect_structure)
    ok = all(r["passed"] for r in rows) and len(rows) == 5
    _report(
        "criterion 7 (unit moduli, exact quotient tables, Haar agreement)",
        ok,
        f"worst residual {worst:.2e} vs 1e-12, {len(rows)} semidirect entries",
    )


def test_criterion_08_fast_kernels_match_and_win(corpus):
    rows = fast_grid_rows(SEED, TRIALS)
    flip_entry = next(e for e in corpus if e.name == "Z2xZ3/K")
    rows.append(check_fast_kernels(flip_entry, SEED, TRIALS))
    worst = max(r["residual"] for r in rows)
    agree = all(r["passed"] for r in rows)

    bench = run_bench(4, 4, repetitions=50, seed=0)
    speedups = [v["speedup"] for v in bench["variants"]]
    fast_enough = all(s >= 4.0 for s in speedups)
    _report(
        "criterion 8 (fiber route against the table route, and the entry points' speed)",
        agree and fast_enough,
        f"worst residual {worst:.2e} vs 1e-9; speedups "
        + ", ".join(f"{s:.1f}x" for s in speedups)
        + " vs 4x floor on the order-64 shear group",
    )


def test_criterion_09_exact_character_theory(corpus):
    rows, worst = _run_check(corpus, check_characters)
    _report(
        "criterion 9 (character counts, law, orthogonality in exact arithmetic)",
        all(r["passed"] for r in rows),
        f"{int(worst)} mismatches vs zero tolerance",
    )


def test_criterion_10_cli_verify_under_budget():
    t0 = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-m", "covmod", "verify", "--seed", "42", "--trials", "50"],
        capture_output=True,
        text=True,
    )
    dt = time.perf_counter() - t0
    ok = res.returncode == 0 and dt < 60.0
    _report(
        "criterion 10 (covmod verify --seed 42 --trials 50 exits clean)",
        ok,
        f"exit {res.returncode}, {dt:.1f}s of 60s budget",
    )
