"""Acceptance gate: eleven numbered criteria, one test and one printed line each.

Each test prints ``criterion NN PASS|FAIL <summary>`` (visible with ``pytest -s``
or in captured output) and then asserts, so ``pytest -v`` shows exactly one
pass/fail line per criterion. Tolerances are pinned here, not imported, so a
library regression cannot silently relax the gate.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from qentropy.catalog import g_function, thermal_fock, tmsv
from qentropy.entropy import relative_entropy, von_neumann_entropy
from qentropy.fileio import dumps_document
from qentropy.harness import (
    replay_report,
    report_to_dict,
    run_check,
    run_converge,
)
from qentropy.rng import generator
from qentropy.states import DensityMatrix, SubsystemLayout, ginibre_state, single
from qentropy.truncation import truncation_diagnostics

TWO_LN2 = 2.0 * np.log(2.0)


def announce(number, ok, summary):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'} {summary}")


def elapsed(start):
    return time.perf_counter() - start


def test_criterion_01_duality_of_conditional_entropy():
    start = time.perf_counter()
    qubits = run_check("duality", dims=(2, 2, 2), trials=500)
    qutrits = run_check("duality", dims=(3, 3, 3), trials=100)
    runtime = elapsed(start)
    ok = (
        qubits.worst_margin >= -1e-7
        and qutrits.worst_margin >= -1e-7
        and runtime < 10.0
    )
    announce(
        1,
        ok,
        f"duality |H(C|A)+H(C|B)| <= 1e-7 on 500x(2,2,2) and 100x(3,3,3); "
        f"worst margins {qubits.worst_margin:.3e}, {qutrits.worst_margin:.3e}; "
        f"{runtime:.2f}s",
    )
    assert qubits.worst_margin >= -1e-7
    assert qutrits.worst_margin >= -1e-7
    assert runtime < 10.0


def test_criterion_02_conditional_entropy_bound_and_bell_saturation():
    report = run_check("bound", dims=(3, 3), trials=1000)
    bell_entries = [s for s in report.saturated if s["trial"] == "bell"]
    ok = (
        report.worst_margin >= -1e-8
        and len(bell_entries) == 1
        and abs(bell_entries[0]["margin"]) <= 1e-10
    )
    announce(
        2,
        ok,
        f"|H(C|A)| <= H(rho_C)+1e-8 on 1000x(3,3); worst margin "
        f"{report.worst_margin:.3e}; bell saturation margin "
        f"{bell_entries[0]['margin'] if bell_entries else 'missing'}",
    )
    assert report.worst_margin >= -1e-8
    assert len(bell_entries) == 1
    assert abs(bell_entries[0]["margin"]) <= 1e-10


def test_criterion_03_coherent_information_duality():
    start = time.perf_counter()
    report = run_check("coherent-duality", dims=(3, 3), env_dim=3, trials=300)
    runtime = elapsed(start)
    ok = report.worst_margin >= -1e-7 and runtime < 30.0
    announce(
        3,
        ok,
        f"|I_c(rho,Phi)+I_c(rho,Phi~)| <= 1e-7 on 300 random (rho, Phi) at "
        f"3->3 env 3; worst margin {report.worst_margin:.3e}; {runtime:.2f}s",
    )
    assert report.worst_margin >= -1e-7
    assert runtime < 30.0


def test_criterion_04_monotonicity_under_conditioning():
    report = run_check("monotonicity", dims=(2, 2, 2), trials=500)
    ok = report.worst_margin >= -1e-8
    announce(
        4,
        ok,
        f"H(A|BC) <= H(A|B)+1e-8 on 500x(2,2,2); worst margin "
        f"{report.worst_margin:.3e}",
    )
    assert report.worst_margin >= -1e-8


def test_criterion_05_concavity_of_conditional_entropy():
    report = run_check("concavity", dims=(2, 3), trials=500)
    ok = report.worst_margin >= -1e-8
    announce(
        5,
        ok,
        f"H(mixture) >= convex combination - 1e-8 on 500x(2,3); worst margin "
        f"{report.worst_margin:.3e}",
    )
    assert report.worst_margin >= -1e-8


def test_criterion_06_subadditivity_three_relations():
    report = run_check("subadditivity", dims=(2, 2, 2, 2), trials=300)
    ok = report.worst_margin >= -1e-7
    announce(
        6,
        ok,
        f"pairwise/shared-conditioner/chain-rule relations within 1e-7 on "
        f"300x(2,2,2,2); worst margin {report.worst_margin:.3e}",
    )
    assert report.worst_margin >= -1e-7


def test_criterion_07_formula_consistency():
    standard = run_check("formula-standard", dims=(2, 3), trials=500)
    coherent = run_check("formula-coherent", dims=(2, 3), trials=500)
    ok = standard.worst_margin >= -1e-8 and coherent.worst_margin >= -1e-7
    announce(
        7,
        ok,
        f"relative-entropy form vs H(AC)-H(A) within 1e-8 (worst "
        f"{standard.worst_margin:.3e}) and vs coherent-information route "
        f"within 1e-7 (worst {coherent.worst_margin:.3e}) on 500 full-support states",
    )
    assert standard.worst_margin >= -1e-8
    assert coherent.worst_margin >= -1e-7


def _tmsv_sweep():
    return run_converge(
        state_spec="tmsv:nbar=1,cutoff=30",
        target="A",
        given="B",
        min_rank=5,
        stride=1,
    )


def test_criterion_08_truncation_convergence_and_thermal_oracle():
    start = time.perf_counter()
    doc = _tmsv_sweep()
    points = doc["points"]
    # truncating the cutoff-30 state to diagonal rank n reproduces the
    # cutoff-n state exactly, so this sweep is the Fock-cutoff family 5..30
    errors = {p.rank_a: abs(p.cond_entropy_nats - (-TWO_LN2)) for p in points}
    tail = [errors[r] for r in range(10, 31)]
    thermal_gap = abs(von_neumann_entropy(thermal_fock(nbar=1.0, cutoff=40)) - g_function(1.0))
    runtime = elapsed(start)
    ok = (
        set(errors) == set(range(5, 31))
        and errors[30] < 1e-6
        and all(b <= a for a, b in zip(tail, tail[1:]))
        and thermal_gap <= 1e-8
        and runtime < 60.0
    )
    announce(
        8,
        ok,
        f"TMSV (sinh^2 r = 1) cutoffs 5-30: |H(A|B) + 2 ln 2| = {errors[30]:.3e} "
        f"< 1e-6 at 30, monotone for cutoffs >= 10; thermal nbar=1 cutoff 40 "
        f"entropy gap to g(1) = {thermal_gap:.3e} <= 1e-8; {runtime:.2f}s",
    )
    assert set(errors) == set(range(5, 31))
    assert errors[30] < 1e-6
    assert all(b <= a for a, b in zip(tail, tail[1:]))
    assert thermal_gap <= 1e-8
    assert runtime < 60.0


def dense_divergence_misses(rho, dims, ranks):
    """Each marginal divergence of truncation_diagnostics at each (rank_a, rank_b)
    in ``ranks``, against a dense relative entropy; returns the diagnostics, the
    divergences and their misses."""
    dim_a, dim_b = dims
    # the dense reference: a rank-r computational projector keeps the first r
    # basis states, so it compresses (a, b, a', b') by slicing
    block = rho.entries.reshape(dim_a, dim_b, dim_a, dim_b)
    marginals = np.einsum("abcb->ac", block), np.einsum("abad->bd", block)
    diagnostics, divergences, misses = [], [], []
    for rank_a, rank_b in ranks:
        diag = truncation_diagnostics(rho, "A", "B", rank_a=rank_a, rank_b=rank_b)
        diagnostics.append(diag)
        kept = block[:rank_a, :rank_b, :rank_a, :rank_b]
        kept = kept / np.einsum("abab->", kept)
        owns = np.einsum("abcb->ac", kept), np.einsum("abad->bd", kept)
        got = diag.marginal_a_divergence, diag.marginal_b_divergence
        for own, marginal, value, rank in zip(owns, marginals, got, (rank_a, rank_b)):
            tilde = marginal[:rank, :rank] / np.trace(marginal[:rank, :rank])
            layout = single("A", rank)
            dense = relative_entropy(DensityMatrix(own, layout), DensityMatrix(tilde, layout))
            divergences.append(value)
            misses.append(abs(value - dense))
    return diagnostics, divergences, misses


def test_criterion_09_truncation_gap_decomposition():
    rho = tmsv(nbar=1.0, cutoff=30).as_density()
    diagnostics, _, misses = dense_divergence_misses(
        rho, (30, 30), [(rank, rank) for rank in range(5, 31)]
    )
    residuals = [diag.residual for diag in diagnostics]
    diffs = [diag.diff for diag in diagnostics]
    # the Schmidt-aligned TMSV has every divergence 0, so the dense comparison
    # also runs at every rank of a seeded full-rank mixed state, where they are not
    mixed = ginibre_state(generator(1), SubsystemLayout([("A", 4), ("B", 5)]))
    ranks = [(rank_a, rank_b) for rank_a in range(1, 5) for rank_b in range(1, 6)]
    _, mixed_divergences, mixed_misses = dense_divergence_misses(mixed, (4, 5), ranks)
    misses += mixed_misses
    # the diffs are zero to rounding on this Schmidt-aligned sweep, so the
    # decrease is asserted up to a 1e-10 noise floor
    decreasing = all(b <= a + 1e-10 for a, b in zip(diffs, diffs[1:]))
    ok = (
        max(residuals) <= 1e-8
        and decreasing
        and abs(diffs[-1]) <= 1e-8
        and max(misses) <= 1e-12
        and max(mixed_divergences) > 1e-3
    )
    announce(
        9,
        ok,
        f"H~_nk - H_nk matches the two marginal relative-entropy terms within "
        f"1e-8 at every step (max residual {max(residuals):.3e}); gap decreases "
        f"toward 0 (final {diffs[-1]:.3e}); each term within 1e-12 of a dense "
        f"relative entropy (max {max(misses):.3e}; mixed-state terms up to "
        f"{max(mixed_divergences):.3e})",
    )
    assert max(residuals) <= 1e-8
    assert max(misses) <= 1e-12
    assert max(mixed_divergences) > 1e-3
    assert decreasing
    assert abs(diffs[-1]) <= 1e-8


def test_criterion_10_continuity_smoke():
    report = run_check("continuity", steps=20)
    (schedule,) = report.records
    final_dev = schedule["deviations"][-1][1]
    ok = report.passed and final_dev < 1e-6
    announce(
        10,
        ok,
        f"depolarized-Bell schedule eps_n = 2^-n, n <= 20: final conditional-"
        f"entropy deviation {final_dev:.3e} < 1e-6",
    )
    assert report.passed
    assert final_dev < 1e-6


def test_criterion_11_reproducibility():
    # (a) a genuinely failing report replays bit-identically from its config
    failing = run_check("continuity", base="bell")
    assert not failing.passed
    replayed = replay_report(failing.config)
    identical = dumps_document(report_to_dict(failing)) == dumps_document(
        report_to_dict(replayed)
    )
    # (b) the full default suite exits 0 in under 60 s
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qentropy", "check", "--no-timestamp"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    runtime = elapsed(start)
    suite_ok = proc.returncode == 0 and runtime < 60.0
    all_pass = json.loads(proc.stdout)["all_pass"] if proc.returncode in (0, 1) else False
    ok = identical and suite_ok and all_pass
    announce(
        11,
        ok,
        f"failing report replays bit-identically: {identical}; full default "
        f"suite exit {proc.returncode} (all_pass {all_pass}) in {runtime:.2f}s < 60s",
    )
    assert identical
    assert proc.returncode == 0
    assert all_pass
    assert runtime < 60.0
