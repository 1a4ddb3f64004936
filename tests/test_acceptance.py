"""Acceptance suite.  One test per criterion; each prints a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py -v`` to see them).

The ranking-stability criterion is asserted exactly as stated even though
the bundled teaching log cannot meet it for properties whose exact values
tie above the top-5 boundary; see the test's failure message for the
analysis.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import time
from fractions import Fraction

import pytest

from procshap.diagnostics import jaccard, top_k
from procshap.logic_encoder import ProverConfig, encode, value_via_prover
from procshap.miner import MinerConfig, discover
from procshap.oracle import (
    Property,
    PropertySpec,
    ValueCache,
    evaluate,
)
from procshap.process_tree import Coalition, node_count, substitute
from procshap.reports import AttributionReport, RunConfig, emit_report, run_matrix
from procshap.shapley import (
    Game,
    convergence_delta_max,
    exact_shapley,
    mc_permutation_shapley,
    rs_subset_shapley,
)

from _corpus import corpus, random_boolean_game_table, threshold_game_table
from _sat import spec_value

SAT = PropertySpec(Property.SAT)
LIV = PropertySpec(Property.LIV)
SAF = PropertySpec(Property.SAF, safety_pair=("a", "b"))
SAF_PAIR_RUNNING = ("pay compensation", "reject request")

CORPUS = corpus(100, max_nodes=10, seed=2024)


def outcome(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def table_game(table: dict[int, int], n: int) -> Game:
    return Game(n=n, value=lambda c: table[c.mask])


def test_criterion_shapley_axioms():
    started = time.time()
    rng = random.Random(424242)
    games = 0
    symmetry_checks = 0
    dummy_checks = 0
    for trial in range(200):
        n = rng.randint(2, 10)
        table = (
            threshold_game_table(rng, n)
            if trial % 2
            else random_boolean_game_table(rng, n)
        )
        est = exact_shapley(table_game(table, n))
        games += 1
        # efficiency, in exact rational arithmetic
        assert sum(est.phi_exact.values()) == Fraction(
            table[(1 << n) - 1] - table[0]
        )
        # symmetry and dummy wherever the game exhibits them
        for i, j in itertools.combinations(range(n), 2):
            if all(
                table[m | (1 << i)] == table[m | (1 << j)]
                for m in range(1 << n)
                if not m & (1 << i) and not m & (1 << j)
            ):
                symmetry_checks += 1
                assert est.phi_exact[i] == est.phi_exact[j]
        for i in range(n):
            if all(
                table[m | (1 << i)] == table[m]
                for m in range(1 << n)
                if not m & (1 << i)
            ):
                dummy_checks += 1
                assert est.phi_exact[i] == 0
    elapsed = time.time() - started
    assert symmetry_checks > 50 and dummy_checks > 50  # non-vacuous
    assert outcome(
        "shapley-axioms",
        elapsed < 60,
        f"{games} games, {symmetry_checks} symmetry pairs, "
        f"{dummy_checks} dummies, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_approximation_fidelity():
    rng = random.Random(777)
    worst_overall = 0.0
    for trial in range(20):
        table = random_boolean_game_table(rng, 8)
        game = table_game(table, 8)
        exact = exact_shapley(game).phi
        est, _ = mc_permutation_shapley(
            game, permutations=5000, seed=9000 + trial, min_permutations=5000
        )
        worst = max(abs(est.phi[i] - exact[i]) for i in range(8))
        worst_overall = max(worst_overall, worst)
        assert worst <= 0.05, f"game {trial}: MC error {worst:.4f} > 0.05"

    # RS bias, measured on the 6-player unanimity game where the uniform
    # subset distribution provably misweights the single pivotal subset
    full = (1 << 6) - 1
    game = Game(n=6, value=lambda c: int(c.mask == full))
    exact = exact_shapley(game).phi
    est = rs_subset_shapley(game, samples_per_player=3000, seed=512)
    bias = max(abs(est.phi[i] - exact[i]) for i in range(6))
    assert bias > 0.0, "RS bias unexpectedly zero"
    assert outcome(
        "approximation-fidelity",
        True,
        f"MC worst error {worst_overall:.4f} <= 0.05 over 20 games; "
        f"RS bias {bias:.4f} > 0 on the asymmetric game "
        f"(phi_hat {est.phi[0]:.4f} vs exact {exact[0]:.4f})",
    )


def test_criterion_convergence(running_example_log):
    started = time.time()
    tree = discover(running_example_log, MinerConfig(noise=0.0))
    n = node_count(tree)
    converged_seeds = []
    for seed in (1, 2, 3, 4, 5):
        cache = ValueCache()
        game = Game(n=n, value=lambda c: evaluate(tree, c, SAT, cache))
        _, report = mc_permutation_shapley(
            game,
            permutations=1000,
            seed=seed,
            checkpoint_every=100,
            min_permutations=1001,  # no early stop: observe the full window
        )
        deltas = [
            convergence_delta_max(prev[1], curr[1])
            for prev, curr in zip(report.checkpoints, report.checkpoints[1:])
        ]
        if any(d < 0.01 for d in deltas):
            converged_seeds.append(seed)
    elapsed = time.time() - started
    ok = len(converged_seeds) >= 3 and elapsed < 120
    assert outcome(
        "mc-convergence",
        ok,
        f"delta_max < 0.01 within 1000 permutations for seeds "
        f"{converged_seeds} ({len(converged_seeds)}/5, need >= 3), "
        f"{elapsed:.1f}s (< 120s)",
    )


def test_criterion_oracle_encoder_equivalence():
    started = time.time()
    checks = 0
    for tree in CORPUS:
        n = node_count(tree)
        assert n <= 10
        for mask in range(1 << n):
            coalition = Coalition(n, mask)
            cut = substitute(tree, coalition)
            for spec in (SAT, LIV, SAF):
                expected = evaluate(tree, coalition, spec)
                got = spec_value(encode(cut, spec))
                assert got == expected, (
                    f"tree {tree.node_id.text}, coalition {mask:#x}, "
                    f"{spec.prop.value}: encoder {got} != oracle {expected}"
                )
                checks += 1
    elapsed = time.time() - started
    ok = elapsed < 300
    assert outcome(
        "oracle-encoder-equivalence",
        ok,
        f"{len(CORPUS)} trees, {checks} coalition-property checks, "
        f"zero discrepancies, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_monotonicity_and_signs():
    sat_violations = saf_violations = sign_violations = 0
    for tree in CORPUS:
        n = node_count(tree)
        sat_of = {}
        saf_of = {}
        for mask in range(1 << n):
            coalition = Coalition(n, mask)
            sat_of[mask] = evaluate(tree, coalition, SAT)
            saf_of[mask] = evaluate(tree, coalition, SAF)
        for mask in range(1 << n):
            for i in range(n):
                bit = 1 << i
                if mask & bit:
                    continue
                if sat_of[mask] > sat_of[mask | bit]:
                    sat_violations += 1
                if saf_of[mask] < saf_of[mask | bit]:
                    saf_violations += 1
        sat_phi = exact_shapley(table_game(sat_of, n)).phi_exact
        saf_phi = exact_shapley(table_game(saf_of, n)).phi_exact
        if any(phi < 0 for phi in sat_phi.values()):
            sign_violations += 1
        if any(phi > 0 for phi in saf_phi.values()):
            sign_violations += 1
    ok = sat_violations == saf_violations == sign_violations == 0
    assert outcome(
        "blocked-monotonicity",
        ok,
        f"exhaustive over {len(CORPUS)} trees: sat non-decreasing, "
        f"saf non-increasing, exact phi_sat >= 0 and phi_saf <= 0 "
        f"({sat_violations}/{saf_violations}/{sign_violations} violations)",
    )


def test_criterion_ranking_stability(running_example_file):
    """Asserted as stated: top-5 Jaccard >= 0.8 between two seeded MC runs
    for every (noise, property) configuration of the Running Example.

    Liveness on the bundled log is a unanimity game (all nodes at 1/n);
    the sampler's rotation blocks put every player in every position
    equally often, so its estimates tie exactly, as the exact values do.
    Satisfiability at noise 0 and 0.25 cannot satisfy the bound: nine and
    ten structurally mandatory nodes tie exactly at the top.  Their
    marginal goes to whichever of them joins last, which depends on
    their relative order, not on positions alone, so rotations do not
    tie their estimates and top-5 membership among them is decided by
    sampling noise.  The failure below is the faithful outcome on this
    dataset.
    """

    results = {}
    for seed in (20_001, 20_002):
        config = RunConfig(
            log_path=str(running_example_file),
            noise_levels=(0.0, 0.25, 0.5, 1.0),
            properties=(
                SAT,
                LIV,
                PropertySpec(Property.SAF, safety_pair=SAF_PAIR_RUNNING),
            ),
            method="mc",
            permutations=3000,
            min_permutations=3000,
            seed=seed,
        )
        report = run_matrix(config)
        for record in report.configurations:
            assert record["error"] is None
            results.setdefault(record["id"], []).append(
                top_k(record["phi"], 5)
            )

    scores = {
        cid: jaccard(tops[0], tops[1]) for cid, tops in sorted(results.items())
    }
    ok = all(score >= 0.8 for score in scores.values())
    detail = ", ".join(f"{cid}={score:.2f}" for cid, score in scores.items())
    outcome("ranking-stability", ok, f"cross-seed top-5 Jaccard: {detail}")
    assert ok, (
        "top-5 Jaccard < 0.8 for configurations with exactly tied values: "
        + ", ".join(f"{c}={s:.2f}" for c, s in scores.items() if s < 0.8)
        + " (structural ties; see docstring)"
    )


def test_criterion_end_to_end_matrix(tmp_path, running_example_file):
    started = time.time()
    config = RunConfig(
        log_path=str(running_example_file),
        noise_levels=(0.0, 0.25, 0.5, 1.0),
        properties=(
            SAT,
            LIV,
            PropertySpec(Property.SAF, safety_pair=SAF_PAIR_RUNNING),
        ),
        method="mc",
        permutations=2000,
        seed=7,
    )
    report = run_matrix(config)
    assert report.meta["configuration_count"] == 1 * 4 * 3
    assert all(r["error"] is None for r in report.configurations)

    paths = emit_report(report, tmp_path / "out")
    names = {p.name for p in paths}
    assert {"report.json", "rankings.csv", "noise_series.csv", "summary.txt"} <= names
    assert sum(1 for n in names if n.endswith(".dot")) == 12
    parsed = AttributionReport.from_json(
        (tmp_path / "out" / "report.json").read_text()
    )
    assert parsed.meta == report.meta

    again = run_matrix(config)
    assert again.to_json() == report.to_json(), "matrix not byte-reproducible"
    elapsed = time.time() - started
    ok = elapsed < 300
    assert outcome(
        "end-to-end-matrix",
        ok,
        f"12 configurations (1 dataset x 4 noise x 3 properties), "
        f"{len(paths)} files, byte-reproducible, {elapsed:.1f}s (< 300s)",
    )


def _find_prover() -> ProverConfig | None:
    override = os.environ.get("PROCSHAP_PROVER")
    if override:
        return ProverConfig(executable=override, timeout_s=2.0)
    for name, args in (
        ("eprover", ("--auto", "--silent")),
        ("vampire", ("--mode", "casc", "-t", "2")),
    ):
        path = shutil.which(name)
        if path:
            return ProverConfig(executable=path, timeout_s=2.0, extra_args=args)
    return None


def test_criterion_prover_integration():
    config = _find_prover()
    if config is None:
        print("[SKIP] prover-integration: no TPTP prover on PATH "
              "(set PROCSHAP_PROVER to enable)")
        pytest.skip("no TPTP prover available")
    rng = random.Random(31337)
    trees = [t for t in CORPUS if node_count(t) >= 2][:10]
    checks = 0
    for tree in trees:
        n = node_count(tree)
        masks = {rng.getrandbits(n) for _ in range(50)}
        for mask in masks:
            coalition = Coalition(n, mask)
            cut = substitute(tree, coalition)
            for spec in (SAT, LIV, SAF):
                assert value_via_prover(cut, spec, config) == evaluate(
                    tree, coalition, spec
                )
                checks += 1
    assert outcome(
        "prover-integration",
        True,
        f"{config.executable} agreed with the oracle on {checks} checks "
        f"at {config.timeout_s:g}s timeout",
    )


def test_criterion_non_reproducibility_documented(running_example_file):
    # The paper-derived analyses (per-node rankings, quality table,
    # noise correlations) are produced with this artifact's own values;
    # the published per-node identities, counts and correlation numbers
    # depend on an encoding that is not public and are not targets.
    config = RunConfig(
        log_path=str(running_example_file),
        noise_levels=(0.0, 1.0),
        properties=(SAT,),
        method="exact",
    )
    report = run_matrix(config)
    record = report.configurations[0]
    perspectives = record["quality_perspectives"]
    assert set(perspectives) == {"standard", "high_sensitivity", "low_sensitivity"}
    assert perspectives["standard"]["critical_threshold"] == 0.1
    assert perspectives["high_sensitivity"]["redundant_threshold"] == 0.005
    assert report.cross["noise_correlation"]["sat"]["r"] is not None
    assert record["top_k"]
    assert outcome(
        "own-values-reported",
        True,
        "rankings, three-perspective quality table and noise correlations "
        "are computed from this artifact's own encoding",
    )
