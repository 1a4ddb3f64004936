from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from procshap.oracle import Property, PropertySpec, ValueCache, evaluate
from procshap.process_tree import (
    activity,
    assign_node_ids,
    node_count,
    seq,
    xor,
)
from procshap.shapley import (
    Game,
    convergence_delta_max,
    exact_shapley,
    mc_permutation_shapley,
    rs_subset_shapley,
)

from _corpus import corpus, random_boolean_game_table, threshold_game_table
from _fold_ref import fold_value
from _sampling_ref import verdicts_of


def table_game(table: dict[int, int], n: int) -> Game:
    return Game(n=n, value=lambda c: table[c.mask])


def or_game(n: int) -> Game:
    return Game(n=n, value=lambda c: int(c.mask != 0))


def unanimity_game(n: int) -> Game:
    full = (1 << n) - 1
    return Game(n=n, value=lambda c: int(c.mask == full))


def permutation_definition_shapley(game: Game) -> dict[int, Fraction]:
    """Independent reference: average marginal contribution over every
    one of the n! player orderings."""
    n = game.n
    phi = {p: Fraction(0) for p in range(n)}
    count = 0
    for order in itertools.permutations(range(n)):
        count += 1
        mask = 0
        prev = game.value_of_mask(0)
        for p in order:
            mask |= 1 << p
            curr = game.value_of_mask(mask)
            phi[p] += curr - prev
            prev = curr
    return {p: total / count for p, total in phi.items()}


def test_single_player():
    game = Game(n=1, value=lambda c: int(c.mask == 1))
    est = exact_shapley(game)
    assert est.phi_exact[0] == 1


def test_two_player_or_game():
    est = exact_shapley(or_game(2))
    assert est.phi_exact == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_three_player_unanimity():
    est = exact_shapley(unanimity_game(3))
    assert est.phi_exact == {i: Fraction(1, 3) for i in range(3)}


def test_exact_matches_permutation_definition():
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        for _ in range(4):
            table = random_boolean_game_table(rng, n)
            game = table_game(table, n)
            assert exact_shapley(game).phi_exact == permutation_definition_shapley(
                game
            )


def test_exact_on_blocked_sat_tree_game():
    # Seq(a, Xor(b, c)) with all five nodes as players.
    tree = assign_node_ids(seq(activity("a"), xor(activity("b"), activity("c"))))
    n = node_count(tree)
    cache = ValueCache()
    spec = PropertySpec(Property.SAT)
    game = Game(n=n, value=lambda c: evaluate(tree, c, spec, cache))
    est = exact_shapley(game)
    reference = permutation_definition_shapley(game)
    assert est.phi_exact == reference
    # root is (jointly) maximal and the symmetric Xor arms tie
    assert est.phi_exact[0] == max(est.phi_exact.values())
    assert est.phi_exact[3] == est.phi_exact[4]
    assert est.phi_exact[0] > est.phi_exact[3]
    assert sum(est.phi_exact.values()) == 1  # efficiency: v(N) - v(empty)


def test_exact_limit_refused():
    with pytest.raises(ValueError, match="exact computation refused for n=21 > 20"):
        exact_shapley(or_game(21))


@given(
    n=st.integers(min_value=1, max_value=6),
    bits=st.integers(min_value=0),
)
@settings(max_examples=60, deadline=None)
def test_efficiency_on_arbitrary_games(n, bits):
    table = {mask: (bits >> mask) & 1 for mask in range(1 << n)}
    est = exact_shapley(table_game(table, n))
    assert sum(est.phi_exact.values()) == table[(1 << n) - 1] - table[0]


def test_symmetry_and_dummy_on_threshold_games():
    rng = random.Random(2024)
    for _ in range(25):
        n = rng.randint(2, 8)
        table = threshold_game_table(rng, n)
        est = exact_shapley(table_game(table, n))
        for i, j in itertools.combinations(range(n), 2):
            symmetric = all(
                table[mask | (1 << i)] == table[mask | (1 << j)]
                for mask in range(1 << n)
                if not mask & (1 << i) and not mask & (1 << j)
            )
            if symmetric:
                assert est.phi_exact[i] == est.phi_exact[j]
        for i in range(n):
            dummy = all(
                table[mask | (1 << i)] == table[mask]
                for mask in range(1 << n)
                if not mask & (1 << i)
            )
            if dummy:
                assert est.phi_exact[i] == 0


def test_mc_single_player_exact_after_one_permutation():
    game = Game(n=1, value=lambda c: int(c.mask == 1))
    est, report = mc_permutation_shapley(1, verdicts_of(game), permutations=1, seed=3)
    assert est.phi[0] == 1.0
    assert est.samples[0] == 1


def test_mc_two_player_or_bound():
    game = or_game(2)
    est, _ = mc_permutation_shapley(2, verdicts_of(game), permutations=2000, seed=11)
    assert abs(est.phi[0] - 0.5) <= 0.05
    assert abs(est.phi[1] - 0.5) <= 0.05


def test_mc_close_to_exact_on_8_player_games():
    rng = random.Random(4)
    for trial in range(3):
        table = random_boolean_game_table(rng, 8)
        game = table_game(table, 8)
        exact = exact_shapley(game).phi
        est, _ = mc_permutation_shapley(
            8, verdicts_of(game), permutations=5000, seed=100 + trial,
            min_permutations=5000,
        )
        worst = max(abs(est.phi[i] - exact[i]) for i in range(8))
        assert worst <= 0.05


def test_mc_deterministic_for_fixed_seed():
    table = random_boolean_game_table(random.Random(9), 6)
    game = table_game(table, 6)
    verdicts = verdicts_of(game)
    first, rep1 = mc_permutation_shapley(6, verdicts, permutations=500, seed=42)
    second, rep2 = mc_permutation_shapley(6, verdicts, permutations=500, seed=42)
    assert first.phi == second.phi
    assert rep1.checkpoints == rep2.checkpoints
    third, _ = mc_permutation_shapley(6, verdicts, permutations=500, seed=43)
    assert third.phi != first.phi


def test_mc_early_stop_and_checkpoints():
    game = or_game(3)
    est, report = mc_permutation_shapley(
        game.n, verdicts_of(game),
        permutations=5000,
        seed=1,
        checkpoint_every=100,
        epsilon=0.05,
        min_permutations=200,
    )
    assert est.samples[0] < 5000  # stopped early
    counts = [k for k, _ in report.checkpoints]
    assert counts == sorted(counts)
    assert report.delta_max < 0.05


@pytest.mark.parametrize("n", [3, 7, 13, 17])
def test_mc_unanimity_ties_exactly(n):
    game = unanimity_game(n)
    for seed in (0, 1, 20_001):
        for permutations in (n, 2 * n + 1, 3000):
            est, _ = mc_permutation_shapley(
                game.n, verdicts_of(game), permutations=permutations, seed=seed,
                min_permutations=permutations,
            )
            assert all(est.phi[i] == 1 / n for i in range(n))


def test_mc_efficiency_on_random_games():
    rng = random.Random(31)
    for trial in range(6):
        n = rng.randint(2, 8)
        table = random_boolean_game_table(rng, n)
        game = table_game(table, n)
        est, _ = mc_permutation_shapley(
            game.n, verdicts_of(game), permutations=rng.randint(1, 400), seed=trial
        )
        total = sum(est.phi.values())
        assert abs(total - (table[(1 << n) - 1] - table[0])) <= 1e-12


def veto_players(game: Game) -> list[int]:
    full = (1 << game.n) - 1
    if game.value_of_mask(full) != 1:
        return []
    return [i for i in range(game.n) if game.value_of_mask(full & ~(1 << i)) == 0]


def test_mc_monotone_ties_veto_players_exactly():
    # sat and liv tree games are monotone; veto players are symmetric there
    checked = 0
    for tree in corpus(30, seed=51):
        n = node_count(tree)
        for prop, bound in itertools.product((Property.SAT, Property.LIV), (0, 1)):
            spec = PropertySpec(prop, loop_bound=bound)
            game = Game(n, lambda c: fold_value(tree, spec, c.mask))
            veto = veto_players(game)
            grand = game.value_of_mask((1 << n) - 1) - game.value_of_mask(0)
            for seed, permutations in ((0, n), (1, 3 * n + 1), (20_001, 200)):
                kw = dict(permutations=permutations, seed=seed,
                          min_permutations=permutations)
                sampled, _ = mc_permutation_shapley(n, verdicts_of(game), **kw)
                tied, report = mc_permutation_shapley(
                    n, verdicts_of(game), monotone=True, **kw)
                assert tied.samples == sampled.samples
                assert report.checkpoints[-1][1] == sampled.phi
                assert len({tied.phi[i] for i in veto}) <= 1
                for i in veto:
                    mean = sum(sampled.phi[j] for j in veto) / len(veto)
                    assert tied.phi[i] == pytest.approx(mean, abs=1e-12)
                for i in set(range(n)) - set(veto):
                    assert tied.phi[i] == sampled.phi[i]
                assert abs(sum(tied.phi.values()) - grand) <= 1e-12
                checked += len(veto) > 1
    assert checked > 20  # games with at least two veto players


def test_mc_monotone_flag_leaves_games_without_veto_players():
    # v(N) = 0, or no veto player: the estimate is the sampled one
    n = 5
    never = Game(n, lambda c: 0)
    either = or_game(n)
    for game in (never, either):
        kw = dict(permutations=50, seed=3, min_permutations=50)
        verdicts = verdicts_of(game)
        assert (mc_permutation_shapley(n, verdicts, monotone=True, **kw)[0].phi
                == mc_permutation_shapley(n, verdicts, **kw)[0].phi)


def test_mc_samples_are_whole_rotation_blocks():
    for n in (1, 3, 5, 9):
        game = or_game(n)
        for permutations in (1, 4, 10, 101, 250):
            est, report = mc_permutation_shapley(
                game.n, verdicts_of(game), permutations=permutations, seed=5,
                checkpoint_every=10, min_permutations=permutations,
            )
            done = est.samples[0]
            assert done % n == 0
            assert done <= max(permutations, n)
            assert done == n * max(1, permutations // n)
            counts = [k for k, _ in report.checkpoints]
            assert all(k % n == 0 for k in counts)
            assert counts[-1] == done


def test_rs_single_player_is_exact():
    game = Game(n=1, value=lambda c: int(c.mask == 1))
    est = rs_subset_shapley(game.n, verdicts_of(game), samples_per_player=5, seed=0)
    assert est.phi[0] == 1.0


def test_rs_matches_shapley_weights_at_n2():
    game = or_game(2)
    est = rs_subset_shapley(2, verdicts_of(game), samples_per_player=4000, seed=21)
    assert abs(est.phi[0] - 0.5) <= 0.05
    assert abs(est.phi[1] - 0.5) <= 0.05


def test_rs_bias_on_asymmetric_game():
    # For the 6-player unanimity game the uniform-subset estimator
    # concentrates on E[v(S+i) - v(S)] = 1/2^5, far from phi = 1/6.
    game = unanimity_game(6)
    exact = exact_shapley(game).phi
    est = rs_subset_shapley(game.n, verdicts_of(game), samples_per_player=2000, seed=8)
    bias = max(abs(est.phi[i] - exact[i]) for i in range(6))
    assert bias > 0.05
    assert est.phi[0] < 0.1  # concentrated near 1/32, not 1/6


def test_rs_deterministic_for_fixed_seed():
    game = or_game(4)
    first = rs_subset_shapley(game.n, verdicts_of(game), samples_per_player=50, seed=5)
    second = rs_subset_shapley(game.n, verdicts_of(game), samples_per_player=50, seed=5)
    assert first.phi == second.phi


def test_convergence_delta_max():
    assert convergence_delta_max({0: 0.1, 1: 0.2}, {0: 0.1, 1: 0.2}) == 0.0
    assert convergence_delta_max({0: 0.1}, {0: 0.12}) == pytest.approx(0.02)
    with pytest.raises(ValueError):
        convergence_delta_max({0: 0.1}, {1: 0.1})


def test_argmax_stability_against_exact():
    rng = random.Random(31)
    checked = 0
    for _ in range(12):
        table = threshold_game_table(rng, 7)
        game = table_game(table, 7)
        exact = exact_shapley(game).phi
        ranked = sorted(exact.values(), reverse=True)
        if len(ranked) < 2 or ranked[0] - ranked[1] <= 0.1:
            continue
        checked += 1
        est, _ = mc_permutation_shapley(
            game.n, verdicts_of(game), permutations=5000, seed=77, min_permutations=5000
        )
        assert max(est.phi, key=est.phi.get) == max(exact, key=exact.get)
    assert checked >= 1
