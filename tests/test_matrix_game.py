import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subgamelab import solve, solve_stack
from subgamelab.game import _TALL

from oracles import support_enumeration_value

RPS = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])


def test_rps_value_and_strategies():
    sol = solve(RPS)
    assert abs(sol.value) < 1e-8
    np.testing.assert_allclose(sol.row_strategy, np.ones(3) / 3, atol=1e-8)
    np.testing.assert_allclose(sol.col_strategy, np.ones(3) / 3, atol=1e-8)


def test_degenerate_one_by_one():
    sol = solve([[4.25]])
    assert sol.value == 4.25
    assert sol.row_strategy.tolist() == [1.0]
    assert sol.col_strategy.tolist() == [1.0]


def test_dominant_saddle_point():
    # expected answer pinned by enumerating the four support pairs by hand
    sol = solve([[2.0, 0.0], [3.0, 1.0]])
    assert sol.value == pytest.approx(1.0, abs=1e-9)
    assert sol.row_strategy.tolist() == [0.0, 1.0]
    assert sol.col_strategy.tolist() == [0.0, 1.0]


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        solve([[np.nan, 1.0]])
    with pytest.raises(ValueError):
        solve(np.zeros((0, 2)))


def _assert_epsilon_equilibrium(payoff, sol, tol=1e-9):
    value = sol.row_strategy @ payoff @ sol.col_strategy
    assert abs(value - sol.value) < tol
    # no pure deviation helps either player
    assert (payoff @ sol.col_strategy).max() <= sol.value + tol
    assert (sol.row_strategy @ payoff).min() >= sol.value - tol
    assert sol.row_strategy.min() >= 0 and sol.col_strategy.min() >= 0
    assert abs(sol.row_strategy.sum() - 1) < 1e-12
    assert abs(sol.col_strategy.sum() - 1) < 1e-12


def test_random_matrices_are_epsilon_equilibria():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m, n = rng.integers(1, 7, size=2)
        payoff = rng.uniform(-1.0, 1.0, size=(m, n))
        _assert_epsilon_equilibrium(payoff, solve(payoff))


def test_matches_support_enumeration_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m, n = rng.integers(1, 5, size=2)
        payoff = rng.uniform(-1.0, 1.0, size=(m, n))
        expected, _, _ = support_enumeration_value(payoff)
        assert solve(payoff).value == pytest.approx(expected, abs=1e-8)


def test_duality_with_transposed_negated_game():
    rng = np.random.default_rng(3)
    for _ in range(50):
        payoff = rng.uniform(-2.0, 2.0, size=rng.integers(1, 6, size=2))
        assert solve(-payoff.T).value == pytest.approx(-solve(payoff).value, abs=1e-9)


def test_constant_shift_moves_value_exactly():
    # dyadic-rational entries keep every float operation exact, so the claim
    # is bitwise: value shifts by c, strategies and pivot path are untouched
    rng = np.random.default_rng(5)
    for _ in range(50):
        m, n = rng.integers(1, 6, size=2)
        payoff = rng.integers(-64, 65, size=(m, n)) / 64.0
        c = float(rng.integers(-3, 4))
        base = solve(payoff)
        shifted = solve(payoff + c)
        assert shifted.value == base.value + c
        assert np.array_equal(shifted.row_strategy, base.row_strategy)
        assert np.array_equal(shifted.col_strategy, base.col_strategy)


def test_best_response_at_least_game_value():
    rng = np.random.default_rng(13)
    for _ in range(50):
        payoff = rng.uniform(-1.0, 1.0, size=(rng.integers(1, 5), rng.integers(1, 5)))
        sol = solve(payoff)
        row_value = max(payoff @ sol.col_strategy)  # the row player's best pure reply
        col_value = max(-(sol.row_strategy @ payoff))  # the column player's
        assert row_value >= sol.value - 1e-9
        assert col_value >= -sol.value - 1e-9


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def _assert_stack_is_solve_per_matrix(stack):
    k, m, n = stack.shape
    values, p, q = solve_stack(stack)
    assert values.shape == (k,) and p.shape == (k, m) and q.shape == (k, n)
    for i, payoff in enumerate(stack):
        sol = solve(payoff)
        assert _bits(values[i]) == _bits(sol.value)
        assert _bits(p[i]) == _bits(sol.row_strategy)
        assert _bits(q[i]) == _bits(sol.col_strategy)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 40), m=st.integers(1, 8), n=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), ties=st.booleans())
@example(k=40, m=1, n=8, seed=0, ties=True)
@example(k=40, m=8, n=1, seed=0, ties=False)
def test_solve_stack_is_solve_per_matrix_bit_for_bit(k, m, n, seed, ties):
    # small integers force tied ratios and degenerate pivots; uniform entries
    # mostly give mixed games, so most stacks hold saddles and mixed ones
    rng = np.random.default_rng(seed)
    stack = (rng.integers(-2, 3, size=(k, m, n)).astype(np.float64) if ties
             else rng.uniform(-1.0, 1.0, size=(k, m, n)))
    _assert_stack_is_solve_per_matrix(stack)


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([_TALL, 3 * _TALL]), m=st.integers(1, 9), n=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1), ties=st.booleans())
@example(k=_TALL, m=9, n=2, seed=0, ties=True)
def test_solve_stack_on_a_tall_stack_is_solve_per_matrix_bit_for_bit(k, m, n, seed, ties):
    # a stack of at least _TALL matrices takes the chained saddle test; one
    # matrix alone takes numpy's reductions. Half the zeros are -0.0
    rng = np.random.default_rng(seed)
    stack = (rng.integers(-2, 3, size=(k, m, n)).astype(np.float64) if ties
             else rng.uniform(-1.0, 1.0, size=(k, m, n)))
    stack[(stack == 0.0) & (rng.random(stack.shape) < 0.5)] = -0.0
    _assert_stack_is_solve_per_matrix(stack)


def test_solve_stack_holds_saddles_and_mixed_games_together():
    rng = np.random.default_rng(17)
    stack = rng.uniform(-1.0, 1.0, size=(40, 3, 3))
    saddle = stack.min(axis=2).max(axis=1) == stack.max(axis=1).min(axis=1)
    assert 0 < saddle.sum() < 40
    _assert_stack_is_solve_per_matrix(stack)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_stack_rejects_a_non_finite_entry_anywhere(bad):
    stack = np.random.default_rng(2).uniform(-1.0, 1.0, size=(5, 3, 4))
    stack[3, 2, 1] = bad
    with pytest.raises(ValueError, match="payoff entries must be finite") as per_matrix:
        solve(stack[3])
    with pytest.raises(ValueError, match="payoff entries must be finite") as stacked:
        solve_stack(stack)
    assert str(stacked.value) == str(per_matrix.value)
    with pytest.raises(ValueError, match="stack of non-empty matrices"):
        solve_stack(stack[0])
