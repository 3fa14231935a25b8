"""History window, mixing solve, damping policies, single Anderson steps."""

import gc
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from anderkit.accelerator import (
    DampingPolicy,
    DivergedError,
    HistoryWindow,
    WindowMeter,
    aa_step,
    optimized_beta,
    safeguard_beta,
    solve_mixing_coefficients,
)
from anderkit.composer import AA, Additive, Multiplicative, Picard, RunConfig, run
from anderkit.kernel import least_squares, norm2
from anderkit.kernel import qr_append as _qr_append
from anderkit.problems import bratu_problem, tridiag_problem


# ---- window bookkeeping ----


def _xs(window):
    """The window's iterates, oldest first, rebuilt from its newest x and dx block."""
    dx = window.differences()
    newest = window.newest().x
    return [newest - dx[i:].sum(axis=0) for i in range(len(dx))] + [newest]


def _live(pushed, window):
    """(xs, gxs, fs) of the window's iterates, oldest first, from the pairs pushed onto it."""
    pairs = pushed[-len(window):]
    return [x for x, _ in pairs], [gx for _, gx in pairs], [gx - x for x, gx in pairs]


def _df(pushed, window):
    """The window's p x n df block, rebuilt from the pairs pushed onto it.

    The window keeps no df array, only its factor; checking QR against
    this block, never against QR itself, is what tests the factor.
    """
    return np.diff(_live(pushed, window)[2], axis=0)


def test_window_push_stores_triples_and_evicts_oldest():
    w = HistoryWindow(2)
    w.push(np.array([0.0]), np.array([1.0]))
    w.push(np.array([1.0]), np.array([1.5]))
    w.push(np.array([1.5]), np.array([1.75]))
    assert len(w) == 2
    oldest, newest = _xs(w)
    assert oldest[0] == 1.0 and newest[0] == 1.5
    assert w.newest().f[0] == pytest.approx(0.25)


def test_window_rejects_bad_shapes():
    w = HistoryWindow(3)
    w.push(np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        w.push(np.zeros(3), np.zeros(3))  # dimension change
    with pytest.raises(ValueError):
        w.push(np.zeros(2), np.zeros(3))  # x/gx mismatch
    with pytest.raises(ValueError):
        w.push(np.zeros((2, 1)), np.zeros((2, 1)))  # not 1-D
    with pytest.raises(ValueError):
        HistoryWindow(0)


def test_window_tail_views_newest_entries():
    w = HistoryWindow(5)
    for k in range(5):
        w.push(np.array([float(k)]), np.array([float(k + 1)]))
    t = w.tail(2)
    assert len(t) == 2
    assert [x[0] for x in _xs(t)] == [3.0, 4.0]
    # tail of more than available returns what exists
    assert len(w.tail(99)) == 5
    with pytest.raises(ValueError, match="tail size"):
        w.tail(0)


def test_window_tail_reuses_itself_and_copies_newest_differences():
    rng = np.random.default_rng(4)
    w = HistoryWindow(4)
    pushed = []
    for _ in range(6):
        x = rng.standard_normal(3)
        pushed.append((x, x + rng.standard_normal(3)))
        w.push(*pushed[-1])
    assert w.tail(4) is w and w.tail(99) is w
    t = w.tail(2)
    assert t is not w and t.newest() is w.newest()
    # Q^T f_k is computed once per push and shared with the tails
    assert t.qtf() is w.qtf() and np.array_equal(w.qtf(), w.factor[0].T @ w.newest().f)
    assert np.array_equal(t.differences(), w.differences()[-1:])
    assert t.factor[0] is w.factor[0] and np.array_equal(t.factor[1], w.factor[1][:, -1:])
    fresh = HistoryWindow(2)
    for x, gx in pushed[-2:]:
        fresh.push(x, gx)
    assert np.allclose(solve_mixing_coefficients(t).alpha, solve_mixing_coefficients(fresh).alpha, atol=1e-14)


def test_tail_view_refuses_push_and_leaves_its_window_unchanged():
    rng = np.random.default_rng(12)
    w = HistoryWindow(5)
    for _ in range(7):
        x = rng.standard_normal(8)
        w.push(x, x + rng.standard_normal(8))
    dx = w.differences().copy()
    q, r = (part.copy() for part in w.factor)
    for k in (1, 3):
        with pytest.raises(ValueError):
            w.tail(k).push(np.zeros(8), np.ones(8))
    assert len(w) == 5
    assert np.array_equal(w.differences(), dx)
    assert np.array_equal(w.factor[0], q) and np.array_equal(w.factor[1], r)


def test_wrapped_window_and_its_tails_hold_the_differences_of_their_entries():
    rng = np.random.default_rng(9)
    w = HistoryWindow(5)
    pushed = []
    for _ in range(14):  # more than three trips around the 4-slot ring
        x = rng.standard_normal(7)
        pushed.append((x, x + rng.standard_normal(7)))
        w.push(*pushed[-1])
        for view in [w] + [w.tail(k) for k in range(1, len(w))]:
            xs = _live(pushed, view)[0]
            assert np.array_equal(view.differences(), np.diff(xs, axis=0))
            if len(view) > 1:
                _zero_columns(view, pushed)


def test_meter_tracks_fill_and_peak():
    meter = WindowMeter()
    w = HistoryWindow(3, meter)
    for k in range(6):
        w.push(np.array([float(k)]), np.array([0.0]))
        assert meter.current == min(k + 1, 3)
    assert meter.peak == 3
    w.close()
    assert meter.current == 0
    w.close()  # idempotent
    assert meter.current == 0 and meter.peak == 3


def test_meter_shared_between_windows():
    meter = WindowMeter()
    a = HistoryWindow(2, meter)
    b = HistoryWindow(2, meter)
    a.push(np.zeros(1), np.zeros(1))
    a.push(np.zeros(1), np.zeros(1))
    b.push(np.zeros(1), np.zeros(1))
    assert meter.current == 3 and meter.peak == 3
    b.close()
    assert meter.current == 2


# ---- mixing coefficients ----


def test_mixing_single_entry_is_trivial():
    w = HistoryWindow(1)
    w.push(np.array([1.0, 2.0]), np.array([2.0, 2.5]))
    mix = solve_mixing_coefficients(w)
    assert np.array_equal(mix.alpha, [1.0])
    # Every one-entry mix returns the same [1.0], so no caller may write to it.
    assert not mix.alpha.flags.writeable
    assert np.array_equal(mix.x_avg, [1.0, 2.0])
    assert np.array_equal(mix.gx_avg, [2.0, 2.5])
    assert mix.mixed_norm == pytest.approx(norm2(np.array([1.0, 0.5])))


def test_mixing_empty_window_raises():
    with pytest.raises(ValueError):
        solve_mixing_coefficients(HistoryWindow(2))


def test_mixing_two_entry_hand_cases():
    # opposite residuals cancel at the midpoint
    w = HistoryWindow(2)
    w.push(np.array([0.0, 0.0]), np.array([1.0, 0.0]))  # f = (1, 0)
    w.push(np.array([2.0, 0.0]), np.array([1.0, 0.0]))  # f = (-1, 0)
    mix = solve_mixing_coefficients(w)
    assert np.allclose(mix.alpha, [0.5, 0.5], atol=1e-14)
    assert mix.mixed_norm == pytest.approx(0.0, abs=1e-14)

    # orthogonal residuals: best is the midpoint, norm sqrt(2)/2
    w = HistoryWindow(2)
    w.push(np.array([0.0, 0.0]), np.array([1.0, 0.0]))  # f = (1, 0)
    w.push(np.array([1.0, 0.0]), np.array([1.0, 1.0]))  # f = (0, 1)
    mix = solve_mixing_coefficients(w)
    assert np.allclose(mix.alpha, [0.5, 0.5], atol=1e-14)
    assert mix.mixed_norm == pytest.approx(np.sqrt(2.0) / 2.0)

    # identical residuals: degenerate, weight goes to the newest entry
    w = HistoryWindow(2)
    w.push(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    w.push(np.array([1.0, 1.0]), np.array([2.0, 1.0]))
    mix = solve_mixing_coefficients(w)
    assert np.allclose(mix.alpha, [0.0, 1.0], atol=1e-14)


def test_mixing_beats_constrained_grid_search():
    # brute force over the sum-to-one simplex slice
    rng = np.random.default_rng(55)
    for _ in range(15):
        w = HistoryWindow(3)
        pushed = []
        for _ in range(3):
            x = rng.standard_normal(4)
            pushed.append((x, x + rng.standard_normal(4)))
            w.push(*pushed[-1])
        mix = solve_mixing_coefficients(w)
        assert mix.alpha_sum == pytest.approx(1.0, abs=1e-12)
        fs = _live(pushed, w)[2]
        grid = np.linspace(-2.0, 3.0, 51)
        for a0 in grid:
            for a1 in grid:
                a2 = 1.0 - a0 - a1
                trial = norm2(a0 * fs[0] + a1 * fs[1] + a2 * fs[2])
                assert mix.mixed_norm <= trial + 1e-10


def test_mixing_averages_are_weighted_sums():
    rng = np.random.default_rng(91)
    w = HistoryWindow(4)
    xs, gs = [], []
    for _ in range(4):
        x = rng.standard_normal(5)
        gx = rng.standard_normal(5)
        xs.append(x)
        gs.append(gx)
        w.push(x, gx)
    mix = solve_mixing_coefficients(w)
    x_ref = sum(a * x for a, x in zip(mix.alpha, xs))
    g_ref = sum(a * gx for a, gx in zip(mix.alpha, gs))
    assert np.allclose(mix.x_avg, x_ref, atol=1e-12)
    assert np.allclose(mix.gx_avg, g_ref, atol=1e-12)
    assert mix.mixed_norm == pytest.approx(norm2(mix.gx_avg - mix.x_avg), abs=1e-12)


def test_mixing_norm_never_exceeds_newest_residual():
    # feasibility: alpha = (0,...,0,1) is always available
    rng = np.random.default_rng(137)
    for trial in range(30):
        depth = int(rng.integers(1, 6))
        w = HistoryWindow(depth)
        for _ in range(int(rng.integers(1, depth + 1))):
            x = rng.standard_normal(6)
            w.push(x, x + rng.standard_normal(6) * 0.5)
        mix = solve_mixing_coefficients(w)
        newest = norm2(w.newest().f)
        assert mix.mixed_norm <= newest * (1.0 + 1e-12) + 1e-15


# ---- the updated factor against the stacked reference ----


def _padded_least_squares(matrix, rhs):
    # Zero rows leave the minimization unchanged when columns outnumber rows.
    n, p = matrix.shape
    if p > n:
        matrix = np.vstack((matrix, np.zeros((p - n, p))))
        rhs = np.concatenate((rhs, np.zeros(p - n)))
    return least_squares(matrix, rhs)


def _fallback_alpha(window, pushed):
    """alpha from least_squares on the stacked consecutive differences."""
    gamma = _padded_least_squares(_df(pushed, window).T, window.newest().f)
    return np.diff(gamma, prepend=0.0, append=1.0)


def _eliminated_alpha(fs):
    """alpha from least_squares on the stacked f_i - f_k matrix."""
    w = _padded_least_squares(np.column_stack([f - fs[-1] for f in fs[:-1]]), -fs[-1])
    return np.append(w, 1.0 - w.sum())


def _blend(alpha, vectors):
    return sum(a * v for a, v in zip(alpha, vectors))


def _zero_columns(window, pushed):
    """Check the factor invariant and return the indices of Q's zero columns.

    Every column of Q is orthonormal within 1e-12 or exactly zero, a zero
    column has an exactly zero row in R, and QR equals the live df block.
    """
    q, r = window.factor
    block = _df(pushed, window).T
    zero = ~q.any(axis=0)
    live = q[:, ~zero]
    assert np.abs(live.T @ live - np.eye(live.shape[1])).max(initial=0.0) <= 1e-12
    assert not r[zero].any()
    assert np.linalg.norm(q @ r - block) <= 1e-12 * max(np.linalg.norm(block), 1.0)
    return np.flatnonzero(zero)


def _check_fallback(window, pushed, same_averages):
    # alpha of a rank-deficient window is not unique: the window's alpha is
    # the stacked-difference solve's, and its mixed residual (and, when
    # whole iterates repeat, its averages) match the f_i - f_k formulation.
    _zero_columns(window, pushed)
    mix = solve_mixing_coefficients(window)
    assert np.allclose(mix.alpha, _fallback_alpha(window, pushed), rtol=0.0, atol=1e-10)
    xs, gxs, fs = _live(pushed, window)
    ref = _eliminated_alpha(fs)
    assert norm2(_blend(mix.alpha, fs) - _blend(ref, fs)) <= 1e-10 * max(norm2(fs[-1]), 1.0)
    if same_averages:
        assert np.allclose(mix.x_avg, _blend(ref, xs), rtol=0.0, atol=1e-10)
        assert np.allclose(mix.gx_avg, _blend(ref, gxs), rtol=0.0, atol=1e-10)
    step = aa_step(window, DampingPolicy.none(), lambda x: x)
    (_, alpha_sum), = step.checks
    assert np.all(np.isfinite(step.x_next)) and alpha_sum == pytest.approx(1.0, abs=1e-12)


def test_repeated_iterate_takes_stacked_fallback_until_evicted():
    # The repeat makes dx = df = 0: the factor stores it as a zero column
    # and mixes as the stacked reference does until the column is gone.
    rng = np.random.default_rng(21)
    g = lambda x: np.cos(x) + 0.5
    w = HistoryWindow(4)
    pushed = []
    x0, x1 = rng.standard_normal(6), rng.standard_normal(6)
    for x in (x0, x1, x1):
        pushed.append((x, g(x)))
        w.push(*pushed[-1])
    assert list(_zero_columns(w, pushed)) == [1]
    _check_fallback(w, pushed, same_averages=True)
    x = rng.standard_normal(6)
    pushed.append((x, g(x)))
    w.push(*pushed[-1])
    _check_fallback(w, pushed, same_averages=True)
    # once the zero difference is evicted, every column is orthonormal
    for _ in range(2):
        x = rng.standard_normal(6)
        pushed.append((x, g(x)))
        w.push(*pushed[-1])
        _check_fallback(w, pushed, same_averages=True)
    assert not _zero_columns(w, pushed).size


def _dependent_window():
    """A depth-4 window on integer data with df_2 = 2 df_0, exact in floating point."""
    rng = np.random.default_rng(34)
    d = rng.integers(-5, 6, 5).astype(float)
    e = rng.integers(-5, 6, 5).astype(float)
    f = rng.integers(-5, 6, 5).astype(float)
    w = HistoryWindow(4)
    pushed = []
    for step in (np.zeros(5), d, e, 2.0 * d):
        f = f + step
        x = rng.integers(-9, 10, 5).astype(float)
        pushed.append((x, x + f))
        w.push(*pushed[-1])
    return rng, f, w, pushed


def test_dependent_differences_take_stacked_fallback():
    _, _, w, pushed = _dependent_window()
    assert list(_zero_columns(w, pushed)) == [2]
    _check_fallback(w, pushed, same_averages=False)


def test_dependent_differences_regain_the_factor_once_the_block_factors():
    rng, f, w, pushed = _dependent_window()
    q, r = w.factor
    assert not q[:, 2].any() and r[2, 2] == 0.0
    # the next push evicts df_0; [df_1, df_2, df_3] is independent, and
    # the zero row has left the triangle
    x = rng.standard_normal(5)
    pushed.append((x, x + f + rng.standard_normal(5)))
    w.push(*pushed[-1])
    q, r = w.factor
    block = _df(pushed, w).T
    assert q.shape == (5, 3) and np.allclose(q @ r, block, rtol=0.0, atol=1e-12)
    assert not _zero_columns(w, pushed).size and np.abs(np.diag(r)).min() > 1e-8


def test_scalar_window_deeper_than_its_dimension_takes_stacked_fallback():
    # n = 1 with depth 3: the second difference column in a one-row
    # problem is past the n-th, so it is stored as a zero column
    g = lambda x: np.cos(x)
    w = HistoryWindow(3)
    pushed = []
    for x in (0.0, 1.0, 3.0, -2.0):
        pushed.append((np.array([x]), g(np.array([x]))))
        w.push(*pushed[-1])
        if len(w) > 1:
            assert list(_zero_columns(w, pushed)) == list(range(1, len(w) - 1))
            _check_fallback(w, pushed, same_averages=False)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_factor_invariant_holds_through_repeats_dependencies_and_evictions(data):
    # Integer data keeps repeats and dependencies exact in floating point.
    n = data.draw(st.integers(1, 6), label="n")
    capacity = data.draw(st.integers(2, 6), label="capacity")
    moves = st.sampled_from(["fresh", "repeat", "dependent"])
    # a zero column that stays in the window while older columns are evicted
    script = (
        data.draw(st.lists(moves, max_size=8), label="before")
        + ["repeat"]
        + data.draw(st.lists(moves, min_size=capacity, max_size=capacity + 6), label="after")
    )

    def ints(lo, hi, size=n):
        drawn = data.draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size))
        return np.array(drawn, float)

    x = ints(-9, 9)
    pushed = [(x, x + ints(-5, 5))]
    w = HistoryWindow(capacity)
    w.push(*pushed[0])
    for move in script:
        x, gx = pushed[-1]
        df = _df(pushed, w)
        if move == "dependent" and len(df):
            # f moves by an integer combination of the live df columns
            f = gx - x + ints(-2, 2, len(df)) @ df
            x = ints(-9, 9)
            gx = x + f
        elif move != "repeat":
            x = ints(-9, 9)
            gx = x + ints(-5, 5)
        pushed.append((x, gx))
        w.push(x, gx)
        _zero_columns(w, pushed)
        for view in [w.tail(k) for k in range(2, len(w))] + [w]:
            fs = _live(pushed, view)[2]
            stacked = np.column_stack([f - fs[-1] for f in fs[:-1]])
            want = fs[-1] + stacked @ np.linalg.lstsq(stacked, -fs[-1], rcond=None)[0]
            mix = solve_mixing_coefficients(view)
            scale = max(norm2(fs[-1]), 1.0)
            assert norm2(_blend(mix.alpha, fs) - want) <= 1e-10 * scale
            assert abs(mix.mixed_norm - norm2(want)) <= 1e-10 * scale


def test_updated_factor_stays_orthogonal_over_a_long_run():
    rng = np.random.default_rng(1000)
    n = 40
    w = HistoryWindow(21)
    pushed = []
    for _ in range(1000):
        x = rng.standard_normal(n)
        pushed.append((x, x + rng.standard_normal(n)))
        del pushed[:-21]
        w.push(*pushed[-1])
        if len(w) < 2:
            continue
        q, r = w.factor
        block = _df(pushed, w).T
        assert np.linalg.norm(q.T @ q - np.eye(q.shape[1])) <= 1e-10
        assert np.linalg.norm(q @ r - block) <= 1e-10 * np.linalg.norm(block)
        fs = _live(pushed, w)[2]
        stacked = np.column_stack([f - fs[-1] for f in fs[:-1]])
        ref = norm2(fs[-1] + stacked @ least_squares(stacked, -fs[-1]))
        assert abs(solve_mixing_coefficients(w).mixed_norm - ref) <= 1e-10 * ref


def test_updated_factor_stays_orthogonal_on_nearly_dependent_differences():
    # every df is one direction plus a 1e-7 perturbation: cond(dF) ~ 1e7,
    # where a single Gram-Schmidt pass would lose orthogonality
    rng = np.random.default_rng(77)
    n = 30
    base = rng.standard_normal(n)
    f = rng.standard_normal(n)
    w = HistoryWindow(11)
    pushed = []
    for _ in range(100):
        f = f + base + 1e-7 * rng.standard_normal(n)
        x = rng.standard_normal(n)
        pushed.append((x, x + f))
        del pushed[:-11]
        w.push(*pushed[-1])
        if len(w) < 2:
            continue
        q, r = w.factor
        assert np.linalg.norm(q.T @ q - np.eye(q.shape[1])) <= 1e-10
        block = _df(pushed, w).T
        assert np.linalg.norm(q @ r - block) <= 1e-10 * np.linalg.norm(block)
        # The mixed residual is f_k - Q (R gamma), never f_k - dF gamma: it
        # and the averages match the stacked f_i - f_k solve as closely as a
        # cond ~ 1e7 problem allows (alpha reaches ~1e7 here).
        xs, gxs, fs = _live(pushed, w)
        stacked = np.column_stack([f_i - fs[-1] for f_i in fs[:-1]])
        weights = least_squares(stacked, -fs[-1])
        alpha = np.append(weights, 1.0 - weights.sum())
        mix = solve_mixing_coefficients(w)
        assert abs(mix.mixed_norm - norm2(fs[-1] + stacked @ weights)) <= 1e-9 * norm2(fs[-1])
        spread = np.abs(alpha).sum()
        assert norm2(mix.x_avg - _blend(alpha, xs)) <= 1e-6 * spread * max(map(norm2, xs))
        assert norm2(mix.gx_avg - _blend(alpha, gxs)) <= 1e-6 * spread * max(map(norm2, gxs))


def test_factor_is_updated_in_place_in_preallocated_storage():
    rng = np.random.default_rng(88)
    n = 200
    w = HistoryWindow(8)
    pushed = []
    q_first = None
    for _ in range(30):
        x = rng.standard_normal(n)
        pushed.append((x, x + rng.standard_normal(n)))
        w.push(*pushed[-1])
        if len(w) < 2:
            continue
        q, r = w.factor
        if q_first is None:
            q_first = q
        assert np.shares_memory(q, q_first)
        assert np.array_equal(r, np.triu(r))
        block = _df(pushed, w).T
        assert np.allclose(q @ r, block, rtol=0.0, atol=1e-12)


def _owned_floats(window):
    """Floats in the arrays that are the window's attributes and own their memory."""
    return sum(a.size for a in vars(window).values() if isinstance(a, np.ndarray) and a.base is None)


@pytest.mark.parametrize("capacity, n", [(1, 3), (2, 1), (5, 4), (5, 30), (21, 64)])
def test_window_stores_the_dx_ring_and_the_factor_and_its_tails_store_nothing(capacity, n):
    # Once full, a window holds the mirrored dx ring, Q and R, and no df
    # block: (3 (c - 1) - 1) n + (c - 1)^2 floats for n >= c - 1, and a
    # capacity-1 window none.
    rng = np.random.default_rng(capacity * n)
    w = HistoryWindow(capacity)
    for _ in range(capacity + 2):
        x = rng.standard_normal(n)
        w.push(x, x + rng.standard_normal(n))
    slots = capacity - 1
    assert _owned_floats(w) == ((3 * slots - 1) * n + slots * slots if slots else 0)
    for k in range(1, capacity):
        t = w.tail(k)
        solve_mixing_coefficients(t)
        views = [a for a in vars(t).values() if isinstance(a, np.ndarray)] + list(t.factor or ())
        assert _owned_floats(t) == 0 and all(a.base is not None for a in views)


def _peak_vectors(spec, problem, steps=60):
    """Peak traced bytes of a steps-long run after a warm-up, in n-vectors."""
    config = RunConfig(tol=1e-300, max_iters=steps)
    run(spec, problem, problem.default_start, config)
    gc.collect()
    tracemalloc.start()
    try:
        trace = run(spec, problem, problem.default_start, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.iters == steps, spec
    return peak / (8 * problem.n)


def test_a_window_slot_costs_about_three_vectors_in_every_form():
    # The bytes a run really holds, numpy's buffers included: above Picard,
    # each of m slots costs about two mirrored dx rows and one column of Q,
    # plus a share of R and of a mix's transient vectors (about 3.2
    # n-vectors at m = 20). The AA(1) parts of AA(m,AA(1)) and
    # ADD(AA(m),AA(1)) add no vector per slot.
    problem = bratu_problem(64)
    base = _peak_vectors(Picard(), problem)
    m = 20
    for spec in (AA(m), Multiplicative(AA(m), AA(1)), Additive(AA(m), AA(1))):
        per_slot = (_peak_vectors(spec, problem) - base) / m
        assert 3.0 < per_slot < 3.4, (spec.label, per_slot)


def _refuse_qr_delete(*args, **kwargs):
    raise RuntimeError("qr_delete called")


def test_capacity_two_window_replaces_its_one_column_factor(monkeypatch):
    # A one-column factor is replaced, not downdated: every push leaves
    # q = u / rho, r = [[rho]] for the live df row u, without qr_delete.
    monkeypatch.setattr(scipy.linalg, "qr_delete", _refuse_qr_delete)
    rng = np.random.default_rng(202)
    n = 50
    g = lambda x: np.cos(x) + 0.5
    w = HistoryWindow(2)
    pushed = []
    x = rng.standard_normal(n)
    for i in range(240):
        if i != 120:  # push 120 repeats the iterate: a zero column
            x = rng.standard_normal(n)
        pushed.append((x, g(x)))
        w.push(*pushed[-1])
        if i == 0:
            assert w.factor is None
            continue
        q, r = w.factor
        assert q.shape == (n, 1) and r.shape == (1, 1)
        if i == 120:
            assert not q[:, 0].any() and np.array_equal(r, [[0.0]])
            assert np.array_equal(solve_mixing_coefficients(w).alpha, [0.0, 1.0])
            continue
        # u = f_i - f_{i-1}, the bits the window handed its factor
        (u,) = _df(pushed, w)
        rho = np.sqrt(u @ u)
        assert np.array_equal(q[:, 0], u / rho), i
        assert np.array_equal(r, [[rho]]), i


def test_deeper_full_window_still_downdates_with_qr_delete(monkeypatch):
    monkeypatch.setattr(scipy.linalg, "qr_delete", _refuse_qr_delete)
    rng = np.random.default_rng(203)
    w = HistoryWindow(3)
    for _ in range(3):
        x = rng.standard_normal(10)
        w.push(x, x + rng.standard_normal(10))
    assert w.factor is not None
    x = rng.standard_normal(10)
    with pytest.raises(RuntimeError, match="qr_delete called"):
        w.push(x, x + rng.standard_normal(10))


def test_qr_append_onto_an_empty_basis_equals_the_projection_formula():
    rng = np.random.default_rng(204)
    for n in (2, 3, 17, 50):
        u = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
        u[::2] = -0.0
        u[-1] = 1.5
        q = np.empty((n, 3), order="F")
        r = np.zeros((3, 3))
        _qr_append(q, r, 0, u)
        # classical Gram-Schmidt with reorthogonalization, k = 0
        qk = np.empty((n, 0))
        c = qk.T @ u
        v = u - qk @ c
        c2 = qk.T @ v
        v -= qk @ c2
        rho = np.sqrt(v @ v)
        want = v / rho
        assert np.array_equal(q[:, 0], want)
        assert np.array_equal(np.signbit(q[:, 0]), np.signbit(want))
        assert np.array_equal(r, [[rho, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def test_qr_append_keeps_live_columns_at_any_scale():
    # ||u||^2 and ||v||^2 under- or overflow, but the columns are
    # independent: both are kept, with R scaled by 2^k and Q unchanged
    rng = np.random.default_rng(67)
    u1, u2 = rng.standard_normal(5), rng.standard_normal(5)
    q0, r0 = np.zeros((5, 2), order="F"), np.zeros((2, 2))
    _qr_append(q0, r0, 0, u1)
    _qr_append(q0, r0, 1, u2)
    for k in (-600, 600):
        q, r = np.zeros((5, 2), order="F"), np.zeros((2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _qr_append(q, r, 0, np.ldexp(u1, k))
            _qr_append(q, r, 1, np.ldexp(u2, k))
        assert np.array_equal(r, np.ldexp(r0, k)) and np.array_equal(q, q0), k


def test_qr_append_onto_an_empty_basis_refuses_what_it_cannot_factor():
    # It refuses nothing now: a zero column becomes an exact zero, and a
    # non-finite one is stored as it is, so the next solve raises.
    n = 6
    for u in (np.zeros(n), np.full(n, -0.0)):
        q = np.ones((n, 2), order="F")
        r = np.ones((2, 2))
        _qr_append(q, r, 0, u)
        assert not q[:, 0].any() and not np.signbit(q[:, 0]).any()
        assert r[0, 0] == 0.0 and np.array_equal(q[:, 1], np.ones(n))
    for bad in (np.nan, np.inf):
        u = np.ones(n)
        u[3] = bad
        q = np.zeros((n, 2), order="F")
        r = np.zeros((2, 2))
        with np.errstate(invalid="ignore"):  # inf / inf
            _qr_append(q, r, 0, u)
        with pytest.raises(ValueError, match="infs or NaNs"):
            least_squares(r[:1, :1], q[:, :1].T @ np.ones(n))
        for capacity in (2, 4):
            w = HistoryWindow(capacity)
            w.push(np.zeros(n), np.ones(n))
            with np.errstate(invalid="ignore"):
                w.push(np.zeros(n), u)
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve_mixing_coefficients(w)
    # one row takes one column
    for u, want_q, want_r in ((np.array([2.0]), 1.0, 2.0), (np.array([-0.0]), 0.0, 0.0)):
        q = np.zeros((1, 1), order="F")
        r = np.zeros((1, 1))
        _qr_append(q, r, 0, u)
        assert q[0, 0] == want_q and r[0, 0] == want_r


def _gram_schmidt(qk, u, passes):
    """(r[:k, k], q[:, k], rho) of classical Gram-Schmidt with 1 or 2 passes."""
    c = qk.T @ u
    v = u - qk @ c
    if passes == 2:
        c2 = qk.T @ v
        v -= qk @ c2
        c = c + c2
    rho = np.sqrt(v @ v)
    return c, v / rho, rho


def _orthonormal_basis_and_a_column(rng, n, k, outside):
    """Q with k orthonormal columns, and a unit u whose part outside them has norm `outside`."""
    q = np.zeros((n, k + 1), order="F")
    q[:, :k] = np.linalg.qr(rng.standard_normal((n, k)))[0]
    qk = q[:, :k]
    inside = qk @ rng.standard_normal(k)
    away = rng.standard_normal(n)
    away -= qk @ (qk.T @ away)
    away -= qk @ (qk.T @ away)
    u = np.sqrt(1.0 - outside**2) * inside / np.sqrt(inside @ inside)
    u += outside * away / np.sqrt(away @ away)
    return q, u


def test_qr_append_reorthogonalizes_only_below_the_dgks_threshold():
    # One pass leaves v = u - Q Q^T u; a second runs only where
    # ||v|| < ||u|| / sqrt(2) (Daniel, Gragg, Kaufman & Stewart, 1976).
    rng = np.random.default_rng(205)
    n = 40
    for k in (1, 3, 10, 25):
        for outside, passes in ((0.95, 1), (0.72, 1), (0.70, 2), (0.3, 2), (1e-6, 2)):
            q, u = _orthonormal_basis_and_a_column(rng, n, k, outside)
            r = np.full((k + 1, k + 1), 7.0)
            want = _gram_schmidt(q[:, :k], u, passes)
            other = _gram_schmidt(q[:, :k], u, 3 - passes)
            # the two pass counts round differently here, so the bits tell them apart
            assert not np.array_equal(want[0], other[0]) or not np.array_equal(want[1], other[1])
            _qr_append(q, r, k, u)
            case = (k, outside)
            assert np.array_equal(r[:k, k], want[0]), case
            assert np.array_equal(q[:, k], want[1]), case
            assert r[k, k] == want[2] and not r[k, :k].any(), case


def test_differences_whose_norm_overflows_mix_as_the_stacked_reference():
    # ||df|| near 1e154 overflows v @ v; the column is scaled, not zeroed
    rng = np.random.default_rng(3)
    w = HistoryWindow(3)
    pushed = []
    with np.errstate(over="ignore"):
        for _ in range(3):
            x = rng.standard_normal(4)
            pushed.append((x, x + 1e154 * rng.standard_normal(4)))
            w.push(*pushed[-1])
        mix = solve_mixing_coefficients(w)
    q, r = w.factor
    assert np.abs(q.T @ q - np.eye(2)).max() <= 1e-12
    assert np.allclose(q @ (r / 1e154), _df(pushed, w).T / 1e154, rtol=0.0, atol=1e-12)
    assert np.allclose(mix.alpha, _fallback_alpha(w, pushed), rtol=0.0, atol=1e-10)


# ---- damping ----


def test_optimized_beta_known_projections():
    # r_p=(1,0), r_q=(-1,0): minimizer of |(1-b)r_p + b r_q| is b=1/2
    assert optimized_beta(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == pytest.approx(0.5)
    # projection above 1 clamps
    assert optimized_beta(np.array([2.0, 0.0]), np.array([1.0, 0.0])) == 1.0
    # orthogonal case: b = |r_p|^2 / (|r_p|^2 + |r_q|^2)
    b = optimized_beta(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    assert b == pytest.approx(1.0 / 5.0)


def test_optimized_beta_matches_grid_argmin():
    rng = np.random.default_rng(2024)
    grid = np.linspace(0.0, 1.0, 100001)
    hits = 0
    for _ in range(40):
        r_p = rng.standard_normal(5)
        r_q = rng.standard_normal(5)
        denom = float(np.dot(r_p - r_q, r_p - r_q))
        signed = float(np.dot(r_p, r_p - r_q)) / denom
        if not 0.0 < signed < 1.0:
            continue
        hits += 1
        vals = np.linalg.norm(
            np.outer(1.0 - grid, r_p) + np.outer(grid, r_q), axis=1
        )
        best = grid[int(np.argmin(vals))]
        assert abs(optimized_beta(r_p, r_q) - best) < 1e-4
    assert hits >= 10


def test_optimized_beta_is_scale_free_out_of_range():
    # ||r_p - r_q||^2 under- or overflows past 2^+-512; beta is unchanged
    rng = np.random.default_rng(61)
    for _ in range(20):
        r_p, r_q = rng.standard_normal(6), rng.standard_normal(6)
        beta = optimized_beta(r_p, r_q)
        for k in (-1000, -600, 600, 1000):
            assert optimized_beta(np.ldexp(r_p, k), np.ldexp(r_q, k)) == beta, k


def test_optimized_beta_degenerate_inputs():
    r = np.array([1.0, -1.0])
    assert optimized_beta(r, r.copy()) == 1.0  # r_p == r_q
    assert optimized_beta(np.zeros(2), np.zeros(2)) == 1.0
    # orthogonal projection exactly zero
    assert optimized_beta(np.array([0.0, 1.0]), np.array([0.0, -1.0])) == pytest.approx(0.5)
    assert optimized_beta(np.array([0.0, 0.0]), np.array([1.0, 0.0])) == 1.0


def test_safeguard_floor_and_reflect():
    floor = DampingPolicy.optimized(eta=0.2, safeguard="floor")
    assert safeguard_beta(0.05, floor) == pytest.approx(0.2)
    assert safeguard_beta(0.7, floor) == pytest.approx(0.7)
    reflect = DampingPolicy.optimized(eta=0.2, safeguard="reflect")
    assert safeguard_beta(0.05, reflect) == pytest.approx(0.95)
    assert safeguard_beta(0.7, reflect) == pytest.approx(0.7)
    off = DampingPolicy.optimized()
    assert safeguard_beta(0.05, off) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        safeguard_beta(1.5, off)


def test_damping_policy_validation():
    with pytest.raises(ValueError):
        DampingPolicy.constant(0.0)
    with pytest.raises(ValueError):
        DampingPolicy.constant(1.5)
    with pytest.raises(ValueError):
        DampingPolicy.optimized(eta=0.5, safeguard="floor")
    with pytest.raises(ValueError):
        DampingPolicy(kind="bogus")
    with pytest.raises(ValueError):
        DampingPolicy(kind="optimized", safeguard="sometimes")
    # fields the kind ignores
    for fields in [
        dict(kind="none", beta=0.3),
        dict(kind="constant", beta=0.5, safeguard="floor"),
        dict(kind="optimized", beta=0.2),
        dict(kind="none", eta=0.3),
    ]:
        with pytest.raises(ValueError):
            DampingPolicy(**fields)
    assert DampingPolicy.none().beta == 1.0
    assert DampingPolicy.constant(0.3).kind == "constant"


# ---- single steps ----


def _push_with(g, w, x):
    w.push(x, g(x))


def test_step_with_single_entry_is_picard():
    calls = []

    def g(x):
        calls.append(x)
        return 0.5 * x + 1.0

    w = HistoryWindow(3)
    x0 = np.array([0.0])
    _push_with(g, w, x0)
    step = aa_step(w, DampingPolicy.none(), g)
    assert step.x_next[0] == pytest.approx(1.0)
    assert step.beta == 1.0
    assert step.theta == pytest.approx(1.0)
    assert len(calls) == 1  # the push only; the step spent no evaluation


def test_step_scalar_affine_reaches_fixed_point_in_two():
    # g(x) = 0.5x + 1 has fixed point 2; two entries pin the line exactly.
    g = lambda x: 0.5 * x + 1.0
    w = HistoryWindow(2)
    x = np.array([0.0])
    _push_with(g, w, x)
    x1 = aa_step(w, DampingPolicy.none(), g).x_next
    assert x1[0] == pytest.approx(1.0)
    _push_with(g, w, x1)
    step = aa_step(w, DampingPolicy.none(), g)
    assert step.x_next[0] == pytest.approx(2.0, abs=1e-14)
    assert step.theta == pytest.approx(0.0, abs=1e-14)
    (theta, alpha_sum), = step.checks
    assert theta == step.theta
    assert alpha_sum == pytest.approx(1.0, abs=1e-14)


def test_step_constant_damping_blends_averages():
    g = lambda x: 0.5 * x + 1.0
    w = HistoryWindow(1)
    x = np.array([0.0])
    _push_with(g, w, x)
    step = aa_step(w, DampingPolicy.constant(0.25), g)
    # single entry: x_avg = 0, gx_avg = 1, so next = 0.75*0 + 0.25*1
    assert step.x_next[0] == pytest.approx(0.25)
    assert step.beta == 0.25


def test_step_optimized_costs_two_evals_and_moves_along_segment():
    calls = {"n": 0}

    def g(x):
        calls["n"] += 1
        return 0.5 * x + 1.0

    w = HistoryWindow(2)
    x = np.array([0.0])
    w.push(x, 0.5 * x + 1.0)
    step = aa_step(w, DampingPolicy.optimized(), g)
    # the push did not call g, so both calls are the step's probes
    assert calls["n"] == 2
    # scalar affine: x_avg=0, gx_avg=1, r_p=-1, r_q=-0.5, projection = 2 -> clamp 1
    assert step.beta == 1.0
    assert step.x_next[0] == pytest.approx(1.0)


def test_step_optimized_probes_survive_a_map_that_reuses_its_output_buffer():
    # The second probe may write over the first one's image; beta must come
    # from g(x_avg) and g(gx_avg), not from g(gx_avg) twice.
    p = tridiag_problem(30)
    buf = np.empty(p.n)

    def reused(x):
        buf[:] = p.g(x)
        return buf

    w = HistoryWindow(4)
    x = p.default_start
    for _ in range(5):  # AA(3) steps, the last push evicting
        w.push(x, p.g(x))
        x = aa_step(w, DampingPolicy.none(), p.g).x_next
    fresh = aa_step(w, DampingPolicy.optimized(), p.g)
    step = aa_step(w, DampingPolicy.optimized(), reused)
    assert fresh.beta < 1.0
    assert step.beta == fresh.beta
    assert np.array_equal(step.x_next, fresh.x_next)


def test_step_optimized_interior_beta_on_expanding_map():
    # g(x) = -2x + 3: fixed point 1, |g'| = 2. From x=0: x_avg=0, gx_avg=3,
    # r_p = -3, r_q = -(g(3)-3) = 6, projection = |(-9)*(-3)|/81 = 1/3.
    g = lambda x: -2.0 * x + 3.0
    w = HistoryWindow(1)
    x = np.array([0.0])
    w.push(x, g(x))
    step = aa_step(w, DampingPolicy.optimized(), g)
    assert step.beta == pytest.approx(1.0 / 3.0)
    assert step.x_next[0] == pytest.approx(1.0)  # 0 + (1/3)*3 lands on the fixed point


@pytest.mark.parametrize("policy", [DampingPolicy.none(), DampingPolicy.constant(1.0)])
@pytest.mark.parametrize("p", [0, 1, 2, 5])
def test_undamped_step_equals_the_beta_one_blend(p, policy):
    # The undamped step returns the averaged image instead of computing the
    # blend; the two may differ only in the sign of a zero entry.
    rng = np.random.default_rng(71 + p)
    mat = rng.standard_normal((12, 12))
    mat *= 0.9 / np.linalg.norm(mat, 2)
    g = lambda x: mat @ x + 1.0
    w = HistoryWindow(p + 1)
    x = rng.standard_normal(12)
    for _ in range(p + 1):
        _push_with(g, w, x)
        x = g(x) + 0.1 * rng.standard_normal(12)
    assert len(w) - 1 == p
    mix = solve_mixing_coefficients(w)
    step = aa_step(w, policy, g)
    assert step.beta == 1.0
    assert np.array_equal(step.x_next, (1.0 - 1.0) * mix.x_avg + 1.0 * mix.gx_avg)


def test_single_entry_step_is_checked_unless_its_norm_is_finite(monkeypatch):
    # A finite ||f|| proves the one-entry step finite, so it is not checked.
    # Here f is finite but its true norm, 1.5e308 * sqrt(2), overflows: the
    # step is checked and, being finite, returned.
    checked = []
    isfinite = np.isfinite

    def spy(a):
        checked.append(a)
        return isfinite(a)

    for gx, want_checked in (([1.0, 2.0], False), ([1.5e308, 1.5e308], True)):
        w = HistoryWindow(1)
        w.push(np.zeros(2), np.array(gx))
        assert np.isfinite(w.newest().f_norm) != want_checked
        checked.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np, "isfinite", spy)
            step = aa_step(w, DampingPolicy.none(), lambda x: x)
        assert np.array_equal(step.x_next, gx)
        assert any(a is step.x_next for a in checked) == want_checked, gx


def test_step_non_finite_next_iterate_raises():
    g = lambda x: x * np.inf
    w = HistoryWindow(1)
    w.push(np.array([1.0]), np.array([np.inf]))
    with pytest.raises(DivergedError):
        aa_step(w, DampingPolicy.none(), g)


def test_deeper_undamped_step_is_checked_though_its_norm_is_finite():
    # Two entries: the mixing extrapolates by about 1e12 along a 1e300
    # difference, so the averaged image overflows while ||f_k|| is 1.
    w = HistoryWindow(2)
    w.push(np.zeros(2), np.array([0.0, 1.0]))
    w.push(np.array([1e300, 0.0]), np.array([1e300, 1.0 + 2.0**-40]))
    assert np.isfinite(w.newest().f_norm)
    with np.errstate(over="ignore"), pytest.raises(DivergedError):
        aa_step(w, DampingPolicy.none(), lambda x: x)


def test_step_non_finite_probe_raises():
    def g(x):
        return np.full_like(x, np.nan)

    w = HistoryWindow(1)
    w.push(np.array([1.0]), np.array([2.0]))
    with pytest.raises(DivergedError):
        aa_step(w, DampingPolicy.optimized(), g)
