from itertools import combinations

import numpy as np
import pytest

from persuasion_lab import BUILTIN_INSTANCES, builtin_instance, simplex
from persuasion_lab.classic import build_obedience_lp, solve_classic
from persuasion_lab.errors import LPError, LPInfeasibleError, LPIterationLimitError
from persuasion_lab.repro import sweep_instances
from persuasion_lab.simplex import solve_standard_form
from support import bland_iterate_oracle, exact_basis_violations

# Beale's example: cycles under naive pivoting, Bland's rule terminates
BEALE = (
    np.array(
        [
            [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
    ),
    np.array([0.0, 0.0, 1.0]),
    np.array([0.75, -150.0, 1.0 / 50.0, -6.0, 0.0, 0.0, 0.0]),
)


def certified_solve(A, b, c):
    """Solve, then check the returned basis exactly in rationals."""
    res = solve_standard_form(A, b, c)
    assert exact_basis_violations(A, b, c, res.basis, res.rows, res.objective) == []
    return res


def brute_force_optimum(A, b, c):
    """Enumerate basic feasible solutions; None when infeasible."""
    m, n = A.shape
    best = None
    for cols in combinations(range(n), m):
        B = A[:, cols]
        if abs(np.linalg.det(B)) < 1e-10:
            continue
        xb = np.linalg.solve(B, b)
        if np.any(xb < -1e-9):
            continue
        val = float(c[list(cols)] @ xb)
        if best is None or val > best:
            best = val
    return best


def test_simple_bounded_lp():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 (slacks explicit)
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    c = np.array([3.0, 2.0, 0.0, 0.0])
    res = solve_standard_form(A, b, c)
    assert res.objective == pytest.approx(12.0, abs=1e-9)
    assert res.x[:2] == pytest.approx([4.0, 0.0], abs=1e-9)


def test_equality_lp_with_known_solution():
    # max x1 + x2 on the segment x1 + x2 = 1
    A = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    c = np.array([1.0, 1.0])
    res = solve_standard_form(A, b, c)
    assert res.objective == pytest.approx(1.0, abs=1e-12)


def test_infeasible_lp_raises():
    # x1 = 1 and x1 = 3 cannot both hold
    A = np.array([[1.0], [1.0]])
    b = np.array([1.0, 3.0])
    c = np.array([0.0])
    with pytest.raises(LPInfeasibleError):
        solve_standard_form(A, b, c)


@pytest.mark.parametrize(
    "A, b",
    [
        (np.array([[1.0, -1.0]]), np.array([0.0])),  # x1 = x2 grows without bound
        (np.zeros((0, 2)), np.zeros(0)),  # no rows: the ratio test has none to scan
    ],
)
def test_unbounded_lp_raises(A, b):
    with pytest.raises(LPError, match="unbounded pivot column"):
        solve_standard_form(A, b, np.array([1.0, 0.0]))


def test_redundant_rows_are_tolerated():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    c = np.array([1.0, 0.0])
    res = certified_solve(A, b, c)
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.rows.tolist() == [0]
    assert res.basis.tolist() == [0]


def test_degenerate_pivoting_terminates():
    res = solve_standard_form(*BEALE)
    assert res.objective == pytest.approx(0.05, abs=1e-9)


def test_final_basis_certified_exactly():
    # max x1 + x2 s.t. x1 + 2 x2 <= 4, 3 x1 + x2 <= 6: optimum 2.8 at (1.6, 1.2)
    A = np.array([[1.0, 2.0, 1.0, 0.0], [3.0, 1.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    c = np.array([1.0, 1.0, 0.0, 0.0])
    res = certified_solve(A, b, c)
    assert sorted(res.basis.tolist()) == [0, 1]
    assert res.rows.tolist() == [0, 1]
    assert res.objective == pytest.approx(2.8, abs=1e-12)
    # the check rejects an objective off the basis's value, and a basis
    # that is feasible but not optimal
    off = exact_basis_violations(A, b, c, res.basis, res.rows, res.objective + 1e-11)
    assert [v.split(" ")[0] for v in off] == ["objective"]
    slack = exact_basis_violations(A, b, c, np.array([2, 3]), np.array([0, 1]), 0.0)
    assert [v.split(":")[0] for v in slack] == ["A^T y >= c fails"]


@pytest.mark.parametrize("name", BUILTIN_INSTANCES)
def test_builtin_lps_certified_exactly(name):
    lp = build_obedience_lp(builtin_instance(name))
    certified_solve(lp.A, lp.b, lp.c)


@pytest.mark.parametrize("seed", [2024, 20])
def test_sweep_lps_certified_exactly(seed):
    # the default sweep seed, and seed 20, whose instance 16 drifts
    for inst, _ in sweep_instances(25, seed):
        lp = build_obedience_lp(inst)
        certified_solve(lp.A, lp.b, lp.c)


@pytest.mark.parametrize("seed", range(40))
def test_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    n = int(rng.integers(m + 1, m + 5))
    # row of ones keeps the feasible region bounded; b from a feasible point
    A = np.vstack([np.ones(n), rng.normal(size=(m - 1, n))]) if m > 1 else np.ones((1, n))
    x0 = rng.random(n)
    b = A @ x0
    if np.any(b < 0):
        A[b < 0] *= -1.0
        b = np.abs(b)
    c = rng.normal(size=n)
    res = certified_solve(A, b, c)
    oracle = brute_force_optimum(A, b, c)
    assert oracle is not None
    assert res.objective == pytest.approx(oracle, abs=1e-7)
    assert np.max(np.abs(A @ res.x - b)) <= 1e-7
    assert np.all(res.x >= -1e-9)


def test_iteration_counter_and_x_shape():
    A = np.array([[1.0, 1.0, 1.0]])
    b = np.array([2.0])
    c = np.array([0.0, 1.0, 2.0])
    res = solve_standard_form(A, b, c)
    assert res.x.shape == (3,)
    assert res.iterations >= 1
    assert res.objective == pytest.approx(4.0, abs=1e-12)


def drifting_sweep_lp():
    """Obedience LP of instance 16 of the Theorem 3.1 sweep at seed 20.

    Its 16 x 28 tableau drifts by 8e-4 in the right-hand side over the
    pivots; the final basis itself is optimal.
    """
    inst, _ = list(sweep_instances(17, 20))[16]
    return build_obedience_lp(inst)


def test_drifted_tableau_resolved_from_final_basis():
    lp = drifting_sweep_lp()
    assert lp.A.shape == (16, 28)
    res = certified_solve(lp.A, lp.b, lp.c)
    assert np.max(np.abs(lp.A @ res.x - lp.b)) <= 1e-12
    assert res.x.min() >= 0.0
    assert res.objective == pytest.approx(0.61975100640451, abs=1e-12)


def test_drifted_tableau_matches_highs():
    optimize = pytest.importorskip("scipy.optimize")
    lp = drifting_sweep_lp()
    ref = optimize.linprog(-lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None), method="highs")
    assert ref.status == 0
    res = solve_standard_form(lp.A, lp.b, lp.c)
    assert res.objective == pytest.approx(-ref.fun, abs=1e-9)


def test_drifted_suboptimal_basis_raises(monkeypatch):
    # max x1 + 2 x2 s.t. x1 + x2 + x3 = 1: phase 1 enters x1, phase 2 would
    # move to x2.  Skip phase 2 and drift the right-hand side, so the final
    # basis {x1} is feasible after the re-solve but not optimal.
    A = np.array([[1.0, 1.0, 1.0]])
    b = np.array([1.0])
    c = np.array([1.0, 2.0, 0.0])
    real = simplex._bland_iterate
    calls = []

    def stop_after_phase_1(tableau, basis, max_iter):
        calls.append(1)
        if len(calls) == 1:
            return real(tableau, basis, max_iter)
        tableau[0, -1] += 1e-3
        return 0

    monkeypatch.setattr(simplex, "_bland_iterate", stop_after_phase_1)
    with pytest.raises(LPError, match="not optimal"):
        solve_standard_form(A, b, c)
    assert len(calls) == 2


def test_suboptimal_basis_raises_without_drift(monkeypatch):
    # stop phase 2 one pivot short of optimal on a sweep obedience LP; the
    # tableau has not drifted, so only the reduced-cost check can catch it
    inst, _ = next(sweep_instances(1, 0))
    lp = build_obedience_lp(inst)
    real = simplex._bland_iterate
    calls = []
    short = []

    def stop_one_pivot_early(tableau, basis, max_iter):
        calls.append(1)
        if len(calls) == 1:
            return real(tableau, basis, max_iter)
        pivots = real(tableau.copy(), basis.copy(), max_iter)
        assert pivots >= 1
        with pytest.raises(LPIterationLimitError):
            real(tableau, basis, pivots - 1)
        short.append(basis.copy())
        return pivots - 1

    monkeypatch.setattr(simplex, "_bland_iterate", stop_one_pivot_early)
    with pytest.raises(LPError, match="not optimal"):
        solve_standard_form(lp.A, lp.b, lp.c)
    assert len(calls) == 2

    # the exact check rejects that basis for its reduced costs alone
    (basis,) = short
    rows = np.arange(lp.A.shape[0])
    assert basis.size == rows.size  # no row was dropped
    value = float(lp.c[basis] @ np.linalg.solve(lp.A[:, basis], lp.b))
    violations = exact_basis_violations(lp.A, lp.b, lp.c, basis, rows, value)
    assert [v.split(":")[0] for v in violations] == ["A^T y >= c fails"]


def test_sweep_optima_match_highs():
    # the bound sweep solves one classic LP per instance and reuses it in
    # every (gamma, delta) cell; check those optima against HiGHS
    optimize = pytest.importorskip("scipy.optimize")
    for inst, _ in sweep_instances(25, 0):
        lp = build_obedience_lp(inst)
        ref = optimize.linprog(
            -lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None), method="highs"
        )
        assert ref.status == 0
        _, opt = solve_classic(inst)
        assert opt == pytest.approx(-ref.fun, abs=1e-9)


def assert_same_pivot_path(A, b, c, monkeypatch):
    """``solve_standard_form`` gives the same result, to the bit, with its
    Bland loop or with the index-list oracle in its place."""
    res = solve_standard_form(A, b, c)
    with monkeypatch.context() as patched:
        patched.setattr(simplex, "_bland_iterate", bland_iterate_oracle)
        ref = solve_standard_form(A, b, c)
    assert res.iterations == ref.iterations
    assert res.basis.tolist() == ref.basis.tolist()
    assert res.rows.tolist() == ref.rows.tolist()
    assert res.x.tobytes() == ref.x.tobytes()
    assert res.objective == ref.objective


@pytest.mark.parametrize("seed", [0, 2024, 20])
def test_sweep_lps_follow_the_oracle_pivot_path(seed, monkeypatch):
    for inst, _ in sweep_instances(25, seed):
        lp = build_obedience_lp(inst)
        assert_same_pivot_path(lp.A, lp.b, lp.c, monkeypatch)


@pytest.mark.parametrize("name", BUILTIN_INSTANCES)
def test_builtin_lps_follow_the_oracle_pivot_path(name, monkeypatch):
    lp = build_obedience_lp(builtin_instance(name))
    assert_same_pivot_path(lp.A, lp.b, lp.c, monkeypatch)


def test_beale_follows_the_oracle_pivot_path(monkeypatch):
    assert_same_pivot_path(*BEALE, monkeypatch)


def test_tie_goes_to_the_smaller_basis_index_not_the_first_row(monkeypatch):
    # x1 = 0, x0 + x1 = 0, x2 = 1.  Phase 1 enters x0 at row 1 (the only
    # positive entry); then x1 ties rows 0 and 1 at ratio 0, and row 1 leaves
    # because its basic variable x0 has a smaller index than row 0's
    # artificial (index 3).  The last pivot drives that artificial out.
    A = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([1.0, 0.0, 1.0])
    pivots = []
    real = simplex._pivot

    def record(tableau, basis, row, col):
        pivots.append((row, col))
        real(tableau, basis, row, col)

    with monkeypatch.context() as patched:
        patched.setattr(simplex, "_pivot", record)
        res = solve_standard_form(A, b, c)
    assert pivots == [(1, 0), (1, 1), (2, 2), (0, 0)]
    assert res.basis.tolist() == [0, 1, 2]
    assert res.objective == brute_force_optimum(A, b, c) == 1.0
    assert_same_pivot_path(A, b, c, monkeypatch)
