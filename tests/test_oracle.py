import itertools

import numpy as np
import pytest

from tests.conftest import (
    closed_form_stack,
    random_stripe_setup,
    team_problem,
)
from tmmse.channel import FiniteSupportModel, finite_support_statistics
from tmmse.oracle import (
    FiniteTeamProblem,
    mse_exact,
    solve_team_exact,
    verify_stationarity,
)


def deterministic_problem(h, w, power, serving=None):
    h = np.asarray(h, complex)
    K, L = h.shape
    model = finite_support_statistics(
        [(h, 1.0)], lambda hh: (hh, tuple(range(L)))
    )
    serving = serving or tuple(tuple(range(L)) for _ in range(K))
    return FiniteTeamProblem(
        model=model, serving_txs=serving, w=np.asarray(w, float), total_power=power
    )


class TestTrivialCollapses:
    def test_single_tx_deterministic_is_centralized(self):
        h = np.array([[1.2 - 0.4j], [0.3 + 0.1j]])
        w = np.array([0.6, 0.4])
        power = 2.5
        problem = deterministic_problem(h, w, power)
        for k in range(2):
            t = solve_team_exact(problem, k)
            a = h.conj().T @ np.diag(w) @ h + np.eye(1) / power
            expected = np.linalg.solve(a, h.conj().T @ np.diag(np.sqrt(w)))[:, k]
            np.testing.assert_allclose(t[0], expected, atol=1e-12)

    def test_two_tx_deterministic_restricted_to_serving_set(self):
        h = np.array([[1.0, 0.5], [0.2, 0.9]]).astype(complex)
        w = np.full(2, 0.5)
        power = 4.0
        problem = deterministic_problem(h, w, power, serving=((0,), (0, 1)))
        t0 = solve_team_exact(problem, 0)
        assert t0[0, 1] == 0  # non-serving TX stays silent
        h_red = h[:, :1]
        a = h_red.conj().T @ np.diag(w) @ h_red + np.eye(1) / power
        expected = np.linalg.solve(a, h_red.conj().T @ np.diag(np.sqrt(w)))[:, 0]
        np.testing.assert_allclose(t0[0, :1], expected, atol=1e-12)

    def test_two_point_no_sharing_matches_closed_form(self, rng):
        model, stripes, assoc, w, power = random_stripe_setup(
            rng, 2, 1, 2, "no-share", with_errors=False
        )
        problem = team_problem(model, assoc, w, power)
        stack = closed_form_stack(model, "no-share", assoc, stripes, w, power)
        for k in range(2):
            t_star = solve_team_exact(problem, k)
            np.testing.assert_allclose(stack[:, :, k], t_star, atol=1e-8)

    def test_multi_antenna_closed_forms_match_oracle(self, rng):
        # Multi-antenna branch shapes (Q, M, K, N): (1, 2, 3, 2) K <= 2N;
        # (1, 2, 2, 3) N > K, per-TX normal equations and LAPACK hop solves;
        # (1, 2, 5, 2) K > 2N; (2, 2, 3, 2) two coupled stripes; (1, 3, 1, 2) a
        # single user.  Centralized is left out:
        # with a partial association the oracle solves another problem
        # (TestCentralized covers the full one).
        shapes = [(1, 2, 3, 2), (1, 2, 2, 3), (1, 2, 5, 2), (2, 2, 3, 2), (1, 3, 1, 2)]
        for (num_stripes, txs_per_stripe, num_users, n), scheme in itertools.product(
            shapes, ("no-share", "uni", "bi")
        ):
            model, stripes, assoc, w, power = random_stripe_setup(
                rng, num_stripes, txs_per_stripe, num_users, scheme,
                n_antennas=n, max_points=16,
            )
            problem = team_problem(model, assoc, w, power)
            stack = closed_form_stack(model, scheme, assoc, stripes, w, power)
            for k in range(model.num_users):
                np.testing.assert_allclose(
                    stack[:, :, k], solve_team_exact(problem, k), atol=1e-8,
                    err_msg=f"{scheme} at (Q, M, K, N) = "
                            f"{(num_stripes, txs_per_stripe, num_users, n)}, user {k}",
                )


class TestStationarityCheck:
    def test_oracle_solution_is_fixed_point(self, rng):
        model, _, assoc, w, power = random_stripe_setup(rng, 1, 2, 2, "uni")
        problem = team_problem(model, assoc, w, power)
        for k in range(model.num_users):
            t = solve_team_exact(problem, k)
            assert verify_stationarity(problem, t, k) < 1e-10

    def test_zero_precoder_has_positive_residual(self, rng):
        model, _, assoc, w, power = random_stripe_setup(rng, 1, 2, 2, "uni")
        problem = team_problem(model, assoc, w, power)
        zero = np.zeros((model.n_points, model.num_txs), complex)
        assert verify_stationarity(problem, zero, 0) > 1e-3


class TestExactMse:
    def test_zero_precoder(self, rng):
        model, _, assoc, w, power = random_stripe_setup(rng, 1, 2, 2, "uni")
        problem = team_problem(model, assoc, w, power)
        zero = np.zeros((model.n_points, model.num_txs), complex)
        assert mse_exact(problem, zero, 0) == pytest.approx(1.0)

    def test_oracle_beats_random_measurable_candidates(self, rng):
        model, _, assoc, w, power = random_stripe_setup(rng, 1, 3, 2, "uni")
        problem = team_problem(model, assoc, w, power)
        k = 1
        t_star = solve_team_exact(problem, k)
        best = mse_exact(problem, t_star, k)
        for _ in range(25):
            cand = np.zeros((model.n_points, model.num_txs), complex)
            for l in problem.serving_txs[k]:
                for members in model.classes(l).values():
                    val = 0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
                    cand[members, l] = t_star[members[0], l] + val * rng.random()
            assert mse_exact(problem, cand, k) >= best - 1e-12

    def test_nested_information_monotonicity(self, rng):
        # finer CSIT sharing cannot increase the optimal MSE
        mses = {}
        for structure in ("no-share", "uni", "bi", "centralized"):
            model, _, assoc, w, power = random_stripe_setup(
                np.random.default_rng(77), 1, 3, 2, structure
            )
            problem = team_problem(model, assoc, w, power)
            mses[structure] = mse_exact(problem, solve_team_exact(problem, 0), 0)
        assert mses["centralized"] <= mses["bi"] + 1e-12
        assert mses["bi"] <= mses["uni"] + 1e-12
        assert mses["uni"] <= mses["no-share"] + 1e-12


class TestUniquenessAndFixtures:
    def test_permuted_unknown_ordering(self, rng):
        model, _, assoc, w, power = random_stripe_setup(rng, 2, 2, 2, "uni")
        problem = team_problem(model, assoc, w, power)
        for k in range(model.num_users):
            t1 = solve_team_exact(problem, k)
            t2 = solve_team_exact(problem, k, shuffle_rng=np.random.default_rng(3))
            t3 = solve_team_exact(problem, k, shuffle_rng=np.random.default_rng(9))
            np.testing.assert_allclose(t1, t2, atol=1e-10)
            np.testing.assert_allclose(t1, t3, atol=1e-10)

    def test_zero_probability_points_ignored(self):
        h0 = np.ones((1, 1), complex)
        h1 = 2 * np.ones((1, 1), complex)
        model = FiniteSupportModel(
            h=np.stack([h0, h1]),
            h_hat=np.stack([h0, h1]),
            probs=np.array([1.0, 0.0]),
            labels=np.array([[0, 1]]),
            n_antennas=1,
        )
        problem = FiniteTeamProblem(
            model=model, serving_txs=((0,),), w=np.ones(1), total_power=1.0
        )
        t = solve_team_exact(problem, 0)
        assert t[1, 0] == 0  # zero-probability class gets no precoder
        expected = 1.0 / (1.0 + 1.0)
        np.testing.assert_allclose(t[0, 0], expected)
