import numpy as np
import pytest

from tests.conftest import random_stripe_setup
from tmmse import cli, parallel
from tmmse.channel import Ensemble, draw_ensemble
from tmmse.evaluation import (
    InfeasiblePowerError,
    MomentEstimates,
    allocate,
    compute_mse,
    dual_sinr_targets,
    duality_power_allocation,
    estimate_moments,
    evaluate,
    hardening_rates,
    mse_samples,
    per_tx_scaling,
)
from tmmse.precoding import SCHEMES, apply_scheme, fit_scheme
from tmmse.topology import association_from_stripes, build_grid_deployment


def make_moments(a, v, b, per_tx=None, num_txs=1):
    a = np.asarray(a, float)
    K = a.size
    v = np.asarray(v, float)
    b = np.asarray(b, float)
    if per_tx is None:
        per_tx = np.ones((num_txs, K))
    return MomentEstimates(
        mean_eff=np.sqrt(a).astype(complex),
        a=a,
        v=v,
        b=b,
        per_tx_power=np.asarray(per_tx, float),
        tk_power=np.asarray(per_tx, float).sum(axis=0),
    )


def single_sample_ensemble(h):
    h = np.asarray(h, complex)[None, :, :]
    return Ensemble(h=h, h_hat=h.copy(), weights=np.ones(1), n_antennas=1)


class TestComputeMse:
    def test_zero_precoder_unit_mse(self):
        ens = single_sample_ensemble(np.ones((2, 3)))
        t = np.zeros((1, 3, 2), complex)
        np.testing.assert_allclose(compute_mse(ens, t, np.full(2, 0.5), 1.0), [1.0, 1.0])

    def test_scalar_closed_form(self):
        # K = N = L = 1, real h: optimal t gives MSE = 1 / (1 + P h^2)
        h, power = 1.7, 3.0
        ens = single_sample_ensemble([[h]])
        t = np.array([[[h / (h**2 + 1 / power)]]], complex)
        mse = compute_mse(ens, t, np.ones(1), power)
        np.testing.assert_allclose(mse, [1.0 / (1.0 + power * h**2)], rtol=1e-12)

    def test_empty_pool_rejected(self):
        ens = Ensemble(
            h=np.zeros((0, 1, 1), complex),
            h_hat=np.zeros((0, 1, 1), complex),
            weights=np.zeros(0),
            n_antennas=1,
        )
        with pytest.raises(ValueError):
            compute_mse(ens, np.zeros((0, 1, 1), complex), np.ones(1), 1.0)

    def test_samples_average_to_mse(self, rng):
        model, stripes, assoc, w, power = random_stripe_setup(rng, 1, 2, 2, "uni")
        ens = model.ensemble()
        psi = model.psi_stack(w)
        state = fit_scheme("uni", ens, assoc, stripes, psi, w, power)
        t = apply_scheme(state, ens, assoc, stripes, psi, w, power)
        per = mse_samples(ens, t, w, power)
        np.testing.assert_allclose(ens.weights @ per, compute_mse(ens, t, w, power))


class TestDualTargets:
    @pytest.mark.parametrize("mse,gamma", [(1.0, 0.0), (0.5, 1.0), (0.1, 9.0)])
    def test_values(self, mse, gamma):
        assert dual_sinr_targets([mse])[0] == pytest.approx(gamma)

    def test_degenerate_clamped(self):
        assert dual_sinr_targets([1.5])[0] == 0.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            dual_sinr_targets([0.0])


class TestDualityAllocation:
    def test_scalar_rearrangement(self):
        m = make_moments([1.0], [0.0], [[1.0]])
        p, clamped = duality_power_allocation(m, [1.0])
        assert clamped == []
        np.testing.assert_allclose(p, [1.0])

    def test_zero_target_zero_power(self):
        m = make_moments([1.0, 2.0], [0.0, 0.0], np.eye(2))
        p, _ = duality_power_allocation(m, [0.0, 0.0])
        np.testing.assert_array_equal(p, [0.0, 0.0])

    def test_round_trip_three_users(self, rng):
        K = 3
        a = 1.0 + rng.random(K)
        v = 0.05 * rng.random(K)
        b = 0.05 * rng.random((K, K))
        np.fill_diagonal(b, a + v)
        gamma = 0.4 + 0.4 * rng.random(K)
        m = make_moments(a, v, b)
        p, _ = duality_power_allocation(m, gamma)
        assert (p > 0).all()
        interference = b @ p - p * b.diagonal() + p * v
        sinr = p * a / (interference + 1.0)
        np.testing.assert_allclose(sinr, gamma, rtol=1e-10)

    def test_infeasible_names_users(self):
        b = np.array([[1.0, 10.0], [10.0, 1.0]])
        m = make_moments([1.0, 1.0], [0.0, 0.0], b)
        with pytest.raises(InfeasiblePowerError) as err:
            duality_power_allocation(m, [1.0, 1.0])
        assert set(err.value.users) == {0, 1}

    def test_clamp_resolves_reduced_system(self):
        # user 1's hardening loss exceeds its signal at the target (the
        # Monte Carlo noise failure mode): clamp pins it to zero power
        b = np.array([[1.2, 0.01], [0.02, 3.0]])
        m = make_moments([1.2, 1.0], [0.0, 2.0], b)
        gamma = np.array([1.0, 0.9])
        with pytest.raises(InfeasiblePowerError):
            duality_power_allocation(m, gamma)
        p, clamped = duality_power_allocation(m, gamma, clamp_negative=True)
        assert clamped == [1] and p[1] == 0.0
        sinr0 = p[0] * 1.2 / (0.01 * p[1] + 1.0)
        assert sinr0 == pytest.approx(gamma[0])


class TestHardeningRates:
    def test_no_interference_single_user(self):
        m = make_moments([2.0], [0.0], [[2.0]])
        r = hardening_rates(m, [3.0])
        assert r[0] == pytest.approx(np.log2(1 + 3.0 * 2.0))

    def test_scaling_is_three_db_loss(self):
        m = make_moments([2.0], [0.0], [[2.0]])
        r1 = hardening_rates(m, [3.0], nu2=1.0)
        r2 = hardening_rates(m, [3.0], nu2=2.0)
        assert 2 ** r2[0] - 1 == pytest.approx((2 ** r1[0] - 1) / 2)

    def test_zero_power_zero_rate(self):
        m = make_moments([2.0, 1.0], [0.1, 0.1], np.full((2, 2), 0.3))
        np.testing.assert_array_equal(hardening_rates(m, [0.0, 0.0]), [0.0, 0.0])

    def test_nats_option(self):
        m = make_moments([2.0], [0.0], [[2.0]])
        bits = hardening_rates(m, [1.0], units="bits")
        nats = hardening_rates(m, [1.0], units="nats")
        assert nats[0] == pytest.approx(bits[0] * np.log(2.0))

    @pytest.mark.parametrize("units", ["bit", "BITS", "nat", ""])
    def test_unknown_units_rejected(self, units):
        m = make_moments([2.0], [0.0], [[2.0]])
        with pytest.raises(ValueError, match="units"):
            hardening_rates(m, [1.0], units=units)

    def test_monotone_in_nu2(self):
        m = make_moments([2.0, 1.5], [0.1, 0.2], np.full((2, 2), 0.4))
        p = [1.0, 2.0]
        r = [hardening_rates(m, p, nu2=x).sum() for x in (1.0, 1.5, 2.5)]
        assert r[0] > r[1] > r[2]


class TestPerTxScaling:
    def test_all_compliant(self):
        assert per_tx_scaling([0.5, 0.9], [1.0, 1.0]) == 1.0

    def test_single_violation(self):
        assert per_tx_scaling([2.0, 0.5], [1.0, 1.0]) == 2.0

    def test_scaled_signals_meet_constraints_with_equality(self, rng):
        expected = rng.random(5) + 0.5
        budgets = rng.random(5) + 0.2
        nu2 = per_tx_scaling(expected, budgets)
        scaled = expected / nu2
        assert (scaled <= budgets + 1e-12).all()
        assert np.isclose(scaled / budgets, 1.0).any() or nu2 == 1.0

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            per_tx_scaling([1.0], [0.0])


class TestMoments:
    def test_variance_decomposition_identity(self, rng):
        model, stripes, assoc, w, power = random_stripe_setup(rng, 1, 2, 3, "uni")
        ens = model.ensemble()
        psi = model.psi_stack(w)
        state = fit_scheme("uni", ens, assoc, stripes, psi, w, power)
        t = apply_scheme(state, ens, assoc, stripes, psi, w, power)
        m = estimate_moments(ens, t)
        np.testing.assert_allclose(np.diag(m.b).real, m.a + m.v, atol=1e-12)

    def test_deterministic_channel_no_hardening_loss(self):
        h = np.array([[1.0 + 1.0j, 0.3], [0.2, 0.8]])
        ens = single_sample_ensemble(h)
        t = np.conj(h).T[None, :, :]
        m = estimate_moments(ens, t)
        np.testing.assert_allclose(m.v, 0.0, atol=1e-14)

    def test_two_point_support_hand_enumeration(self):
        h0 = np.array([[1.0 + 0j, 0.2], [0.1, 0.9]])
        h1 = np.array([[0.5 + 0.5j, 0.4], [0.3, 1.1]])
        probs = np.array([0.3, 0.7])
        ens = Ensemble(
            h=np.stack([h0, h1]),
            h_hat=np.stack([h0, h1]),
            weights=probs,
            n_antennas=1,
        )
        t = np.stack([np.eye(2, dtype=complex)] * 2)
        m = estimate_moments(ens, t)
        mean_hand = probs[0] * np.diag(h0) + probs[1] * np.diag(h1)
        b_hand = probs[0] * np.abs(h0) ** 2 + probs[1] * np.abs(h1) ** 2
        np.testing.assert_allclose(m.mean_eff, mean_hand, atol=1e-14)
        np.testing.assert_allclose(m.b, b_hand, atol=1e-14)
        np.testing.assert_allclose(m.per_tx_power, np.eye(2), atol=1e-14)


class TestStreamedEvaluation:
    """evaluate(pool, state), streamed from the state's stripe blocks under
    its fitted w and P, equals estimate_moments and compute_mse on
    apply_scheme's stack (the same blocks written into one) under those."""

    FIELDS = ("mean_eff", "a", "v", "b", "per_tx_power", "tk_power")

    @staticmethod
    def _both(scheme, model, assoc, stripes, w, power):
        ens, psi = model.ensemble(), model.psi_stack(w)
        assert power != 1 and not np.allclose(w, w[0])  # so a default P or w would show
        state = fit_scheme(scheme, ens, assoc, stripes, psi, w, power)
        streamed = evaluate(ens, state)
        t = apply_scheme(state, ens, assoc, stripes, psi, w, power)
        return streamed, (estimate_moments(ens, t), compute_mse(ens, t, w, power))

    def _check(self, scheme, model, assoc, stripes, w, power):
        (m, mse), (m_ref, mse_ref) = self._both(scheme, model, assoc, stripes, w, power)
        for field in self.FIELDS:
            ref = getattr(m_ref, field)
            np.testing.assert_allclose(getattr(m, field), ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max(), err_msg=field)
        np.testing.assert_allclose(mse, mse_ref, rtol=1e-12)
        return m, m_ref

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("num_stripes, txs_per_stripe, num_users, n_antennas", [
        (2, 1, 3, 1),  # N*L <= K
        (2, 2, 2, 1),  # N*L > K
        (2, 1, 4, 2),  # N*L <= K
        (2, 2, 3, 2),  # N*L > K
    ])
    def test_equals_the_stack_path(self, rng, scheme, num_stripes, txs_per_stripe, num_users,
                                   n_antennas):
        model, stripes, assoc, w, power = random_stripe_setup(
            rng, num_stripes, txs_per_stripe, num_users, "bi", n_antennas=n_antennas,
            max_points=64)
        self._check(scheme, model, assoc, stripes, w, power)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_stripe_serving_nobody_has_zero_power_rows(self, rng, scheme):
        model, stripes, _, w, power = random_stripe_setup(rng, 2, 2, 2, "bi", max_points=64)
        assoc = association_from_stripes([(0,), (0,)], 2, 2)  # stripe 1 serves nobody
        m, m_ref = self._check(scheme, model, assoc, stripes, w, power)
        if scheme != "centralized":  # every TX serves every user there
            assert (m.per_tx_power[2:] == 0).all() and (m_ref.per_tx_power[2:] == 0).all()
            assert (m.per_tx_power[:2] > 0).any()


class TestAllocatePipeline:
    def test_sum_mode_rate_mse_identity(self, rng):
        model, stripes, assoc, w, power = random_stripe_setup(rng, 2, 2, 3, "uni")
        ens = model.ensemble()
        psi = model.psi_stack(w)
        state = fit_scheme("uni", ens, assoc, stripes, psi, w, power)
        t = apply_scheme(state, ens, assoc, stripes, psi, w, power)
        m = estimate_moments(ens, t)
        mse = compute_mse(ens, t, w, power)
        budgets = np.full(model.num_txs, power / model.num_txs)
        rates, sol = allocate(m, mse, "sum", budgets)
        np.testing.assert_allclose(rates, np.log2(1.0 / mse), rtol=1e-9)
        assert sol.nu2 == 1.0

    def test_sum_power_preservation_exact(self, rng):
        # duality consistency: sum_k p_k E||t_k||^2 equals the power budget
        model, stripes, assoc, w, power = random_stripe_setup(rng, 2, 2, 3, "uni")
        ens = model.ensemble()
        psi = model.psi_stack(w)
        for scheme in ("centralized", "bi", "uni", "no-share", "local-mmse"):
            state = fit_scheme(scheme, ens, assoc, stripes, psi, w, power)
            t = apply_scheme(state, ens, assoc, stripes, psi, w, power)
            m = estimate_moments(ens, t)
            mse = compute_mse(ens, t, w, power)
            _, sol = allocate(m, mse, "sum", np.full(model.num_txs, power / model.num_txs))
            assert abs(sol.sum_power - power) / power < 1e-6, scheme

    def test_per_tx_mode_never_beats_sum(self, rng):
        model, stripes, assoc, w, power = random_stripe_setup(rng, 2, 2, 3, "uni")
        ens = model.ensemble()
        psi = model.psi_stack(w)
        state = fit_scheme("uni", ens, assoc, stripes, psi, w, power)
        t = apply_scheme(state, ens, assoc, stripes, psi, w, power)
        m = estimate_moments(ens, t)
        mse = compute_mse(ens, t, w, power)
        budgets = np.full(model.num_txs, power / model.num_txs)
        r_sum, _ = allocate(m, mse, "sum", budgets)
        r_tx, sol = allocate(m, mse, "per-tx", budgets)
        assert sol.nu2 >= 1.0
        assert (r_tx <= r_sum + 1e-12).all()
        assert (r_tx >= 0).all() and (r_sum >= 0).all()


class TestLocalMmseSpendsTheSumBudget:
    """Local MMSE's coefficients are the exact least squares of its MSE on the
    pool it was fitted on, so by uplink-downlink duality its sum-mode powers,
    evaluated on that same pool, spend the budget exactly:
    sum_k p_k E||t_k||^2 = P, to rounding.  This holds at full scale, where
    the oracle cannot reach, and it runs the blocked fit, every block sum of
    the evaluation and the duality solve together.  The other schemes are
    not exact on a Monte Carlo pool, whose sample error moments are not Psi."""

    DESK = dict(num_stripes=3, txs_per_stripe=8, antennas_per_tx=4, num_users=6)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shape", [{}, DESK], ids=["default", "desk"])
    def test_gap_is_rounding(self, monkeypatch, shape, workers):
        monkeypatch.setattr(parallel, "workers", lambda: workers)
        cfg = cli.ScenarioConfig(**shape, drops=1).validate()
        w, power = cfg.resolved_weights(), cfg.total_power()
        deployment = build_grid_deployment(cfg.num_stripes, cfg.txs_per_stripe, cfg.area_m,
                                           cfg.height_m, cfg.antennas_per_tx)
        assoc, stats, csi, psi, stripes = cli._drop_setting(cfg, deployment, 0, w, None)
        pool = draw_ensemble(stats, csi, 500, cli.phase_seed(cfg.base_seed, 0, cli.PHASE_STATS))
        state = fit_scheme("local-mmse", pool, assoc, stripes, psi, w, power)
        _, solution = allocate(*evaluate(pool, state), "sum", cfg.tx_budgets())
        assert abs(1 - solution.sum_power / power) <= 1e-10
