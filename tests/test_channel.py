import numpy as np
import pytest

from tmmse.channel import (
    Ensemble,
    InformationStructure,
    build_statistics,
    channel_gain,
    draw_ensemble,
    finite_support_statistics,
    from_local_supports,
    noise_power_dbm,
    path_loss_db,
    tx_blocks,
)
from tmmse.topology import assign_serving_stripes, build_grid_deployment


class TestLinkBudget:
    def test_reference_distance_reference_carrier(self):
        assert path_loss_db(1.0, 1.0) == pytest.approx(33.6)

    def test_ten_meters(self):
        assert path_loss_db(10.0, 1.0) == pytest.approx(55.5)

    def test_case_study_carrier(self):
        assert path_loss_db(1.0, 4.9) == pytest.approx(47.404, abs=1e-3)

    def test_distance_floor(self):
        assert path_loss_db(0.2, 1.0) == pytest.approx(path_loss_db(1.0, 1.0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            path_loss_db(np.inf, 1.0)

    def test_noise_case_study(self):
        assert noise_power_dbm(100e6, 7) == pytest.approx(-87.0)

    def test_noise_unit_bandwidth(self):
        assert noise_power_dbm(1.0, 0.0) == pytest.approx(-174.0)

    def test_noise_one_megahertz(self):
        assert noise_power_dbm(1e6, 3.0) == pytest.approx(-111.0)

    def test_noise_bad_bandwidth(self):
        with pytest.raises(ValueError):
            noise_power_dbm(0.0, 7.0)

    def test_gain_arithmetic(self):
        assert channel_gain(80.0, -87.0) == pytest.approx(10**0.7)
        assert channel_gain(87.0, -87.0) == pytest.approx(1.0)
        assert channel_gain(90.0, -87.0) == pytest.approx(10**-0.3)


@pytest.fixture
def small_scenario(rng):
    dep = build_grid_deployment(2, 3, (30, 20), 7).place_users(
        rng.uniform((0, 0), (30, 20), size=(3, 2))
    )
    assoc = assign_serving_stripes(dep, 1)
    stats = build_statistics(dep, assoc, 6.0, 4.9, 100e6, 7.0, 4.0, rng)
    return dep, assoc, stats


class TestStatistics:
    def test_power_conservation(self, small_scenario):
        _, _, stats = small_scenario
        np.testing.assert_allclose(stats.mean**2 + stats.scatter_var, stats.rho2, rtol=1e-12)

    def test_ricean_split(self, small_scenario):
        _, _, stats = small_scenario
        np.testing.assert_allclose(stats.mean, np.sqrt(6 / 7 * stats.rho2))
        np.testing.assert_allclose(stats.scatter_var, stats.rho2 / 7)

    def test_rayleigh_limit(self, rng):
        dep = build_grid_deployment(1, 2, (10, 10), 7).place_users([[4, 4]])
        assoc = assign_serving_stripes(dep, 1)
        stats = build_statistics(dep, assoc, 0.0, 4.9, 100e6, 7.0, 0.0, rng)
        assert (stats.mean == 0).all()
        np.testing.assert_allclose(stats.scatter_var, stats.rho2)

    def test_shadow_disabled_deterministic(self, rng):
        dep = build_grid_deployment(1, 2, (10, 10), 7).place_users([[4, 4]])
        assoc = assign_serving_stripes(dep, 1)
        s1 = build_statistics(dep, assoc, 6.0, 4.9, 100e6, 7.0, 0.0, np.random.default_rng(1))
        s2 = build_statistics(dep, assoc, 6.0, 4.9, 100e6, 7.0, 0.0, np.random.default_rng(2))
        np.testing.assert_array_equal(s1.rho2, s2.rho2)

    def test_known_mask_matches_serving_stripes(self, small_scenario):
        dep, assoc, stats = small_scenario
        layout = dep.stripes()
        for k in range(dep.num_users):
            for q in range(dep.num_stripes):
                expected = q in assoc.serving_stripes[k]
                assert all(stats.known[k, l] == expected for l in layout[q])

    def test_distances_include_height(self, small_scenario):
        dep, _, stats = small_scenario
        assert (stats.distances >= dep.height).all()


class TestSampling:
    def test_known_pairs_exact(self, small_scenario):
        _, _, stats = small_scenario
        sample = draw_ensemble(stats, stats.csi_model(), 1, np.random.SeedSequence(3))
        known = np.repeat(stats.known, stats.n_antennas, axis=1)
        np.testing.assert_array_equal(sample.h_hat[0][known], sample.h[0][known])

    def test_unknown_pairs_are_prior_mean(self, small_scenario):
        _, _, stats = small_scenario
        sample = draw_ensemble(stats, stats.csi_model(), 1, np.random.SeedSequence(3))
        known = np.repeat(stats.known, stats.n_antennas, axis=1)
        mean = np.repeat(stats.mean, stats.n_antennas, axis=1)
        np.testing.assert_allclose(sample.h_hat[0][~known], mean[~known].astype(complex))

    def test_determinism_bit_identical(self, small_scenario):
        _, _, stats = small_scenario
        csi = stats.csi_model()
        seq = lambda: np.random.SeedSequence(42, spawn_key=(0, 2))  # noqa: E731
        e1 = draw_ensemble(stats, csi, 8, seq())
        e2 = draw_ensemble(stats, csi, 8, seq())
        assert (e1.h == e2.h).all() and (e1.h_hat == e2.h_hat).all()

    def test_realization_independent_of_pool_size(self, small_scenario):
        # realization i draws from the i-th substream, whatever the pool size
        _, _, stats = small_scenario
        csi = stats.csi_model()
        seq = lambda: np.random.SeedSequence(42, spawn_key=(0, 2))  # noqa: E731
        small = draw_ensemble(stats, csi, 3, seq())
        large = draw_ensemble(stats, csi, 8, seq())
        assert (small.h == large.h[:3]).all() and (small.h_hat == large.h_hat[:3]).all()

    def test_moment_check_mean_and_variance(self, rng):
        # Monte Carlo moment check on a single-pair geometry, 1e5 draws
        dep = build_grid_deployment(1, 1, (10, 10), 7).place_users([[2, 3]])
        assoc = assign_serving_stripes(dep, 1)
        stats = build_statistics(dep, assoc, 6.0, 4.9, 100e6, 7.0, 0.0, rng)
        ens = draw_ensemble(stats, stats.csi_model(), 100_000, np.random.SeedSequence(5))
        entries = ens.h[:, 0, 0]
        mean_target = stats.mean[0, 0]
        var_target = stats.scatter_var[0, 0]
        n = entries.size
        se_mean = np.sqrt(var_target / n)
        assert abs(entries.mean() - mean_target) < 3 * se_mean
        sq = np.abs(entries - entries.mean()) ** 2
        se_var = sq.std() / np.sqrt(n)
        assert abs(sq.mean() - var_target) < 3 * se_var

    def test_cross_pair_independence(self, rng):
        dep = build_grid_deployment(1, 2, (10, 10), 7).place_users([[2, 3], [7, 8]])
        assoc = assign_serving_stripes(dep, 1)
        stats = build_statistics(dep, assoc, 0.0, 4.9, 100e6, 7.0, 0.0, rng)
        ens = draw_ensemble(stats, stats.csi_model(), 40_000, np.random.SeedSequence(6))
        x = ens.h[:, 0, 0] - ens.h[:, 0, 0].mean()
        y = ens.h[:, 1, 1] - ens.h[:, 1, 1].mean()
        cov = np.mean(x * np.conj(y))
        se = np.sqrt(np.mean(np.abs(x) ** 2) * np.mean(np.abs(y) ** 2) / x.size)
        assert abs(cov) < 3 * se


class TestFiniteSupport:
    def test_single_point_support(self):
        h = np.ones((2, 2), complex)
        model = finite_support_statistics(
            [(h, 1.0)], lambda hh: (hh, (0, 0))
        )
        assert model.n_points == 1
        np.testing.assert_array_equal(model.h[0], h)

    def test_uninformative_signal_single_class(self):
        pts = [(np.full((1, 2), 1.0 + 0j), 0.5), (np.full((1, 2), -1.0 + 0j), 0.5)]
        model = finite_support_statistics(pts, lambda hh: (np.zeros_like(hh), ("x", "x")))
        # both realizations land in one class at each TX
        assert set(model.labels[0]) == {0} and set(model.labels[1]) == {0}

    def test_fully_informative_signal_per_point_classes(self):
        pts = [(np.full((1, 2), 1.0 + 0j), 0.5), (np.full((1, 2), -1.0 + 0j), 0.5)]
        model = finite_support_statistics(
            pts, lambda hh: (hh, (complex(hh[0, 0]), complex(hh[0, 1])))
        )
        assert len(set(model.labels[0])) == 2

    def test_invalid_probabilities(self):
        pts = [(np.ones((1, 1), complex), 0.4), (np.ones((1, 1), complex), 0.4)]
        with pytest.raises(ValueError):
            finite_support_statistics(pts, lambda hh: (hh, (0,)))

    def test_product_builder_zero_mean_errors_enforced(self, rng):
        est = [[(np.ones((1, 1), complex), 1.0)]]
        err = [[(np.ones((1, 1), complex), 1.0)]]  # mean 1, invalid
        with pytest.raises(ValueError):
            from_local_supports(est, err, "no-share", [[0]])

    def test_product_builder_max_points_guard(self, rng):
        est = [[(np.zeros((1, 1), complex), 0.5), (np.ones((1, 1), complex), 0.5)]] * 8
        err = [[(np.zeros((1, 1), complex), 1.0)]] * 8
        with pytest.raises(ValueError):
            from_local_supports(est, err, "no-share", [[i] for i in range(8)], max_points=64)

    def test_psi_exact_cross_check(self, rng):
        from tests.conftest import random_stripe_setup

        for n in (1, 2):
            model, _, _, w, _ = random_stripe_setup(rng, 1, 2, 2, "no-share", n_antennas=n)
            psi = model.psi_stack(w)
            err = model.h - model.h_hat
            for l in range(model.num_txs):
                e = err[:, :, l * n : (l + 1) * n]
                direct = np.einsum("s,ski,k,skj->ij", model.probs, np.conj(e), w, e)
                np.testing.assert_allclose(psi[l], direct, atol=1e-12)

    def test_information_structure_labels_nest(self, rng):
        from tests.conftest import random_stripe_setup

        # finer structures refine coarser ones on the same support
        rng2 = np.random.default_rng(99)
        setups = {
            s: random_stripe_setup(np.random.default_rng(99), 1, 3, 2, s)[0]
            for s in ("no-share", "uni", "bi")
        }
        uni, bi = setups["uni"], setups["bi"]
        # unidirectional classes at the last TX coincide with bidirectional ones
        last = uni.num_txs - 1
        pairs_uni = set(zip(uni.labels[last], bi.labels[last]))
        assert len(pairs_uni) == len(set(uni.labels[last]))

    def test_structure_enum_round_trip(self):
        for s in InformationStructure:
            assert InformationStructure(s.value) is s


class TestTxBlocks:
    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("lead", [(), (5,)], ids=["2d", "3d"])
    def test_view_of_column_blocks(self, rng, n, lead):
        L, K = 3, 2
        arr = rng.standard_normal((*lead, K, n * L)) + 1j * rng.standard_normal((*lead, K, n * L))
        blocks = tx_blocks(arr, n)
        assert blocks.shape == (*lead, L, K, n)
        for l in range(L):
            np.testing.assert_array_equal(blocks[..., l, :, :], arr[..., l * n : (l + 1) * n])
            assert np.shares_memory(blocks[..., l, :, :], arr)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_ensemble_h_hat_block(self, rng, n):
        S, K, L = 4, 3, 2
        h = rng.standard_normal((S, K, n * L)) + 1j * rng.standard_normal((S, K, n * L))
        ens = Ensemble(h=h, h_hat=h.copy(), weights=np.full(S, 1 / S), n_antennas=n)
        for l in range(L):
            np.testing.assert_array_equal(ens.h_hat_block(l), ens.h_hat[..., l * n : (l + 1) * n])
            assert np.shares_memory(ens.h_hat_block(l), ens.h_hat)
