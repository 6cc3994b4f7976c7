import numpy as np
import pytest

from tests.conftest import (
    assert_class_constant,
    closed_form_stack,
    random_error_support,
    random_stripe_setup,
    random_support,
    sign_symmetric_model,
    team_problem,
)
from tmmse.channel import Ensemble, from_local_supports
from tmmse.oracle import mse_exact, solve_team_exact, verify_stationarity
from tmmse.precoding import (
    RCOND_FLOOR,
    SingularCoefficientSystem,
    SingularSweepError,
    StripeStatistics,
    apply_scheme,
    centralized_mmse,
    estimate_stripe_statistics,
    fit_scheme,
    local_filter,
    local_mmse_coefficients,
    read_matrix_dump,
    solve_statistical_precoders_bi,
    solve_statistical_precoders_uni,
    stripe_forward_pass,
    tmmse_bidirectional,
    tmmse_unidirectional,
    write_matrix_dump,
    _rcond,
    _sweep_rcond,
)
from tmmse.topology import association_from_stripes


def exact_ensemble(model):
    return model.ensemble()


class TestLocalFilter:
    def test_scalar_case(self):
        h = np.array([[0.8 - 0.3j]])
        t = local_filter(h, np.zeros((1, 1)), np.ones(1), 2.0)
        np.testing.assert_allclose(t, np.conj(h).T / (abs(h[0, 0]) ** 2 + 0.5))

    def test_zero_channel(self):
        t = local_filter(np.zeros((3, 2)), np.zeros((2, 2)), np.full(3, 1 / 3), 1.0)
        assert (t == 0).all()

    def test_matches_independent_dense_solve(self, rng):
        # N <= K takes the normal equations; N > K (a batch of 4 samples, with
        # a non-diagonal Hermitian PSD Psi) takes the K x K push-through form
        h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h_wide = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
        total_power = 4.0
        for h, psi, w in (
            (h, np.diag([0.1, 0.2]).astype(complex), np.array([0.5, 0.3, 0.2])),
            (h_wide, 0.2 * x @ x.conj().T, np.array([0.6, 0.4])),
        ):
            t = local_filter(h, psi, w, total_power)
            n = h.shape[-1]
            for hs, ts in zip(h.reshape(-1, *h.shape[-2:]), t.reshape(-1, n, len(w))):
                a = hs.conj().T @ np.diag(w) @ hs + psi + np.eye(n) / total_power
                b = hs.conj().T @ np.diag(np.sqrt(w))
                expected, *_ = np.linalg.lstsq(a, b, rcond=None)
                np.testing.assert_allclose(ts, expected, atol=1e-10)


class TestPsiValidation:
    """Psi is checked once per entry-point call, not inside local_filter."""

    @staticmethod
    def entry_points(h_hat, psi, w, total_power):
        # one TX serving both users; the state is fitted on a valid Psi
        n = h_hat.shape[-1]
        h = h_hat[None].astype(complex)
        ens = Ensemble(h=h, h_hat=h.copy(), weights=np.ones(1), n_antennas=n)
        assoc = association_from_stripes([(0,), (0,)], 1, 1)
        stripes = [[0]]
        state = fit_scheme("uni", ens, assoc, stripes, np.zeros((1, n, n)), w, total_power)
        bad = psi[None]
        return [
            lambda: fit_scheme("uni", ens, assoc, stripes, bad, w, total_power),
            lambda: apply_scheme(state, ens, assoc, stripes, bad, w, total_power),
            lambda: stripe_forward_pass(
                h_hat, stripes[0], state.stripe_stats[0], state.stripe_coeffs[0],
                (0, 1), np.ones(2), np.ones(2), bad, w, total_power,
            ),
        ]

    def test_non_psd_psi_rejected(self):
        for call in self.entry_points(np.ones((2, 1)), np.array([[-1.0]]), np.full(2, 0.5), 1.0):
            with pytest.raises(ValueError):
                call()

    def test_non_hermitian_psi_rejected(self):
        psi = np.array([[0.1, 0.5], [0.0, 0.1]])
        for call in self.entry_points(np.ones((2, 2)), psi, np.full(2, 0.5), 1.0):
            with pytest.raises(ValueError):
                call()


class TestStripeStatistics:
    def test_chain_end_base_case(self, rng):
        model, stripes, _, w, power = random_stripe_setup(rng, 1, 2, 2, "uni")
        stats = estimate_stripe_statistics(
            exact_ensemble(model), stripes[0], model.psi_stack(w), w, power
        )
        assert (stats.pi[-1] == 0).all()
        # with Pi_M = 0, V_M = I so E[P V] at the end is plain E[P]
        ens = exact_ensemble(model)
        l = stripes[0][-1]
        hl = ens.h_hat_block(l)
        t = local_filter(hl, model.psi_stack(w)[l], w, power)
        p_mean = np.einsum("s,sij->ij", ens.weights, np.sqrt(w)[None, :, None] * (hl @ t))
        np.testing.assert_allclose(stats.mean_pv[-1], p_mean, atol=1e-12)

    def test_deterministic_recursion(self, rng):
        # one-point support: expectations are plain products, checked by hand
        model, stripes, _, w, power = random_stripe_setup(
            rng, 1, 3, 2, "uni", with_errors=False, max_points=1
        )
        assert model.n_points == 1
        K = model.num_users
        psi = model.psi_stack(w)
        stats = estimate_stripe_statistics(exact_ensemble(model), stripes[0], psi, w, power)
        pi = np.zeros((K, K), complex)
        for m in range(3, 0, -1):
            l = stripes[0][m - 1]
            hl = model.h_hat[0][:, l : l + 1]
            t = local_filter(hl, psi[l], w, power)
            p = np.sqrt(w)[:, None] * (hl @ t)
            v = np.linalg.solve(np.eye(K) - pi @ p, np.eye(K) - pi)
            pi = p @ v + pi @ (np.eye(K) - p @ v)
            np.testing.assert_allclose(stats.pi[m - 1], pi, atol=1e-10)

    def test_two_point_support_hand_enumeration(self, rng):
        # independent enumeration over the local two-point marginals
        K, power = 2, 3.0
        w = np.full(K, 0.5)
        est = [
            [(rng.standard_normal((K, 1)) + 1j * rng.standard_normal((K, 1)), p)
             for p in (0.3, 0.7)]
            for _ in range(2)
        ]
        err = [[(np.zeros((K, 1), complex), 1.0)] for _ in range(2)]
        model = from_local_supports(est, err, "uni", [[0, 1]])
        stats = estimate_stripe_statistics(
            exact_ensemble(model), [0, 1], model.psi_stack(w), w, power
        )
        eye = np.eye(K)

        def response(h):
            t = local_filter(h, np.zeros((1, 1)), w, power)
            return np.sqrt(w)[:, None] * (h @ t)

        pi1 = sum(p * response(v) for v, p in est[1])  # V = I at the chain end
        e_pv = np.zeros((K, K), complex)
        e_vb = np.zeros((K, K), complex)
        for v1, p in est[0]:
            pm = response(v1)
            vm = np.linalg.solve(eye - pi1 @ pm, eye - pi1)
            e_pv += p * (pm @ vm)
            e_vb += p * (eye - pm @ vm)
        np.testing.assert_allclose(stats.pi[1], pi1, atol=1e-10)
        np.testing.assert_allclose(stats.pi[0], e_pv + pi1 @ e_vb, atol=1e-10)

    def test_singular_sweep_reports_coordinates(self, rng):
        model, stripes, _, w, power = random_stripe_setup(
            rng, 1, 2, 2, "uni", with_errors=False, max_points=1
        )
        psi = model.psi_stack(w)
        ens = exact_ensemble(model)
        l = stripes[0][0]
        hl = ens.h_hat_block(l)
        t = local_filter(hl, psi[l], w, power)
        p = np.sqrt(w)[None, :, None] * (hl @ t)
        # position 1 uses pi[1]; pi = I/tr(P) makes (I - pi P) exactly singular
        # because the rank-one response P has its nonzero eigenvalue at tr(P)
        assert abs(np.trace(p[0])) > 1e-3
        bad_pi = np.eye(2, dtype=complex) / np.trace(p[0])
        doctored = StripeStatistics(
            stripe=0,
            pi=np.stack([np.zeros_like(p[0]), bad_pi, np.zeros_like(p[0])]),
            mean_pv=np.zeros((2, 2, 2), complex),
            n_samples=1,
        )
        coeffs = np.zeros((1, 2, 2), complex)
        coeffs[0] = np.eye(2)
        with pytest.raises(SingularSweepError) as err:
            tmmse_unidirectional(ens, [doctored], coeffs, stripes, psi, w, power)
        assert err.value.stripe == 0 and err.value.position == 0 and err.value.sample == 0

    def test_singular_sweep_reports_batched_coordinates(self, rng):
        # K = 3 > 2N: the guard runs on the 2N-dimensional restriction, and all
        # positions of a stripe are checked in one batched call; positions 1
        # (sample 2) and 2 (sample 1) of stripe 1 are singular, position 1 is
        # the first the forward product meets
        S, K, M = 4, 3, 4
        h = rng.standard_normal((S, K, 2 * M)) + 1j * rng.standard_normal((S, K, 2 * M))
        ens = Ensemble(h=h, h_hat=h.copy(), weights=np.full(S, 1 / S), n_antennas=1)
        w, power = np.full(K, 1 / K), 2.0
        psi = np.zeros((2 * M, 1, 1))
        stripes = [list(range(M)), list(range(M, 2 * M))]
        pi = np.zeros((M + 1, K, K), complex)
        for position, sample in ((1, 2), (2, 1)):
            hl = ens.h_hat_block(stripes[1][position])
            p = np.sqrt(w)[:, None] * (hl[sample] @ local_filter(hl[sample], psi[0], w, power))
            pi[position + 1] = np.eye(K) / np.trace(p)
        zeros = np.zeros((M, K, K), complex)
        stats = [StripeStatistics(q, pi if q else np.zeros_like(pi), zeros, S)
                 for q in range(2)]
        coeffs = np.stack([np.eye(K, dtype=complex)] * 2)
        with pytest.raises(SingularSweepError) as err:
            tmmse_unidirectional(ens, stats, coeffs, stripes, psi, w, power)
        assert (err.value.stripe, err.value.position, err.value.sample) == (1, 1, 2)
        assert err.value.rcond < RCOND_FLOOR
        # one realization: the fronthaul protocol meets the same position
        for s, position in ((2, 1), (1, 2)):
            with pytest.raises(SingularSweepError) as err:
                stripe_forward_pass(ens.h_hat[s], stripes[1], stats[1], coeffs[1], range(K),
                                    np.ones(K), np.ones(K), psi, w, power)
            assert (err.value.stripe, err.value.position, err.value.sample) == (1, position, 0)
        xs, _ = stripe_forward_pass(ens.h_hat[0], stripes[1], stats[1], coeffs[1], range(K),
                                    np.ones(K), np.ones(K), psi, w, power)
        assert len(xs) == M


class TestSweepGuard:
    """The capacitance-form guard reports the rcond of the K x K system I - D A T."""

    @pytest.mark.parametrize("K,N", [(10, 1), (6, 4), (5, 2), (1, 1)])
    def test_matches_dense_rcond(self, rng, K, N):
        S = 16
        a = rng.standard_normal((S, K, N)) + 1j * rng.standard_normal((S, K, N))
        t = rng.standard_normal((S, N, K)) + 1j * rng.standard_normal((S, N, K))
        for d in (
            0.3 * (rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))),
            0.3 * (rng.standard_normal((S, K, K)) + 1j * rng.standard_normal((S, K, K))),
            np.zeros((K, K), complex),
        ):
            dense = _rcond(np.eye(K) - d @ a @ t)
            np.testing.assert_allclose(_sweep_rcond(d @ a, t), dense, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("K", [10, 5, 2])
    def test_exactly_singular(self, rng, K):
        # rank-one P has its nonzero eigenvalue at tr(P): D = I / tr(P) is singular
        # (K = 1 is left out: a 1 x 1 system has rcond 1 unless it is exactly 0)
        a = rng.standard_normal((K, 1)) + 1j * rng.standard_normal((K, 1))
        t = rng.standard_normal((1, K)) + 1j * rng.standard_normal((1, K))
        d = np.eye(K) / np.trace(a @ t)
        assert _sweep_rcond(d @ a, t) < RCOND_FLOOR
        assert _rcond(np.eye(K) - d @ a @ t) < RCOND_FLOOR


class TestCoefficientSystems:
    def test_single_unit_identity(self, rng):
        model, stripes, _, w, power = random_stripe_setup(rng, 1, 2, 3, "uni")
        stats = [
            estimate_stripe_statistics(
                exact_ensemble(model), stripes[0], model.psi_stack(w), w, power, stripe=0
            )
        ]
        assoc = association_from_stripes([(0,), (0,), (0,)], 1, 2)
        coeffs = solve_statistical_precoders_uni(assoc, stats)
        np.testing.assert_allclose(coeffs[0], np.eye(3), atol=1e-12)

    def test_zero_coupling_identity(self):
        pi = np.zeros((2, 3, 3), complex)
        assoc = association_from_stripes([(0, 1)] * 3, 2, 1)
        coeffs = solve_statistical_precoders_bi(assoc, pi)
        np.testing.assert_allclose(coeffs[0], np.eye(3), atol=1e-12)
        np.testing.assert_allclose(coeffs[1], np.eye(3), atol=1e-12)

    def test_matches_dense_block_solve(self, rng):
        K = 3
        pi = 0.3 * (rng.standard_normal((2, K, K)) + 1j * rng.standard_normal((2, K, K)))
        assoc = association_from_stripes([(0, 1)] * K, 2, 1)
        coeffs = solve_statistical_precoders_bi(assoc, pi)
        for k in range(K):
            a = np.block([[np.eye(K), pi[1]], [pi[0], np.eye(K)]])
            rhs = np.concatenate([np.eye(K)[:, k]] * 2)
            x = np.linalg.solve(a, rhs)
            np.testing.assert_allclose(coeffs[0][:, k], x[:K], atol=1e-10)
            np.testing.assert_allclose(coeffs[1][:, k], x[K:], atol=1e-10)

    def test_reordered_assembly_agrees(self, rng):
        # uniqueness: solving with the block order reversed changes nothing
        K = 3
        pi = 0.3 * (rng.standard_normal((2, K, K)) + 1j * rng.standard_normal((2, K, K)))
        assoc = association_from_stripes([(0, 1)] * K, 2, 1)
        coeffs = solve_statistical_precoders_bi(assoc, pi)
        for k in range(K):
            a = np.block([[np.eye(K), pi[0]], [pi[1], np.eye(K)]])  # order (1, 0)
            rhs = np.concatenate([np.eye(K)[:, k]] * 2)
            x = np.linalg.solve(a, rhs)
            np.testing.assert_allclose(coeffs[1][:, k], x[:K], atol=1e-10)
            np.testing.assert_allclose(coeffs[0][:, k], x[K:], atol=1e-10)

    def test_per_user_serving_sets(self, rng):
        # four units; users served by different subsets of sizes 1..3
        K = 4
        serving = [(2,), (0, 3), (1, 2, 3), (0, 1)]
        pi = 0.3 * (rng.standard_normal((4, K, K)) + 1j * rng.standard_normal((4, K, K)))
        assoc = association_from_stripes(serving, 4, 1)
        coeffs = solve_statistical_precoders_bi(assoc, pi)
        for k, units in enumerate(serving):
            a = np.block([[np.eye(K) if i == j else pi[j] for j in units] for i in units])
            x = np.linalg.solve(a, np.tile(np.eye(K)[:, k], len(units)))
            for row, u in enumerate(units):
                np.testing.assert_allclose(coeffs[u][:, k], x[row * K : (row + 1) * K], atol=1e-10)
            for u in set(range(4)) - set(units):
                assert (coeffs[u][:, k] == 0).all()

    def test_singular_coupling_sum_raises(self):
        # Pi_0 = Pi_1 = -I: I + sum_j Pi_j (I - Pi_j)^-1 = 0, the block system is singular
        pi = np.stack([-np.eye(2, dtype=complex)] * 2)
        assoc = association_from_stripes([(0, 1)] * 2, 2, 1)
        with pytest.raises(SingularCoefficientSystem) as err:
            solve_statistical_precoders_bi(assoc, pi)
        assert err.value.user in (0, 1)

    def test_singular_unit_factor_raises(self):
        # Pi_0 = I makes I - Pi_0 singular for the user unit 0 serves
        pi = np.stack([np.eye(2, dtype=complex), np.zeros((2, 2), complex)])
        assoc = association_from_stripes([(1,), (0, 1)], 2, 1)
        with pytest.raises(SingularCoefficientSystem) as err:
            solve_statistical_precoders_bi(assoc, pi)
        assert err.value.user == 1


class TestLeftProductConvention:
    def test_non_commuting_forward_product(self, rng):
        # deterministic stripe of three TXs; the update matrices do not commute
        model, stripes, _, w, power = random_stripe_setup(
            rng, 1, 3, 3, "uni", with_errors=False, max_points=1
        )
        psi = model.psi_stack(w)
        ens = exact_ensemble(model)
        K = model.num_users
        stats = estimate_stripe_statistics(ens, stripes[0], psi, w, power)
        assoc = association_from_stripes([(0,)] * K, 1, 3)
        coeffs = solve_statistical_precoders_uni(assoc, [stats])
        stack = tmmse_unidirectional(ens, [stats], coeffs, stripes, psi, w, power)

        mats = []  # (T_m, V_m, Vbar_m) recomputed from public pieces
        eye = np.eye(K)
        for m, l in enumerate(stripes[0], start=1):
            hl = ens.h_hat_block(l)[0]
            t = local_filter(hl, psi[l], w, power)
            p = np.sqrt(w)[:, None] * (hl @ t)
            v = np.linalg.solve(eye - stats.pi[m] @ p, eye - stats.pi[m])
            mats.append((t, v, eye - p @ v))
        t3, v3, _ = mats[2]
        left = t3 @ v3 @ mats[1][2] @ mats[0][2] @ coeffs[0]
        right = t3 @ v3 @ mats[0][2] @ mats[1][2] @ coeffs[0]
        assert np.abs(mats[1][2] @ mats[0][2] - mats[0][2] @ mats[1][2]).max() > 1e-6
        np.testing.assert_allclose(stack[0, 2:3, :], left, atol=1e-10)
        assert np.abs(stack[0, 2:3, :] - right).max() > 1e-8


class TestSchemeEquivalences:
    def test_single_position_uni_equals_no_sharing(self, rng):
        model, stripes, assoc, w, power = random_stripe_setup(rng, 3, 1, 3, "uni")
        uni = closed_form_stack(model, "uni", assoc, stripes, w, power)
        ns = closed_form_stack(model, "no-share", assoc, stripes, w, power)
        np.testing.assert_allclose(uni, ns, atol=1e-8)

    def test_deterministic_uni_equals_bi(self, rng):
        model, stripes, assoc, w, power = random_stripe_setup(
            rng, 2, 3, 2, "uni", with_errors=False, max_points=1
        )
        uni = closed_form_stack(model, "uni", assoc, stripes, w, power)
        bi = closed_form_stack(model, "bi", assoc, stripes, w, power)
        np.testing.assert_allclose(uni, bi, atol=1e-8)

    def test_single_stripe_full_csi_bi_equals_centralized(self, rng):
        # perfect CSI realizations; equality holds realization by realization
        S, K, M = 6, 3, 4
        h = rng.standard_normal((S, K, M)) + 1j * rng.standard_normal((S, K, M))
        ens = Ensemble(h=h, h_hat=h.copy(), weights=np.full(S, 1 / S), n_antennas=1)
        w = np.full(K, 1 / K)
        power = 5.0
        psi = np.zeros((M, 1, 1))
        assoc = association_from_stripes([(0,)] * K, 1, M)
        stripes = [[0, 1, 2, 3]]
        stats = estimate_stripe_statistics(ens, stripes[0], psi, w, power)
        coeffs = solve_statistical_precoders_uni(assoc, [stats])
        bi = tmmse_bidirectional(ens, coeffs, stripes, psi, w, power)
        cent = centralized_mmse(ens, psi, w, power)
        np.testing.assert_allclose(bi, cent, atol=1e-8)

    def test_injected_zero_coupling_reduces_to_plain_sweep(self, rng):
        model, stripes, assoc, w, power = random_stripe_setup(rng, 2, 2, 2, "bi")
        psi = model.psi_stack(w)
        ens = exact_ensemble(model)
        eye_coeffs = np.stack([np.eye(2, dtype=complex)] * 2)
        full_assoc = association_from_stripes([(0, 1)] * 2, 2, 2)
        bi = tmmse_bidirectional(ens, eye_coeffs, stripes, psi, w, power)
        # with c = e_k the per-user output is the pure per-realization sweep
        for q, txs in enumerate(stripes):
            K = model.num_users
            pbar = np.zeros((ens.n_samples, K, K), complex)
            v_list = [None] * len(txs)
            ps, ts = [], []
            for l in txs:
                hl = ens.h_hat_block(l)
                t = local_filter(hl, psi[l], w, power)
                ts.append(t)
                ps.append(np.sqrt(w)[None, :, None] * (hl @ t))
            for m in range(len(txs), 0, -1):
                v = np.linalg.solve(np.eye(K) - pbar @ ps[m - 1], np.eye(K) - pbar)
                v_list[m - 1] = v
                pv = ps[m - 1] @ v
                pbar = pv + pbar @ (np.eye(K) - pv)
            prefix = np.broadcast_to(np.eye(K), (ens.n_samples, K, K)).astype(complex)
            for m, l in enumerate(txs, start=1):
                np.testing.assert_allclose(
                    bi[:, l : l + 1, :], ts[m - 1] @ v_list[m - 1] @ prefix, atol=1e-9
                )
                if m < len(txs):
                    prefix = (np.eye(K) - ps[m - 1] @ v_list[m - 1]) @ prefix

    def test_support_constraint_all_schemes(self, rng):
        model, stripes, assoc, w, power = random_stripe_setup(rng, 2, 2, 3, "uni")
        mask = np.repeat(assoc.mask(), model.n_antennas, axis=0)  # (N*L, K)
        for scheme in ("uni", "bi", "no-share", "local-mmse"):
            stack = closed_form_stack(model, scheme, assoc, stripes, w, power)
            outside = stack * (~mask)[None, :, :]
            assert np.abs(outside).max() < 1e-12, scheme

    def test_measurability_within_classes(self, rng):
        for structure in ("no-share", "uni", "bi"):
            model, stripes, assoc, w, power = random_stripe_setup(
                rng, 2, 2, 2, structure
            )
            scheme = structure if structure != "no-share" else "no-share"
            stack = closed_form_stack(model, scheme, assoc, stripes, w, power)
            assert_class_constant(model, stack)


class TestStationarityAndOrdering:
    def test_stationarity_residual_all_schemes(self, rng):
        for structure, scheme in (
            ("no-share", "no-share"),
            ("uni", "uni"),
            ("bi", "bi"),
        ):
            model, stripes, assoc, w, power = random_stripe_setup(
                rng, 2, 2, 2, structure
            )
            stack = closed_form_stack(model, scheme, assoc, stripes, w, power)
            problem = team_problem(model, assoc, w, power)
            for k in range(model.num_users):
                resid = verify_stationarity(problem, stack[:, :, k], k)
                assert resid < 1e-9, (structure, k, resid)

    def test_centralized_stationarity_full_association(self, rng):
        model, stripes, _, w, power = random_stripe_setup(rng, 2, 2, 2, "centralized")
        assoc = association_from_stripes([(0, 1)] * 2, 2, 2)
        stack = closed_form_stack(model, "centralized", assoc, stripes, w, power)
        problem = team_problem(model, assoc, w, power)
        for k in range(model.num_users):
            assert verify_stationarity(problem, stack[:, :, k], k) < 1e-9

    def test_mse_ordering_exact(self, rng):
        model, stripes, assoc, w, power = random_stripe_setup(rng, 2, 3, 3, "uni")
        problem = team_problem(model, assoc, w, power)
        stacks = {
            s: closed_form_stack(model, s, assoc, stripes, w, power)
            for s in ("centralized", "bi", "uni", "no-share", "local-mmse")
        }
        for k in range(model.num_users):
            mses = [
                mse_exact(problem, stacks[s][:, :, k], k)
                for s in ("centralized", "bi", "uni", "no-share", "local-mmse")
            ]
            for lo, hi in zip(mses, mses[1:]):
                assert lo <= hi + 1e-12


class TestLocalMmseBaseline:
    def test_single_serving_tx_unit_coefficient(self, rng):
        model, stripes, _, w, power = random_stripe_setup(rng, 2, 1, 2, "no-share")
        assoc = association_from_stripes([(0,), (1,)], 2, 1)
        coefs = local_mmse_coefficients(exact_ensemble(model), assoc, model.psi_stack(w), w, power)
        for k, txs in enumerate(assoc.serving_txs):
            np.testing.assert_allclose(coefs[list(txs), k], 1.0, atol=1e-8)

    def test_rayleigh_case_matches_no_sharing(self, rng):
        model, stripes = sign_symmetric_model(rng, 2, 2)
        assoc = association_from_stripes([(0, 1)] * 2, 2, 1)
        w = np.full(2, 0.5)
        power = 4.0
        problem = team_problem(model, assoc, w, power)
        ns = closed_form_stack(model, "no-share", assoc, stripes, w, power)
        lm = closed_form_stack(model, "local-mmse", assoc, stripes, w, power)
        for k in range(2):
            m_ns = mse_exact(problem, ns[:, :, k], k)
            m_lm = mse_exact(problem, lm[:, :, k], k)
            assert abs(m_ns - m_lm) / m_ns < 1e-8

    def test_singular_normal_equations_fall_back_to_unit(self, rng):
        # a user whose serving TXs see a zero channel yields an all-zero
        # system; the coefficients degrade to 1 with a warning
        est = [[(np.zeros((2, 1), complex), 1.0)], [(np.ones((2, 1), complex), 1.0)]]
        err = [[(np.zeros((2, 1), complex), 1.0)]] * 2
        model = from_local_supports(est, err, "no-share", [[0], [1]])
        assoc = association_from_stripes([(0,), (1,)], 2, 1)
        w = np.full(2, 0.5)
        with pytest.warns(UserWarning, match="unit coefficients"):
            coefs = local_mmse_coefficients(
                model.ensemble(), assoc, model.psi_stack(w), w, 2.0
            )
        assert coefs[0, 0] == 1.0

    def test_line_of_sight_strictly_worse(self, rng):
        # nonzero channel mean: the scalar restriction loses optimality
        model, stripes, _, w, power = random_stripe_setup(
            rng, 2, 1, 2, "no-share", mean_offset=0.8
        )
        assoc = association_from_stripes([(0, 1)] * 2, 2, 1)
        problem = team_problem(model, assoc, w, power)
        ns = closed_form_stack(model, "no-share", assoc, stripes, w, power)
        lm = closed_form_stack(model, "local-mmse", assoc, stripes, w, power)
        gaps = [
            mse_exact(problem, lm[:, :, k], k) - mse_exact(problem, ns[:, :, k], k)
            for k in range(2)
        ]
        assert max(gaps) > 1e-6
        assert min(gaps) > -1e-12


class TestForwardPass:
    def _setup(self, rng, num_users=3):
        model, stripes, assoc, w, power = random_stripe_setup(
            rng, 2, 3, num_users, "uni", max_points=64
        )
        psi = model.psi_stack(w)
        ens = exact_ensemble(model)
        state = fit_scheme("uni", ens, assoc, stripes, psi, w, power)
        stack = tmmse_unidirectional(
            ens, state.stripe_stats, state.stripe_coeffs, stripes, psi, w, power
        )
        return model, stripes, assoc, w, power, psi, ens, state, stack

    def test_superposition_identity(self, rng):
        model, stripes, assoc, w, power, psi, ens, state, stack = self._setup(rng)
        powers = rng.random(model.num_users) + 0.2
        messages = rng.standard_normal(model.num_users) + 1j * rng.standard_normal(model.num_users)
        for s in range(0, ens.n_samples, max(ens.n_samples // 3, 1)):
            for q, txs in enumerate(stripes):
                xs, payload = stripe_forward_pass(
                    ens.h_hat[s], txs, state.stripe_stats[q], state.stripe_coeffs[q],
                    assoc.stripe_users(q), messages, powers, psi, w, power,
                )
                assert payload == model.num_users
                for m, l in enumerate(txs):
                    expected = sum(
                        np.sqrt(powers[k]) * stack[s, l : l + 1, k] * messages[k]
                        for k in range(model.num_users)
                    )
                    np.testing.assert_allclose(xs[m], expected, atol=1e-10)

    def test_zero_messages_zero_signal(self, rng):
        model, stripes, assoc, w, power, psi, ens, state, _ = self._setup(rng)
        xs, _ = stripe_forward_pass(
            ens.h_hat[0], stripes[0], state.stripe_stats[0], state.stripe_coeffs[0],
            assoc.stripe_users(0), np.zeros(model.num_users), np.ones(model.num_users),
            psi, w, power,
        )
        assert all(np.abs(x).max() == 0 for x in xs)

    def test_single_user_unit_message(self, rng):
        model, stripes, assoc, w, power, psi, ens, state, stack = self._setup(rng, num_users=2)
        served = assoc.stripe_users(0)
        if not served:
            pytest.skip("random association left stripe 0 unused")
        k = served[0]
        messages = np.zeros(model.num_users, complex)
        messages[k] = 1.0
        xs, _ = stripe_forward_pass(
            ens.h_hat[0], stripes[0], state.stripe_stats[0], state.stripe_coeffs[0],
            served, messages, np.ones(model.num_users), psi, w, power,
        )
        for m, l in enumerate(stripes[0]):
            np.testing.assert_allclose(xs[m], stack[0, l : l + 1, k], atol=1e-10)


class TestCentralized:
    def test_scalar_case(self):
        h = np.array([[[1.5 + 0.5j]]])
        ens = Ensemble(h=h, h_hat=h.copy(), weights=np.ones(1), n_antennas=1)
        t = centralized_mmse(ens, np.zeros((1, 1, 1)), np.ones(1), 2.0)
        expected = np.conj(h[0, 0, 0]) / (abs(h[0, 0, 0]) ** 2 + 0.5)
        np.testing.assert_allclose(t[0, 0, 0], expected)

    @pytest.mark.parametrize("L,K,N", [(2, 3, 1), (4, 2, 1), (1, 3, 2), (2, 2, 2), (2, 1, 2)])
    def test_matches_oracle_with_estimation_errors(self, rng, L, K, N):
        # centralized structure, full association, zero-mean error supports on
        # every TX (Psi != 0); N*L <= K takes local_filter's normal equations,
        # N*L > K its K x K push-through form
        for _ in range(4):
            est = [random_support(rng, int(rng.integers(1, 3)), K, N) for _ in range(L)]
            err = [random_error_support(rng, 2, K, N) for _ in range(L)]
            model = from_local_supports(est, err, "centralized", [list(range(L))],
                                        n_antennas=N, max_points=256)
            w = rng.random(K) + 0.3
            w /= w.sum()
            power = float(rng.uniform(1.0, 8.0))
            psi = model.psi_stack(w)
            assert np.abs(psi).max() > 1e-3
            problem = team_problem(model, association_from_stripes([(0,)] * K, 1, L), w, power)
            stack = centralized_mmse(model.ensemble(), psi, w, power)
            for k in range(K):
                np.testing.assert_allclose(stack[:, :, k], solve_team_exact(problem, k),
                                           atol=1e-10)


class TestMatrixDump:
    def test_round_trip(self, tmp_path, rng):
        mats = [
            rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)),
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),
        ]
        path = tmp_path / "dump.bin"
        write_matrix_dump(path, mats)
        back = read_matrix_dump(path)
        assert len(back) == 2
        for a, b in zip(mats, back):
            np.testing.assert_array_equal(np.asarray(a, complex), b)

    def test_layout_is_little_endian_pairs(self, tmp_path):
        mat = np.array([[1.0 + 2.0j, 3.0 - 4.0j]])
        path = tmp_path / "one.bin"
        write_matrix_dump(path, [mat])
        raw = path.read_bytes()
        import struct

        assert struct.unpack("<II", raw[:8]) == (1, 2)
        vals = struct.unpack("<4d", raw[8:])
        assert vals == (1.0, 2.0, 3.0, -4.0)
