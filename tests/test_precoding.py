import dataclasses
import re
import time

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from tests.conftest import (
    assert_class_constant,
    closed_form_stack,
    random_association,
    random_error_support,
    random_stripe_setup,
    random_support,
    sign_symmetric_model,
    team_problem,
)
import tmmse.parallel as parallel
import tmmse.precoding as precoding
from tmmse.channel import Ensemble, from_local_supports, herm, tx_blocks
from tmmse.evaluation import evaluate, evaluate_states
from tmmse.oracle import mse_exact, solve_team_exact, verify_stationarity
from tmmse.parallel import SAMPLE_BLOCK
from tmmse.precoding import (
    RCOND_FLOOR,
    SingularCoefficientSystem,
    SingularSweepError,
    StripeStatistics,
    UniState,
    apply_scheme,
    centralized_mmse,
    estimate_stripe_statistics,
    fit_scheme,
    fit_schemes,
    local_filter,
    read_matrix_dump,
    solve_statistical_precoders_uni,
    stripe_forward_pass,
    tmmse_bidirectional,
    tmmse_unidirectional,
    write_matrix_dump,
    _rcond,
    _solve_coefficient_columns,
)
from tmmse.topology import association_from_stripes, stripe_layout


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
        # N <= K and N > K (a batch of 4 samples, with a non-diagonal
        # Hermitian PSD Psi) both take the N x N normal equations; N = 1 (a
        # batch of 5 samples, K = 4, Psi > 0) takes one division
        h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h_wide = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
        h_single = rng.standard_normal((5, 4, 1)) + 1j * rng.standard_normal((5, 4, 1))
        total_power = 4.0
        for h, psi, w in (
            (h, np.diag([0.1, 0.2]).astype(complex), np.array([0.5, 0.3, 0.2])),
            (h_wide, 0.2 * x @ x.conj().T, np.array([0.6, 0.4])),
            (h_single, np.array([[0.3 + 0j]]), np.array([0.4, 0.3, 0.2, 0.1])),
        ):
            t = local_filter(h, psi, w, total_power)
            n = h.shape[-1]
            for hs, ts in zip(h.reshape(-1, *h.shape[-2:]), t.reshape(-1, n, len(w))):
                a = hs.conj().T @ np.diag(w) @ hs + psi + np.eye(n) / total_power
                b = hs.conj().T @ np.diag(np.sqrt(w))
                expected, *_ = np.linalg.lstsq(a, b, rcond=None)
                np.testing.assert_allclose(ts, expected, atol=1e-10)


def random_psd_stack(rng, count, n, scale=0.3):
    """count distinct Hermitian PSD n x n matrices."""
    x = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    return scale * x @ x.conj().swapaxes(-1, -2)


def block_diagonal_filter(h_hat, unit, psi, w, power):
    """Reference MMSE filter of the stacked estimate of the TX run unit, from
    the normal equations with its TXs' Psi blocks placed on the diagonal by hand."""
    n, size = psi.shape[-1], len(unit)
    psi_u = np.zeros((n * size, n * size), complex)
    for j, l in enumerate(unit):
        psi_u[j * n : (j + 1) * n, j * n : (j + 1) * n] = psi[l]
    return local_filter(h_hat[..., unit[0] * n : (unit[-1] + 1) * n], psi_u, w, power)


class TestUnitFilters:
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_matches_hand_built_block_diagonal_filter(self, rng, size):
        # bi on stripes of size TXs (one-TX stripes take the per-TX filter,
        # longer ones the unit kernel) against F_u c_u from the normal
        # equations; N = 2 with K = 3 puts N*size > K for size >= 2, K = 6
        # puts N*size <= K for every size.  The second stripe serves nobody.
        S, N, L = 5, 2, 6
        for K in (3, 6):
            h_hat = rng.standard_normal((S, K, N * L)) + 1j * rng.standard_normal((S, K, N * L))
            psi = random_psd_stack(rng, L, N)
            w, power = rng.random(K) + 0.2, 2.5
            w /= w.sum()
            stripes = [list(range(lo, lo + size)) for lo in range(0, L, size)]
            coeffs = rng.standard_normal((len(stripes), K, K)) + 1j * rng.standard_normal(
                (len(stripes), K, K))
            coeffs[1] = 0
            ens = Ensemble(h=h_hat, h_hat=h_hat, weights=np.full(S, 1 / S), n_antennas=N)
            got = tmmse_bidirectional(ens, coeffs, stripes, psi, w, power)
            for unit, c in zip(stripes, coeffs):
                rows = slice(unit[0] * N, (unit[-1] + 1) * N)
                want = block_diagonal_filter(h_hat, unit, psi, w, power) @ c
                np.testing.assert_allclose(got[:, rows], want, rtol=1e-11, atol=1e-13)

    @pytest.mark.parametrize("scheme", ["bi", "no-share", "local-mmse"])
    @pytest.mark.parametrize("stripes", [
        [[0, 2], [1, 3]],  # not consecutive
        [[0], [1, 2, 3]],  # unequal lengths
        [[0, 1]],  # does not cover every TX
        [[2, 3], [0, 1]],  # out of order
    ])
    def test_fit_rejects_stripes_that_do_not_tile(self, rng, scheme, stripes):
        model, _, assoc, w, power = random_stripe_setup(rng, 2, 2, 2, "bi")
        with pytest.raises(ValueError, match=re.escape(str(stripes))):
            fit_scheme(scheme, model.ensemble(), assoc, stripes, model.psi_stack(w), w, power)


def unit_couplings(ens, size, psi, w, power):
    """Reference E[W^1/2 Hhat_u F_u] of the units of size TXs tiling every TX,
    F_u from the normal equations."""
    n, want = ens.n_antennas, []
    for lo in range(0, ens.num_txs, size):
        unit = list(range(lo, lo + size))
        h = np.sqrt(w)[:, None] * ens.h_hat[..., unit[0] * n : (unit[-1] + 1) * n]
        f = block_diagonal_filter(ens.h_hat, unit, psi, w, power)
        want.append(np.einsum("s,ski,sij->kj", ens.weights, h, f))
    return np.array(want)


class TestCouplingKernel:
    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_equals_the_mean_response_of_the_unit_filters(self, rng, monkeypatch, length):
        # the fitted couplings on stripes of length TXs at N = 2: no-share's
        # one-TX units (and bi's at length 1) keep the filter; bi's stripe
        # units of two and four TXs take I - E[(I + G_u)^-1], with N*size > K
        # at K = 3 and N*size <= K at K = 9.  A pool of three sample blocks,
        # the last one partial, summed on one worker and on two.
        S, N, L = 2 * SAMPLE_BLOCK + 40, 2, 8
        stripes = stripe_layout(L // length, length)
        for K in (3, 9):
            h_hat = rng.standard_normal((S, K, N * L)) + 1j * rng.standard_normal((S, K, N * L))
            wts = rng.random(S) + 0.5
            ens = Ensemble(h=h_hat, h_hat=h_hat, weights=wts / wts.sum(), n_antennas=N)
            psi = random_psd_stack(rng, L, N)
            w, power = rng.random(K) + 0.2, 2.5
            w /= w.sum()
            assoc = association_from_stripes([(k % len(stripes),) for k in range(K)],
                                             len(stripes), length)
            for n_workers in (1, 2):
                monkeypatch.setattr(parallel, "workers", lambda: n_workers)
                for scheme, size in (("no-share", 1), ("bi", length)):
                    np.testing.assert_allclose(
                        fit_scheme(scheme, ens, assoc, stripes, psi, w, power).coupling,
                        unit_couplings(ens, size, psi, w, power), rtol=1e-11, atol=1e-13)


class TestSampleBlocks:
    """Pools that span several sample blocks (parallel.sample_blocks)."""

    @pytest.mark.parametrize("scheme", ["bi", "no-share"])
    def test_coupling_fit_is_one_map_bitwise_equal_for_any_worker_count(
            self, rng, monkeypatch, scheme):
        # three sample blocks, the last one partial: every stripe runs inside
        # each block, and the blocks' sums are added in block order
        S, K, N, Q, M = 2 * SAMPLE_BLOCK + 40, 3, 2, 3, 2
        L = Q * M
        h_hat = rng.standard_normal((S, K, N * L)) + 1j * rng.standard_normal((S, K, N * L))
        wts = rng.random(S) + 0.5
        ens = Ensemble(h=h_hat, h_hat=h_hat, weights=wts / wts.sum(), n_antennas=N)
        psi = random_psd_stack(rng, L, N)
        w, power = np.array([0.5, 0.3, 0.2]), 2.5
        assoc = association_from_stripes([(0, 1), (1, 2), (2,)], Q, M)
        real, maps, states = precoding.map_ordered, [], []
        monkeypatch.setattr(precoding, "map_ordered",
                            lambda fn, items: maps.append(items) or real(fn, items))
        for n_workers in (1, 2, 4):
            monkeypatch.setattr(parallel, "workers", lambda: n_workers)
            states.append(fit_scheme(scheme, ens, assoc, stripe_layout(Q, M), psi, w, power))
        assert maps == [parallel.sample_blocks(S)] * 3
        assert states[0].coupling.shape == (L if scheme == "no-share" else Q, K, K)
        for state in states[1:]:
            np.testing.assert_array_equal(state.coupling, states[0].coupling)
            np.testing.assert_array_equal(state.coeffs, states[0].coeffs)

    @pytest.mark.parametrize("scheme", ["centralized", "bi"])
    def test_unit_kernel_forms_each_stripe_estimate_once(self, rng, monkeypatch, scheme):
        # one _scaled_estimate per stripe and sample block, its B^-1 A^H kept
        # for the second pass; the rows equal the unit's MMSE filter from the
        # normal equations with block-diagonal Psi, times c (I for centralized)
        S, K, N, Q, M = 30, 3, 2, 3, 2
        L = Q * M
        h_hat = rng.standard_normal((S, K, N * L)) + 1j * rng.standard_normal((S, K, N * L))
        ens = Ensemble(h=h_hat, h_hat=h_hat, weights=np.full(S, 1 / S), n_antennas=N)
        psi = random_psd_stack(rng, L, N)
        w, power = np.array([0.5, 0.3, 0.2]), 2.5
        stripes = stripe_layout(Q, M)
        assoc = association_from_stripes([(0, 1), (1, 2), (2,)], Q, M)
        state = fit_scheme(scheme, ens, assoc, stripes, psi, w, power)
        real, calls = precoding._scaled_estimate, []
        monkeypatch.setattr(precoding, "_scaled_estimate",
                            lambda *args: calls.append(1) or real(*args))
        got = apply_scheme(state, ens, assoc, stripes, psi, w, power)
        assert len(calls) == Q
        units = [list(range(L))] if scheme == "centralized" else stripes
        for unit, c in zip(units, state.coeffs):
            rows = slice(unit[0] * N, (unit[-1] + 1) * N)
            want = block_diagonal_filter(h_hat, unit, psi, w, power) @ c
            np.testing.assert_allclose(got[:, rows], want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_singular_sweep_names_the_pool_sample(self, rng, monkeypatch, n_workers):
        # uni evaluated on sample blocks: sample a (third block) is singular at
        # stripe 1, position 1, and sample b (fourth block) at stripe 0,
        # position 2.  A whole-pool sweep meets stripe 0 first; the blocks
        # report the first failure in block order, a's, by its pool index.
        monkeypatch.setattr(parallel, "workers", lambda: n_workers)
        S, K, M = 4 * SAMPLE_BLOCK, 3, 4
        a, b = 2 * SAMPLE_BLOCK + 7, 3 * SAMPLE_BLOCK + 1
        h = rng.standard_normal((S, K, 2 * M)) + 1j * rng.standard_normal((S, K, 2 * M))
        ens = Ensemble(h=h, h_hat=h.copy(), weights=np.full(S, 1 / S), n_antennas=1)
        w, power = np.full(K, 1 / K), 2.0
        psi = np.zeros((2 * M, 1, 1))
        stripes = [list(range(M)), list(range(M, 2 * M))]
        pi = np.zeros((2, M + 1, K, K), complex)
        for q, position, sample in ((1, 1, a), (0, 2, b)):
            hl = ens.h_hat_block(stripes[q][position])
            p = np.sqrt(w)[:, None] * (hl[sample] @ local_filter(hl[sample], psi[0], w, power))
            pi[q, position + 1] = np.eye(K) / np.trace(p)
        state = UniState("uni", stripes, [StripeStatistics(q, pi[q]) for q in range(2)],
                         np.stack([np.eye(K, dtype=complex)] * 2), (psi, w, power))
        with pytest.raises(SingularSweepError) as err:
            evaluate(ens, state)
        assert (err.value.stripe, err.value.position, err.value.sample) == (1, 1, a)
        assert err.value.rcond < RCOND_FLOOR
        with pytest.raises(SingularSweepError) as err:
            apply_scheme(state, ens, None, stripes, psi, w, power)
        assert (err.value.stripe, err.value.position, err.value.sample) == (0, 2, b)


class TestStripeTasks:
    """uni's fit: one statistics sweep per stripe on the shared thread pool."""

    @staticmethod
    def pool(rng, Q=4, M=3, K=4, N=2, S=150):
        L = Q * M
        h = rng.standard_normal((S, K, N * L)) + 1j * rng.standard_normal((S, K, N * L))
        h_hat = h + 0.3 * (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape))
        ens = Ensemble(h=h, h_hat=h_hat, weights=np.full(S, 1 / S), n_antennas=N)
        w = rng.random(K) + 0.3
        return ens, stripe_layout(Q, M), random_psd_stack(rng, L, N), w / w.sum(), 3.0

    def test_statistics_bitwise_equal_to_one_sweep_after_another(self, rng, n_workers):
        ens, stripes, psi, w, power = self.pool(rng)
        assoc = association_from_stripes([(0, 1), (1, 2), (3,), (0, 3)], 4, 3)
        state = fit_scheme("uni", ens, assoc, stripes, psi, w, power)
        want = [estimate_stripe_statistics(ens, txs, psi, w, power, stripe=q)
                for q, txs in enumerate(stripes)]
        assert [st.stripe for st in state.stripe_stats] == [0, 1, 2, 3]
        for got, st in zip(state.stripe_stats, want):
            np.testing.assert_array_equal(got.pi, st.pi)
        np.testing.assert_array_equal(state.stripe_coeffs,
                                      solve_statistical_precoders_uni(assoc, want))

    def test_first_failing_stripe_in_stripe_order_is_raised(self, rng, monkeypatch, n_workers):
        # stripes 1 and 3 fail their guard, 3 first in time; every stripe runs
        ens, stripes, psi, w, power = self.pool(rng)
        assoc = association_from_stripes([(0,), (1,), (2,), (3,)], 4, 3)
        real, failed, swept = precoding._solve_hops, [], set()

        def solve_hops(*args):
            *_, stripe, positions = args
            if stripe in (1, 3):
                time.sleep(0.2 if stripe == 1 else 0)
                failed.append(stripe)
                raise SingularSweepError(stripe, positions[0], 0, 0.0)
            swept.add(stripe)
            return real(*args)

        monkeypatch.setattr(precoding, "_solve_hops", solve_hops)
        with pytest.raises(SingularSweepError) as err:
            fit_scheme("uni", ens, assoc, stripes, psi, w, power)
        # the backward sweep's first hop, the chain end, is guarded too
        assert (err.value.stripe, err.value.position) == (1, len(stripes[1]) - 1)
        if n_workers > 1:  # a serial fit stops at the failure
            assert failed == [3, 1] and swept == {0, 2}


class TestJointPhases:
    """fit_schemes and evaluate_states: a drop's fits as one map over uni's
    stripes and the sample blocks, its evaluations as one map over the
    blocks, each block forming a stripe's one-TX filters and scaled
    estimates once for the schemes that read them."""

    SHAPES = {"n1": (3, 3, 4, 1), "multi": (2, 3, 5, 2)}  # (Q, M, K, N); multi has K > 2N

    @staticmethod
    def problem(rng, Q, M, K, N):
        L, S = Q * M, 2 * SAMPLE_BLOCK + 30  # three sample blocks, the last one partial

        def pool():
            h = rng.standard_normal((S, K, N * L)) + 1j * rng.standard_normal((S, K, N * L))
            noise = rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
            wts = rng.random(S) + 0.5
            return Ensemble(h=h, h_hat=h + 0.3 * noise, weights=wts / wts.sum(), n_antennas=N)

        w = rng.random(K) + 0.3
        serving = [(q % Q, (q + 1) % Q) for q in range(K - 1)] + [(Q - 1,)]  # every stripe serves
        return (pool(), pool(), association_from_stripes(serving, Q, M), stripe_layout(Q, M),
                random_psd_stack(rng, L, N), w / w.sum(), 3.0)

    @staticmethod
    def assert_states_equal(got, want):
        assert type(got) is type(want) and got.scheme == want.scheme
        for field in ("coeffs", "coupling", "stripe_coeffs"):
            np.testing.assert_array_equal(getattr(got, field, None), getattr(want, field, None))
        for a, b in zip(getattr(got, "stripe_stats", ()), getattr(want, "stripe_stats", ())):
            np.testing.assert_array_equal(a.pi, b.pi)

    @staticmethod
    def assert_evaluations_equal(got, want):
        (m, mse), (m_want, mse_want) = got, want
        for field in ("mean_eff", "v", "b", "per_tx_power", "se_mean", "se_b"):
            np.testing.assert_array_equal(getattr(m, field), getattr(m_want, field))
        np.testing.assert_array_equal(mse, mse_want)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    def test_bitwise_equal_to_one_scheme_at_a_time(self, rng, monkeypatch, n, shape):
        monkeypatch.setattr(parallel, "workers", lambda: n)
        fit_pool, eval_pool, assoc, stripes, psi, w, power = self.problem(rng, *shape)
        states = fit_schemes(precoding.SCHEMES, fit_pool, assoc, stripes, psi, w, power)
        for state in states:
            self.assert_states_equal(state, fit_scheme(state.scheme, fit_pool, assoc, stripes,
                                                       psi, w, power))
        uni = states[precoding.SCHEMES.index("uni")]
        for q, st in enumerate(uni.stripe_stats):
            np.testing.assert_array_equal(
                st.pi, estimate_stripe_statistics(fit_pool, stripes[q], psi, w, power, q).pi)
        for state, got in zip(states, evaluate_states(eval_pool, states)):
            self.assert_evaluations_equal(got, evaluate(eval_pool, state))

    @pytest.mark.parametrize("schemes", [
        ("local-mmse", "no-share"), ("bi", "centralized"), ("uni",),
        tuple(reversed(precoding.SCHEMES)), ("no-share", "centralized", "local-mmse", "bi"),
    ])
    def test_subsets_and_orders_give_each_scheme_its_full_list_result(self, rng, schemes):
        fit_pool, eval_pool, assoc, stripes, psi, w, power = self.problem(rng, *self.SHAPES["n1"])
        full = fit_schemes(precoding.SCHEMES, fit_pool, assoc, stripes, psi, w, power)
        full = dict(zip(precoding.SCHEMES, zip(full, evaluate_states(eval_pool, full))))
        states = fit_schemes(schemes, fit_pool, assoc, stripes, psi, w, power)
        for scheme, state, got in zip(schemes, states, evaluate_states(eval_pool, states)):
            self.assert_states_equal(state, full[scheme][0])
            self.assert_evaluations_equal(got, full[scheme][1])

    def test_states_of_other_settings_read_their_own_filters(self, rng):
        # no-share under one P and local MMSE under another, evaluated jointly:
        # each reads the filters of its own setting
        fit_pool, eval_pool, assoc, stripes, psi, w, power = self.problem(rng, *self.SHAPES["n1"])
        states = [fit_scheme("no-share", fit_pool, assoc, stripes, psi, w, power),
                  fit_scheme("local-mmse", fit_pool, assoc, stripes, psi, w, 2 * power)]
        for state, got in zip(states, evaluate_states(eval_pool, states)):
            self.assert_evaluations_equal(got, evaluate(eval_pool, state))

    @staticmethod
    def failing_in_blocks(real, blocks, pool):
        """real(ensemble, ...), raising RuntimeError("block b") on the sample
        blocks b of pool listed in blocks (the later ones first in time)."""
        def call(ens, *args):
            for b in blocks:
                if ens.h[0, 0, 0] == pool.h[b * SAMPLE_BLOCK, 0, 0]:
                    time.sleep(0.1 * (b == min(blocks)))
                    raise RuntimeError(f"block {b}")
            return real(ens, *args)
        return call

    def test_a_failing_block_part_fails_only_its_scheme(self, rng, monkeypatch, n_workers):
        # local MMSE fails in blocks 1 and 2, no-share's block parts are fine
        # (they share the filters); uni fails on stripes 1 and 2
        fit_pool, eval_pool, assoc, stripes, psi, w, power = self.problem(rng, *self.SHAPES["n1"])
        want = fit_schemes(precoding.SCHEMES, fit_pool, assoc, stripes, psi, w, power)
        real_hops = precoding._solve_hops

        def solve_hops(*args):
            *_, stripe, positions = args
            if stripe in (1, 2):
                raise SingularSweepError(stripe, positions[0], 0, 0.0)
            return real_hops(*args)

        monkeypatch.setattr(precoding, "_local_mmse_part", self.failing_in_blocks(
            precoding._local_mmse_part, [1, 2], fit_pool))
        monkeypatch.setattr(precoding, "_solve_hops", solve_hops)
        got = fit_schemes(precoding.SCHEMES, fit_pool, assoc, stripes, psi, w, power)
        for scheme, state, ref in zip(precoding.SCHEMES, got, want):
            if scheme == "local-mmse":
                assert isinstance(state, RuntimeError) and str(state) == "block 1"
            elif scheme == "uni":
                assert isinstance(state, SingularSweepError) and state.stripe == 1
            else:
                self.assert_states_equal(state, ref)
        with pytest.raises(RuntimeError, match="^block 1$"):
            fit_scheme("local-mmse", fit_pool, assoc, stripes, psi, w, power)

    def test_a_failing_evaluation_block_fails_only_its_state(self, rng, monkeypatch, n_workers):
        # no-share's blocks raise after their first stripe in sample blocks 0
        # and 2, having taken that stripe's filters; local MMSE reads the same
        fit_pool, eval_pool, assoc, stripes, psi, w, power = self.problem(rng, *self.SHAPES["n1"])
        states = fit_schemes(precoding.SCHEMES, fit_pool, assoc, stripes, psi, w, power)
        want = evaluate_states(eval_pool, states)
        real = precoding.FilterState._filter_blocks

        def filter_blocks(self, ens, shared):
            blocks = real(self, ens, shared)
            yield next(blocks)
            if self.scheme == "no-share":
                TestJointPhases.failing_in_blocks(lambda ens: None, [0, 2], eval_pool)(ens)
            yield from blocks

        monkeypatch.setattr(precoding.FilterState, "_filter_blocks", filter_blocks)
        got = evaluate_states(eval_pool, states)
        for state, result, ref in zip(states, got, want):
            if state.scheme == "no-share":
                assert isinstance(result, RuntimeError) and str(result) == "block 0"
            else:
                self.assert_evaluations_equal(result, ref)

    def test_each_block_forms_a_stripes_filters_and_estimates_once(self, rng, monkeypatch):
        # per sample block and stripe: one plain local_filter call for no-share
        # and local MMSE together, one _scaled_estimate for bi and centralized
        # together; one scheme at a time makes each of them per scheme
        fit_pool, eval_pool, assoc, stripes, psi, w, power = self.problem(rng, *self.SHAPES["n1"])
        schemes = ("centralized", "bi", "no-share", "local-mmse")
        calls = {"local_filter": 0, "_scaled_estimate": 0}
        real_filter, real_estimate = local_filter, precoding._scaled_estimate

        def plain_filter(h_hat, psi, w, total_power, da=None):
            calls["local_filter"] += da is None
            return real_filter(h_hat, psi, w, total_power, da)

        def scaled_estimate(*args):
            calls["_scaled_estimate"] += 1
            return real_estimate(*args)

        monkeypatch.setattr(precoding, "local_filter", plain_filter)
        monkeypatch.setattr(precoding, "_scaled_estimate", scaled_estimate)
        blocks = len(parallel.sample_blocks(fit_pool.n_samples))
        states = fit_schemes(schemes, fit_pool, assoc, stripes, psi, w, power)
        assert calls == {"local_filter": blocks * len(stripes),
                         "_scaled_estimate": blocks * len(stripes)}
        calls.update(dict.fromkeys(calls, 0))
        evaluate_states(eval_pool, states)
        assert calls == {"local_filter": blocks * len(stripes),
                         "_scaled_estimate": blocks * len(stripes)}
        calls.update(dict.fromkeys(calls, 0))
        for state in states:
            evaluate(eval_pool, state)
        assert calls == {"local_filter": 2 * blocks * len(stripes),
                         "_scaled_estimate": 2 * blocks * len(stripes)}


class TestPsiValidation:
    """Psi and the total power are checked once per entry-point call, not
    inside local_filter: before a state exists (fit_scheme, the builders),
    by apply_scheme on the setting it is given, and by stripe_forward_pass."""

    @staticmethod
    def entry_points(h_hat, psi, w, total_power):
        # one TX serving both users; the state is fitted on a valid Psi and power
        n = h_hat.shape[-1]
        h = h_hat[None].astype(complex)
        ens = Ensemble(h=h, h_hat=h.copy(), weights=np.ones(1), n_antennas=n)
        assoc = association_from_stripes([(0,), (0,)], 1, 1)
        stripes = [[0]]
        state = fit_scheme("uni", ens, assoc, stripes, np.zeros((1, n, n)), w, 1.0)
        bad = psi[None]
        coeffs = state.stripe_coeffs
        return [
            lambda: fit_scheme("uni", ens, assoc, stripes, bad, w, total_power),
            lambda: apply_scheme(state, ens, assoc, stripes, bad, w, total_power),
            lambda: tmmse_unidirectional(ens, state.stripe_stats, coeffs, stripes, bad, w,
                                         total_power),
            lambda: tmmse_bidirectional(ens, coeffs, stripes, bad, w, total_power),
            lambda: centralized_mmse(ens, bad, w, total_power),
            lambda: stripe_forward_pass(
                h_hat, stripes[0], state.stripe_stats[0], state.stripe_coeffs[0],
                (0, 1), np.ones(2), np.ones(2), bad, w, total_power,
            ),
        ]

    def test_non_psd_psi_rejected(self):
        # a clearly negative eigenvalue, and one far beyond rounding but small
        for eig in (-1.0, -1e-6):
            for call in self.entry_points(np.ones((2, 1)), np.array([[eig]]), np.full(2, 0.5),
                                          1.0):
                with pytest.raises(ValueError, match="positive semidefinite"):
                    call()

    def test_non_hermitian_psi_rejected(self):
        psi = np.array([[0.1, 0.5], [0.0, 0.1]])
        for call in self.entry_points(np.ones((2, 2)), psi, np.full(2, 0.5), 1.0):
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_psi_rejected(self, n, bad):
        psi = np.eye(n, dtype=complex) * 0.1
        psi[-1, 0] = bad
        for call in self.entry_points(np.ones((2, n)), psi, np.full(2, 0.5), 1.0):
            with pytest.raises(ValueError, match="Psi must be finite"):
                call()

    @pytest.mark.parametrize("total_power", [0.0, -1.0, np.nan])
    def test_non_positive_power_rejected(self, total_power):
        calls = self.entry_points(np.ones((2, 1)), np.zeros((1, 1)), np.full(2, 0.5), total_power)
        for call in calls:
            with pytest.raises(ValueError, match="total power"):
                call()

    @pytest.mark.parametrize("scheme", precoding.SCHEMES)
    def test_apply_scheme_takes_only_the_states_setting(self, rng, scheme):
        # a valid Psi, w or P that the state was not fitted under is refused;
        # equal values in other containers are the state's own
        model, stripes, assoc, w, power = random_stripe_setup(rng, 2, 1, 2, "bi", max_points=16)
        ens, psi = exact_ensemble(model), model.psi_stack(w)
        state = fit_scheme(scheme, ens, assoc, stripes, psi, w, power)
        for setting in ((psi + 0.1, w, power), (psi, w + [0.05, -0.05], power),
                        (psi, w, 2 * power)):
            with pytest.raises(ValueError, match="fitted setting"):
                apply_scheme(state, ens, assoc, stripes, *setting)
        apply_scheme(state, ens, assoc, stripes, psi.copy(), list(w), float(power))


class TestStripeStatistics:
    def test_chain_end_base_case(self, rng):
        model, stripes, _, w, power = random_stripe_setup(rng, 1, 2, 2, "uni")
        stats = estimate_stripe_statistics(
            exact_ensemble(model), stripes[0], model.psi_stack(w), w, power
        )
        assert (stats.pi[-1] == 0).all()
        # with Pi_M = 0, V_M = I, so Pi_{M-1} = E[P_M V_M] is plain E[P_M]
        ens = exact_ensemble(model)
        l = stripes[0][-1]
        hl = ens.h_hat_block(l)
        t = local_filter(hl, model.psi_stack(w)[l], w, power)
        p_mean = np.einsum("s,sij->ij", ens.weights, np.sqrt(w)[None, :, None] * (hl @ t))
        np.testing.assert_allclose(stats.pi[-2], p_mean, atol=1e-12)

    @pytest.mark.parametrize("K,N", [(4, 1), (3, 2), (5, 2)])
    def test_chain_end_is_an_ordinary_hop(self, rng, K, N):
        # from Pi_M = 0 the chain end is guarded and solved like every hop, and
        # its T V is its local filter bit for bit: at N = 1, K <= 2N and K > 2N
        S, M = 20, 3
        txs = list(range(M))
        h = rng.standard_normal((S, K, N * M)) + 1j * rng.standard_normal((S, K, N * M))
        ens = Ensemble(h=h, h_hat=h.copy(), weights=np.full(S, 1 / S), n_antennas=N)
        psi, w, power = random_psd_stack(rng, M, N), np.full(K, 1 / K), 2.0
        stats = estimate_stripe_statistics(ens, txs, psi, w, power)
        assert (stats.pi[-1] == 0).all()
        for h_hat in (ens.h_hat, ens.h_hat[0]):  # a pool, and one realization
            *_, (_, tv) = precoding._uni_hops(h_hat, txs, stats, psi, w, power)
            t = precoding._tx_filters(h_hat, txs, psi, w, power)[0]
            np.testing.assert_array_equal(tv, t[..., -1, :, :])

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
        )
        coeffs = np.zeros((1, 2, 2), complex)
        coeffs[0] = np.eye(2)
        with pytest.raises(SingularSweepError) as err:
            tmmse_unidirectional(ens, [doctored], coeffs, stripes, psi, w, power)
        assert err.value.stripe == 0 and err.value.position == 0 and err.value.sample == 0

    def test_singular_sweep_reports_batched_coordinates(self, rng):
        # all positions of a stripe are solved and guarded in one batched
        # call; positions 1 (sample 2) and 2 (sample 1) of stripe 1 are
        # singular, position 1 is the first the forward product meets
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
        stats = [StripeStatistics(q, pi if q else np.zeros_like(pi)) for q in range(2)]
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


def hop_inputs(rng, S, K, N, M):
    """A Gaussian pool h_hat (S, K, N*M) of one run of M TXs, with Psi, w and P."""
    h = rng.standard_normal((S, K, N * M)) + 1j * rng.standard_normal((S, K, N * M))
    w = rng.random(K) + 0.3
    return h, random_psd_stack(rng, M, N), w / w.sum(), 2.0


def random_d(rng, *shape):
    return 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def solve_hops(h_hat, psi, w, power, d):
    """T V of _solve_hops on TXs 0..M-1, positions 0..M-1 of stripe 0."""
    return precoding._solve_hops(h_hat, range(len(psi)), psi, w, power, d, 0, range(len(psi)))[1]


def dense_system(h_hat, psi, w, power, d):
    """The dense reference of one run of hops: per sample and position, the
    local filter T (local_filter) and the K x K sweep system I - D A T."""
    h = tx_blocks(h_hat, psi.shape[-1])
    a, t = np.sqrt(w)[:, None] * h, local_filter(h, psi, w, power)
    return a, t, np.eye(len(w)) - d @ a @ t


def woodbury_bound(h_hat, psi, w, power, d):
    """1 / ((1 + |D|_F) (1 + |D A|_F |Z|_F)) <= rcond(I - D A T), Z the local
    filter against I - D: |P|_2 < 1 and (I - D A T)^-1 = I + D A Z."""
    a = np.sqrt(w)[:, None] * tx_blocks(h_hat, psi.shape[-1])
    z = local_filter(tx_blocks(h_hat, psi.shape[-1]), psi, w, power, d @ a)
    norm = lambda x: np.linalg.norm(x, axis=(-2, -1))  # noqa: E731
    return 1 / ((1 + norm(d)) * (1 + norm(d @ a) * norm(z)))


def dense_hops(h_hat, psi, w, power, d):
    """What _solve_hops must do, from the dense reference: raise at the first
    position whose _rcond(I - D A T) falls below the floor, naming its worst
    sample, else return T V = T (I - D A T)^-1 (I - D)."""
    _, t, x = dense_system(h_hat, psi, w, power, d)
    rcond = _rcond(x).reshape(-1, len(psi))
    failed = (rcond < RCOND_FLOOR).any(axis=0)
    if failed.any():
        i = int(np.argmax(failed))
        raise SingularSweepError(0, i, int(np.argmin(rcond[:, i])), float(rcond[:, i].min()))
    return t @ np.linalg.solve(x, np.eye(len(w)) - d)


def outcome(hops, *args):
    """("solved", T V), or the exception type and its details."""
    try:
        return "solved", hops(*args)
    except SingularSweepError as exc:
        return SingularSweepError, (exc.position, exc.sample, exc.rcond)
    except np.linalg.LinAlgError:
        return np.linalg.LinAlgError, None


def assert_same_outcome(*args, rtol=1e-8):
    """_solve_hops raises where the dense reference raises, naming the same
    position and sample and its rcond (within rounding: both carry errors
    near K eps absolute, ~1e-4 relative at the floor), and else agrees on T V,
    each sample's within rtol + 1e-14 / gap of its largest entry, where
    gap = sigma_min(X) / (1 + |I - X|_2), X = I - D A T, is the relative
    distance of X to a singular system (rcond is blind to it at K = 1)."""
    (kind, got), (want_kind, want) = outcome(solve_hops, *args), outcome(dense_hops, *args)
    assert kind == want_kind
    if kind == "solved":
        x = dense_system(*args)[2]
        gap = np.linalg.svd(x, compute_uv=False)[..., -1] / (
            1 + np.linalg.norm(np.eye(x.shape[-1]) - x, 2, axis=(-2, -1)))
        tol = (rtol + 1e-14 / gap[..., None, None]) * np.abs(want).max(axis=(-2, -1),
                                                                        keepdims=True)
        close = (np.abs(got - want) <= tol) | (np.isnan(got) & np.isnan(want))
        assert close.all(), f"{(~close).sum()} entries of T V differ"
    elif kind is SingularSweepError:
        assert got[:2] == want[:2]
        np.testing.assert_allclose(got[2], want[2], rtol=1e-3, atol=1e-15)
    return kind, got


def count_svds(monkeypatch):
    """(shape, result) of each stack that _rcond is called on from here on."""
    calls = []

    def rcond(x):
        calls.append((x.shape, _rcond(x)))
        return calls[-1][1]

    monkeypatch.setattr(precoding, "_rcond", rcond)
    return calls


def near_singular_d(a, t, eps):
    """Per-sample D (S, K, K) that puts an eigenvalue of I - D A T at eps:
    D = (1 - eps) I / lam, lam a nonzero eigenvalue of the rank-N P = A T."""
    lam = np.linalg.eigvals(a @ t)
    lam = np.take_along_axis(lam, np.abs(lam).argmax(axis=-1)[:, None], axis=-1)[:, 0]
    return (1 - eps) / lam[:, None, None] * np.eye(a.shape[-2])


class TestSweepGuard:
    """The stripe sweep's singularity guard, which _solve_hops runs on every
    hop, reports the rcond of the K x K system I - D A T, with T the local
    filter, wherever the screen does not clear a sample."""

    @pytest.mark.parametrize("K,N", [(10, 1), (3, 1), (2, 1), (6, 4), (5, 2), (1, 1)])
    def test_matches_dense_rcond(self, rng, monkeypatch, K, N):
        # with the floor at 1.5 no sample clears the screen (bound <= rcond
        # <= 1) and every sample fails: the exact path's rcond is the dense
        # one on every sample, and the error names position 0's worst sample
        S, M = 16, 3
        h_hat, psi, w, power = hop_inputs(rng, S, K, N, M)
        monkeypatch.setattr(precoding, "RCOND_FLOOR", 1.5)
        calls = count_svds(monkeypatch)
        for d in (random_d(rng, M, K, K), random_d(rng, K, K), np.zeros((K, K), complex)):
            calls.clear()
            with pytest.raises(SingularSweepError) as err:
                solve_hops(h_hat, psi, w, power, d)
            dense = _rcond(dense_system(h_hat, psi, w, power, d)[2])
            (shape, got), = calls
            assert shape == (S * M, K, K)
            np.testing.assert_allclose(got.reshape(S, M), dense, rtol=1e-10, atol=0)
            assert (err.value.position, err.value.sample) == (0, int(np.argmin(got[::M])))
            assert err.value.rcond == got[::M].min()

    @pytest.mark.parametrize("shape", [(3, 1, 4), (2, 5, 3, 2)])
    def test_frobenius_norms_of_any_layout(self, rng, shape):
        # a herm view has no contiguous last axis; at N = 1 the hop's Z is one
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for y in (x, herm(x), x[..., ::2, :]):
            np.testing.assert_allclose(precoding._frobenius2(y),
                                       np.linalg.norm(y, axis=(-2, -1)) ** 2, rtol=1e-14)

    @pytest.mark.parametrize("K", [10, 5, 2])
    def test_exactly_singular(self, rng, K):
        # rank-one P has its nonzero eigenvalue at tr(P): D = I / tr(P) of
        # sample 2 makes its I - D P singular, and the hop's own system too
        # (K = 1 is left out: a 1 x 1 system has rcond 1 unless it is exactly 0)
        h_hat, psi, w, power = hop_inputs(rng, 4, K, 1, 1)
        a, t, _ = dense_system(h_hat, psi, w, power, np.zeros((K, K)))
        d = np.eye(K) / np.trace(a[2, 0] @ t[2, 0])
        kind, got = assert_same_outcome(h_hat, psi, w, power, d)
        assert kind is SingularSweepError and got[:2] == (0, 2) and got[2] < RCOND_FLOOR

    def test_near_singular_matches_dense(self, rng):
        # D = (1 - eps) I / tr(A T) puts an eigenvalue of I - D A T at eps: the
        # one N x N system tracks the dense T V down to the singular system
        K = 10
        h_hat, psi, w, power = hop_inputs(rng, 1, K, 1, 1)
        a, t, _ = dense_system(h_hat, psi, w, power, np.zeros((K, K)))
        for eps in (1e-6, 0.0):
            d = (1 - eps) * np.eye(K) / np.trace(a[0, 0] @ t[0, 0])
            kind, _ = assert_same_outcome(h_hat, psi, w, power, d, rtol=1e-8)
            assert kind == ("solved" if eps else SingularSweepError)


class TestScreenedGuard:
    """_solve_hops screens its guard with 1 / ((1 + |D|_F) (1 + |D A|_F |Z|_F))
    <= rcond, from the norms of its own system, and takes the dense rcond only
    where that bound is below twice the floor, so it raises exactly where a
    dense guard of every sample raises."""

    SHAPES = [(6, 4), (4, 2), (2, 1), (7, 2), (10, 3)]  # K <= 2N, then K > 2N

    @pytest.mark.parametrize("K,N", SHAPES)
    def test_bound_is_a_lower_bound_on_the_exact_rcond(self, rng, monkeypatch, K, N):
        # bound <= rcond, a lower bound and no upper one, on random and
        # near-singular per-sample D; the samples the bound cannot clear, and
        # only those, get the dense rcond
        S = 64
        h_hat, psi, w, power = hop_inputs(rng, S, K, N, 1)
        a, t, _ = dense_system(h_hat, psi, w, power, np.zeros((K, K)))
        calls = count_svds(monkeypatch)
        for d in (random_d(rng, S, 1, K, K),
                  *(near_singular_d(a[:, 0], t[:, 0], eps)[:, None]
                    for eps in (1e-3, 1e-8, 1e-11, 1e-13))):
            calls.clear()
            dense = _rcond(dense_system(h_hat, psi, w, power, d)[2])
            bound = woodbury_bound(h_hat, psi, w, power, d)
            # both sides carry rounding errors near eps / rcond
            assert (bound <= dense * (1 + 1e-3) + 1e-15).all()
            kind, _ = assert_same_outcome(h_hat, psi, w, power, d)
            screened = bound < 2 * RCOND_FLOOR
            if screened.any():
                (shape, got), = calls
                assert shape == (screened.sum(), K, K)
                np.testing.assert_allclose(got, dense[screened], rtol=1e-3)
            else:
                assert calls == [] and kind == "solved"

    @pytest.mark.parametrize("K,N", SHAPES)
    def test_raises_exactly_where_the_exact_guard_raises(self, rng, K, N):
        # one position (2 of 4) near-singular at one sample (5 of 9), just
        # above and just below the floor; position 3 below it at another
        # sample, so the first failing position is the one named
        S, M, position, sample = 9, 4, 2, 5
        h_hat, psi, w, power = hop_inputs(rng, S, K, N, M)
        a, t, _ = dense_system(h_hat, psi, w, power, np.zeros((K, K)))

        def d_at(eps):
            d = 0.05 * np.tile(np.eye(K, dtype=complex), (M, 1, 1))
            d[position] = near_singular_d(a[sample, position][None], t[sample, position][None],
                                          eps)[0]
            return d

        def rcond(d):  # the dense rcond of the near-singular sample
            return _rcond(dense_system(h_hat, psi, w, power, d)[2][sample, position])

        # rcond is linear in eps near the singular system: aim at 0.5, 0.9,
        # 1.1 and 2 times the floor from its slope at eps = 1e-6
        slope = rcond(d_at(1e-6)) / 1e-6
        raised = []
        for factor in (0.5, 0.9, 1.1, 2.0):
            d = d_at(factor * RCOND_FLOOR / slope)
            assert (rcond(d) < RCOND_FLOOR) == (factor < 1)
            kind, got = assert_same_outcome(h_hat, psi, w, power, d)
            raised.append(kind is SingularSweepError)
            if factor < 1:
                assert got[:2] == (position, sample)
            d[position + 1] = near_singular_d(a[0, position + 1][None],
                                              t[0, position + 1][None], 0.0)[0]
            kind, got = assert_same_outcome(h_hat, psi, w, power, d)
            assert got[0] == (position if factor < 1 else position + 1)
        assert raised == [True, True, False, False]

    def test_exactly_singular_sample_takes_the_svd_of_the_whole_batch(self, rng, monkeypatch):
        # K = N = 2 with Hhat = I, w = 1, Psi = 0, P = 2 and D = 1.5 I: at
        # sample 3 the hop's system I + I/2 - 1.5 I is the zero matrix, solve
        # raises, and every sample takes the dense guard in one _rcond call
        S, K = 6, 2
        h_hat, _, _, power = hop_inputs(rng, S, K, K, 1)
        h_hat[3], psi, w = np.eye(K), np.zeros((1, K, K)), np.ones(K)
        d = 1.5 * np.eye(K)
        with pytest.raises(np.linalg.LinAlgError):
            local_filter(h_hat[3], psi[0], w, power, d @ h_hat[3])
        calls = count_svds(monkeypatch)
        kind, got = assert_same_outcome(h_hat, psi, w, power, d)
        assert (kind, got) == (SingularSweepError, (0, 3, 0.0))
        assert [shape for shape, _ in calls] == [(S, K, K)]

    @pytest.mark.parametrize("K,N", SHAPES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_behaves_as_the_exact_guard(self, rng, K, N, bad):
        h_hat, psi, w, power = hop_inputs(rng, 8, K, N, 1)
        h_hat[2, 0, 0] = bad
        with np.errstate(invalid="ignore"):
            assert_same_outcome(h_hat, psi, w, power, random_d(rng, K, K))

    @pytest.mark.parametrize("K,N", SHAPES)
    def test_chain_end_takes_no_svd(self, rng, monkeypatch, K, N):
        # from Pi_M = 0 the bound is 1 and clears every sample; a one-TX
        # stripe's sweep is its chain end alone
        S = 30
        h = rng.standard_normal((S, K, N)) + 1j * rng.standard_normal((S, K, N))
        ens = Ensemble(h=h, h_hat=h.copy(), weights=np.full(S, 1 / S), n_antennas=N)
        psi, w, power = random_psd_stack(rng, 1, N), np.full(K, 1 / K), 2.0
        calls = count_svds(monkeypatch)
        stats = estimate_stripe_statistics(ens, [0], psi, w, power)
        (_, tv), = precoding._uni_hops(ens.h_hat, [0], stats, psi, w, power)
        assert calls == []
        t = precoding._tx_filters(ens.h_hat, [0], psi, w, power)[0]
        np.testing.assert_array_equal(tv, t[:, 0])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(shape=st.sampled_from([(1, 1), (2, 1), (3, 1), (10, 1), (6, 4), (4, 2), (5, 2), (7, 2),
                              (10, 3)]),
       eps=st.sampled_from([None, 1e-2, 1e-8, 1e-11, 1e-13, 0.0]),
       seed=st.integers(0, 2**32 - 1))
def test_solve_hops_agrees_with_the_dense_guard(shape, eps, seed):
    # N = 1, K <= 2N and K > 2N; random D per position, or one position's D
    # put near singular at one sample (eps = 0: singular); the bound never
    # exceeds the dense rcond, and _solve_hops raises (position, sample,
    # rcond) or solves exactly as the dense reference does
    (K, N), S, M = shape, 5, 3
    rng = np.random.default_rng(seed)
    h_hat, psi, w, power = hop_inputs(rng, S, K, N, M)
    a, t, _ = dense_system(h_hat, psi, w, power, np.zeros((K, K)))
    d = random_d(rng, M, K, K)
    if eps is not None:
        s, m = rng.integers(S), rng.integers(M)
        d[m] = near_singular_d(a[s, m][None], t[s, m][None], eps)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        dense = _rcond(dense_system(h_hat, psi, w, power, d)[2])
        # a sample within rounding of the floor may fall on either side of it
        assume(not (np.abs(dense / RCOND_FLOOR - 1) < 1e-2).any())
        bound = woodbury_bound(h_hat, psi, w, power, d)
        assert not (bound > dense * (1 + 1e-3) + 1e-15).any()
        kind, _ = assert_same_outcome(h_hat, psi, w, power, d, rtol=1e-6)
    event(f"K={K} N={N}: {getattr(kind, '__name__', kind)}")


class TestDenseUniReference:
    """uni's statistics and precoders against a dense per-realization
    reference on Gaussian pools: P_m = A_m T_m and
    V_m = (I - Pi_{m+1} P_m)^-1 (I - Pi_{m+1}) formed as K x K matrices,
    Pi_{m-1} = Pi_m + (I - Pi_m) E[P_m V_m], and the precoders of an explicit
    forward product t_m = T_m V_m Vbar_{m-1} ... Vbar_1 c, Vbar = I - P V."""

    @staticmethod
    def hops(h_hat, l, pi_next, psi, w, power):
        """T, P and V of TX l against the downstream response pi_next."""
        eye, n = np.eye(len(w)), psi.shape[-1]
        hl = h_hat[..., l * n : (l + 1) * n]
        t = local_filter(hl, psi[l], w, power)
        p = np.sqrt(w)[:, None] * (hl @ t)
        return t, p, np.linalg.solve(eye - pi_next @ p, np.broadcast_to(eye - pi_next, p.shape))

    def statistics(self, ens, txs, psi, w, power):
        eye = np.eye(len(w))
        pi = [np.zeros_like(eye, complex)]
        for l in reversed(txs):
            _, p, v = self.hops(ens.h_hat, l, pi[-1], psi, w, power)
            pi.append(pi[-1] + (eye - pi[-1]) @ np.tensordot(ens.weights, p @ v, 1))
        return np.array(pi[::-1])

    def precoders(self, ens, txs, pi, c, psi, w, power):
        u, rows = np.broadcast_to(c, (ens.n_samples, *c.shape)), []
        for m, l in enumerate(txs):
            t, p, v = self.hops(ens.h_hat, l, pi[m + 1], psi, w, power)
            rows.append(t @ v @ u)
            u = u - p @ v @ u
        return np.concatenate(rows, axis=-2)

    @pytest.mark.parametrize("Q,M,K,N", [(2, 20, 10, 1), (3, 8, 6, 4), (2, 4, 7, 2)])
    def test_statistics_and_apply_match(self, rng, Q, M, K, N):
        # the iiot shape (M = 20, K = 10, N = 1), the desk shape (M = 8,
        # K = 6, N = 4) and K > 2N at N = 2; per-(user, TX) gains over two
        # decades, estimation errors, and random serving stripes per user
        S, L = 200, Q * M
        gain = np.repeat(10 ** rng.uniform(-1, 1, (K, L)), N, axis=1)
        h = np.sqrt(gain) * (rng.standard_normal((S, K, N * L))
                             + 1j * rng.standard_normal((S, K, N * L)))
        h_hat = h + 0.2 * np.sqrt(gain) * (rng.standard_normal(h.shape)
                                           + 1j * rng.standard_normal(h.shape))
        ens = Ensemble(h=h, h_hat=h_hat, weights=np.full(S, 1 / S), n_antennas=N)
        psi, w, power = random_psd_stack(rng, L, N, 0.05), rng.random(K) + 0.2, 10.0
        w /= w.sum()
        stripes = stripe_layout(Q, M)
        assoc = association_from_stripes(
            [tuple(rng.choice(Q, rng.integers(1, Q + 1), replace=False)) for _ in range(K)],
            Q, M)
        state = fit_scheme("uni", ens, assoc, stripes, psi, w, power)
        want = np.zeros((S, N * L, K), complex)
        for q, txs in enumerate(stripes):
            pi = self.statistics(ens, txs, psi, w, power)
            np.testing.assert_allclose(state.stripe_stats[q].pi, pi, rtol=0,
                                       atol=1e-10 * np.abs(pi).max())
            want[:, txs[0] * N : (txs[-1] + 1) * N] = self.precoders(
                ens, txs, pi, state.stripe_coeffs[q], psi, w, power)
        got = apply_scheme(state, ens, assoc, stripes, psi, w, power)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())


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
        coeffs = _solve_coefficient_columns(pi, [(0, 1)] * 3)
        np.testing.assert_allclose(coeffs[0], np.eye(3), atol=1e-12)
        np.testing.assert_allclose(coeffs[1], np.eye(3), atol=1e-12)

    def test_matches_dense_block_solve(self, rng):
        K = 3
        pi = 0.3 * (rng.standard_normal((2, K, K)) + 1j * rng.standard_normal((2, K, K)))
        coeffs = _solve_coefficient_columns(pi, [(0, 1)] * K)
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
        coeffs = _solve_coefficient_columns(pi, [(0, 1)] * K)
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
        coeffs = _solve_coefficient_columns(pi, serving)
        for k, units in enumerate(serving):
            a = np.block([[np.eye(K) if i == j else pi[j] for j in units] for i in units])
            x = np.linalg.solve(a, np.tile(np.eye(K)[:, k], len(units)))
            for row, u in enumerate(units):
                np.testing.assert_allclose(coeffs[u][:, k], x[row * K : (row + 1) * K], atol=1e-10)
            for u in set(range(4)) - set(units):
                assert (coeffs[u][:, k] == 0).all()

    def test_unit_serving_nobody_drops_out(self, rng):
        # unit 1 has Pi = I, so I - Pi_1 is singular, but it serves nobody:
        # the solve returns, unit 1's coefficients are zero and the others are
        # those of the problem without unit 1
        K = 3
        pi = 0.3 * (rng.standard_normal((3, K, K)) + 1j * rng.standard_normal((3, K, K)))
        pi[1] = np.eye(K)
        coeffs = _solve_coefficient_columns(pi, [(0, 2), (2,), (0, 2)])
        assert (coeffs[1] == 0).all()
        want = _solve_coefficient_columns(pi[[0, 2]], [(0, 1), (1,), (0, 1)])
        np.testing.assert_allclose(coeffs[[0, 2]], want, rtol=1e-12)

    def test_singular_coupling_sum_raises(self):
        # Pi_0 = Pi_1 = -I: I + sum_j Pi_j (I - Pi_j)^-1 = 0, the block system is singular
        pi = np.stack([-np.eye(2, dtype=complex)] * 2)
        with pytest.raises(SingularCoefficientSystem) as err:
            _solve_coefficient_columns(pi, [(0, 1)] * 2)
        assert err.value.user in (0, 1)

    def test_singular_unit_factor_raises(self):
        # Pi_0 = I makes I - Pi_0 singular for the user unit 0 serves
        pi = np.stack([np.eye(2, dtype=complex), np.zeros((2, 2), complex)])
        with pytest.raises(SingularCoefficientSystem) as err:
            _solve_coefficient_columns(pi, [(1,), (0, 1)])
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
        # the hand-written per-realization Pbar sweep of the paper is the
        # reference for both bi stages, which take the unit kernel on each
        # stripe; the shapes put N*M on both sides of K
        for Q, M, K, N in ((2, 2, 2, 1), (2, 3, 2, 1), (1, 2, 4, 2), (1, 2, 3, 2)):
            self._check_plain_sweep(*random_stripe_setup(rng, Q, M, K, "bi", n_antennas=N))

    @staticmethod
    def _check_plain_sweep(model, stripes, assoc, w, power):
        K, N = model.num_users, model.n_antennas
        psi = model.psi_stack(w)
        ens = exact_ensemble(model)
        eye_coeffs = np.stack([np.eye(K, dtype=complex)] * len(stripes))
        bi = tmmse_bidirectional(ens, eye_coeffs, stripes, psi, w, power)
        coupling = fit_scheme("bi", ens, assoc, stripes, psi, w, power).coupling
        # with c = e_k the per-user output is the pure per-realization sweep
        for q, txs in enumerate(stripes):
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
            np.testing.assert_allclose(coupling[q], np.einsum("s,sij->ij", ens.weights, pbar),
                                       rtol=1e-9, atol=1e-11)
            prefix = np.broadcast_to(np.eye(K), (ens.n_samples, K, K)).astype(complex)
            for m, l in enumerate(txs, start=1):
                np.testing.assert_allclose(
                    bi[:, l * N : (l + 1) * N, :], ts[m - 1] @ v_list[m - 1] @ prefix, atol=1e-9
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


class TestNoShareUnits:
    """no-share as F_u c_u on one-TX units equals the route it replaced: the
    stripe recursion (uni) on one-TX stripes, coupled over the serving TXs."""

    @staticmethod
    def _check(ens, assoc, stripes, psi, w, power):
        singletons = dataclasses.replace(assoc, serving_stripes=assoc.serving_txs)
        units = [[l] for l in range(ens.num_txs)]
        new = fit_scheme("no-share", ens, assoc, stripes, psi, w, power)
        ref = fit_scheme("uni", ens, singletons, units, psi, w, power)
        pairs = list(zip(new.dump_matrices(), ref.dump_matrices(), strict=True))
        assert len(pairs) == 2 * ens.num_txs  # coupling, then coefficients, per TX
        pairs.append((apply_scheme(new, ens, assoc, stripes, psi, w, power),
                      apply_scheme(ref, ens, assoc, units, psi, w, power)))
        for a, b in pairs:
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())

    @pytest.mark.parametrize("n_antennas", [1, 2])
    def test_finite_model_with_errors(self, rng, n_antennas):
        model, stripes, assoc, w, power = random_stripe_setup(
            rng, 2, 2, 3, "no-share", n_antennas=n_antennas)
        assert np.abs(model.psi_stack(w)).max() > 1e-3
        self._check(model.ensemble(), assoc, stripes, model.psi_stack(w), w, power)

    def test_monte_carlo_pool(self, rng):
        S, K, N, Q, M = 64, 3, 2, 2, 3
        shape = (S, K, N * Q * M)
        h_hat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h = h_hat + 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        ens = Ensemble(h=h, h_hat=h_hat, weights=np.full(S, 1 / S), n_antennas=N)
        w = np.array([0.5, 0.3, 0.2])
        self._check(ens, random_association(rng, Q, M, K), stripe_layout(Q, M),
                    random_psd_stack(rng, Q * M, N, scale=0.05), w, 3.0)


class TestLocalMmseBaseline:
    @staticmethod
    def coefficients(ens, assoc, stripes, psi, w, power):
        """The scalars c_{l,k} (L, K) on the diagonals of the fitted state's c_l."""
        return np.einsum("lkk->lk", fit_scheme("local-mmse", ens, assoc, stripes, psi, w,
                                               power).coeffs)

    def test_single_serving_tx_unit_coefficient(self, rng):
        model, stripes, _, w, power = random_stripe_setup(rng, 2, 1, 2, "no-share")
        assoc = association_from_stripes([(0,), (1,)], 2, 1)
        coefs = self.coefficients(exact_ensemble(model), assoc, stripes, model.psi_stack(w), w,
                                  power)
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
            coefs = self.coefficients(model.ensemble(), assoc, [[0], [1]], model.psi_stack(w), w,
                                      2.0)
        assert coefs[0, 0] == 1.0

    @pytest.mark.parametrize("n_antennas", [1, 2])
    def test_blocked_sums_match_the_whole_pool_normal_equations(self, rng, n_antennas):
        # a pool of three sample blocks, the last one partial, with unequal weights
        S, K, N, Q, M = 2 * SAMPLE_BLOCK + 100, 3, n_antennas, 2, 2
        shape = (S, K, N * Q * M)
        h_hat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h = h_hat + 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        wts = rng.random(S) + 0.5
        ens = Ensemble(h=h, h_hat=h_hat, weights=wts / wts.sum(), n_antennas=N)
        psi = random_psd_stack(rng, Q * M, N, scale=0.05)
        w, power = np.array([0.5, 0.3, 0.2]), 3.0
        assoc = random_association(rng, Q, M, K)
        coeffs = self.coefficients(ens, assoc, stripe_layout(Q, M), psi, w, power)
        # min over c of E[ sum_i w_i |sum_l c_l g_i^H T_l e_k - delta_ik|^2
        #                  + sum_l |c_l|^2 ||T_l e_k||^2 / P ]
        t = local_filter(tx_blocks(h_hat, N), psi, w, power)  # (S, L, N, K)
        for k, txs in enumerate(assoc.serving_txs):
            txs = list(txs)
            t_k = t[..., k][:, txs]  # (S, n_serving, N): T_l e_k
            e = np.einsum("slin,sln->sil", tx_blocks(h, N)[:, txs], t_k)  # g_i^H T_l e_k
            gram = np.einsum("s,i,sia,sib->ab", ens.weights, w, e.conj(), e)
            reg = np.einsum("s,sln->l", ens.weights, np.abs(t_k) ** 2) / power
            rhs = np.sqrt(w[k]) * np.einsum("s,sl->l", ens.weights, e[:, k].conj())
            c = np.linalg.solve(gram + np.diag(reg), rhs)
            np.testing.assert_allclose(coeffs[txs, k], c, rtol=1e-12)
            assert not coeffs[[l for l in range(Q * M) if l not in txs], k].any()

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
    def _setup(self, rng, num_users=3, n_antennas=1):
        model, stripes, assoc, w, power = random_stripe_setup(
            rng, 2, 3, num_users, "uni", max_points=64, n_antennas=n_antennas
        )
        psi = model.psi_stack(w)
        ens = exact_ensemble(model)
        state = fit_scheme("uni", ens, assoc, stripes, psi, w, power)
        stack = apply_scheme(state, ens, assoc, stripes, psi, w, power)
        return model, stripes, assoc, w, power, psi, ens, state, stack

    def test_superposition_identity(self, rng):
        # N = 1 (scalar hop solves), then N = 2 with K <= 2N and K > 2N
        for num_users, n in ((3, 1), (3, 2), (5, 2)):
            model, stripes, assoc, w, power, psi, ens, state, stack = self._setup(
                rng, num_users, n)
            powers = rng.random(num_users) + 0.2
            messages = rng.standard_normal(num_users) + 1j * rng.standard_normal(num_users)
            for s in range(0, ens.n_samples, max(ens.n_samples // 3, 1)):
                for q, txs in enumerate(stripes):
                    xs, payload = stripe_forward_pass(
                        ens.h_hat[s], txs, state.stripe_stats[q], state.stripe_coeffs[q],
                        assoc.stripe_users(q), messages, powers, psi, w, power,
                    )
                    assert payload == num_users
                    for m, l in enumerate(txs):
                        expected = sum(
                            np.sqrt(powers[k]) * stack[s, l * n : (l + 1) * n, k] * messages[k]
                            for k in range(num_users)
                        )
                        np.testing.assert_allclose(xs[m], expected, rtol=1e-10, atol=1e-13)

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
        # every TX (Psi != 0); the unit kernel of all TXs, with N*L on both
        # sides of K
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
