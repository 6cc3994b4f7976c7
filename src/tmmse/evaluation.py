"""Rate evaluation: MSE criterion, duality power allocation, hardening bound.

The design criterion is the weighted regularized MSE
E[ ||W^1/2 H t_k - e_k||^2 + ||t_k||^2 / P ]; the achievable downlink rate
under a sum power constraint is log(1/MSE) for the minimizing precoders.
The downlink power vector p realizing those rates solves the K x K linear
system that makes every hardening-bound SINR hit its dual target
gamma_k = 1/MSE_k - 1.  A symmetric per-TX constraint is handled by the
scaling factor nu^2 = max(1, max_l E||x_l||^2 / P_l), which enters the SINR
denominator as extra noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InfeasiblePowerError(RuntimeError):
    """The duality system produced negative powers (or was singular)."""

    def __init__(self, users, detail=""):
        self.users = list(users)
        super().__init__(
            f"infeasible downlink power allocation for users {self.users}"
            + (f": {detail}" if detail else "")
        )


@dataclass
class MomentEstimates:
    """Moments of the effective channels g_k^H t_j over an evaluation pool.

    a[k] = |E[g_k^H t_k]|^2 is the coherent signal power, v[k] its variance
    (hardening loss), b[k, j] = E[|g_k^H t_j|^2] the power received at user
    k from stream j.  per_tx_power[l, k] = E||t_{l,k}||^2 drives the per-TX
    constraint accounting.  Standard errors use the effective sample size
    of the ensemble weights (zero MC error on exact finite supports is
    reflected by tiny dispersion, not by the weights).
    """

    mean_eff: np.ndarray  # (K,) complex
    a: np.ndarray  # (K,)
    v: np.ndarray  # (K,)
    b: np.ndarray  # (K, K)
    per_tx_power: np.ndarray  # (L, K)
    tk_power: np.ndarray  # (K,)
    se_mean: np.ndarray  # (K,)
    se_b: np.ndarray  # (K, K)

    @property
    def num_users(self):
        return self.a.shape[0]


def estimate_moments(ensemble, precoders):
    """Weighted moments of g_k^H t_j; exact sums on finite-support ensembles."""
    if ensemble.n_samples < 1:
        raise ValueError("empty evaluation pool")
    wts = ensemble.weights
    z = ensemble.h @ precoders  # (S, K, K); z[s, k, j] = g_k^H t_j
    diag = np.einsum("skk->sk", z)
    mean_eff = np.einsum("s,sk->k", wts, diag)
    b = np.einsum("s,skj->kj", wts, np.abs(z) ** 2)
    a = np.abs(mean_eff) ** 2
    v = np.maximum(np.real(np.diag(b)) - a, 0.0)
    n = ensemble.n_antennas
    L = ensemble.num_txs
    blocks = precoders.reshape(ensemble.n_samples, L, n, -1)
    per_tx = np.einsum("s,slnk->lk", wts, np.abs(blocks) ** 2)
    ess = 1.0 / np.sum(wts**2)
    se_mean = np.sqrt(
        np.einsum("s,sk->k", wts, np.abs(diag - mean_eff[None, :]) ** 2) / ess
    )
    se_b = np.sqrt(
        np.einsum("s,skj->kj", wts, (np.abs(z) ** 2 - b[None, :, :]) ** 2) / ess
    )
    return MomentEstimates(
        mean_eff=mean_eff,
        a=a,
        v=v,
        b=b,
        per_tx_power=per_tx,
        tk_power=per_tx.sum(axis=0),
        se_mean=se_mean,
        se_b=se_b,
    )


def mse_samples(ensemble, precoders, w, total_power):
    """Per-sample MSE contributions (S, K); their weighted mean is the MSE."""
    z = ensemble.h @ precoders  # (S, K, K)
    err = np.sqrt(w)[None, :, None] * z - np.eye(ensemble.num_users)[None, :, :]
    fit = np.einsum("skj->sj", np.abs(err) ** 2)
    reg = np.einsum("snk->sk", np.abs(precoders) ** 2) / total_power
    return fit + reg


def compute_mse(ensemble, precoders, w, total_power):
    """MSE_k = E[ ||W^1/2 H t_k - e_k||^2 + ||t_k||^2 / P ] per user."""
    if ensemble.n_samples < 1:
        raise ValueError("empty evaluation pool")
    return ensemble.weights @ mse_samples(ensemble, precoders, w, total_power)


def dual_sinr_targets(mse):
    """gamma_k = max(0, 1/MSE_k - 1); degenerate precoders (MSE >= 1) get 0."""
    mse = np.asarray(mse, dtype=float)
    if (mse <= 0).any():
        raise ValueError("MSE must be positive")
    return np.maximum(1.0 / mse - 1.0, 0.0)


def duality_power_allocation(moments, gamma, clamp_negative=False):
    """Powers p solving SINR_k(p) = gamma_k exactly.

    The system is p_k a_k - gamma_k p_k v_k - gamma_k sum_{j!=k} p_j b_kj
    = gamma_k.  Monte Carlo noise can push entries negative; by default
    that raises, with clamp_negative=True the offending users are pinned to
    zero power and the reduced system is re-solved.
    """
    gamma = np.asarray(gamma, dtype=float)
    K = moments.num_users
    active = [k for k in range(K) if gamma[k] > 0]  # zero target -> zero power
    p = np.zeros(K)
    clamped = []
    while active:
        idx = np.array(active, dtype=int)
        m = np.diag(moments.a[idx] - gamma[idx] * moments.v[idx])
        off = -gamma[idx, None] * moments.b[np.ix_(idx, idx)]
        off[np.diag_indices(len(idx))] = 0.0
        system = m + np.real(off)
        cond = np.linalg.cond(system)
        if not np.isfinite(cond) or 1.0 / cond < 1e-14:
            raise InfeasiblePowerError(active, f"singular duality system (cond={cond:.3e})")
        sol = np.linalg.solve(system, gamma[idx])
        neg = [active[i] for i in range(len(idx)) if sol[i] < 0]
        if not neg:
            p[idx] = sol
            return p, clamped
        if not clamp_negative:
            raise InfeasiblePowerError(neg)
        clamped.extend(neg)
        active = [k for k in active if k not in neg]
    return p, clamped


def per_tx_scaling(expected_tx_power, tx_budgets):
    """nu^2 = max(1, E||x_1||^2 / P_1, ..., E||x_L||^2 / P_L)."""
    expected = np.asarray(expected_tx_power, dtype=float)
    budgets = np.asarray(tx_budgets, dtype=float)
    if (budgets <= 0).any():
        raise ValueError("per-TX budgets must be positive")
    return float(max(1.0, np.max(expected / budgets)))


def hardening_rates(moments, p, nu2=1.0, units="bits"):
    """R_k = log(1 + p_k a_k / (p_k v_k + sum_{j!=k} p_j b_kj + nu^2)).

    nu^2 = 1 is the sum-power case; larger values model the SNR loss of the
    per-TX down-scaling.  Units: bits (log2, default) or nats.
    """
    p = np.asarray(p, dtype=float)
    if (p < 0).any() or nu2 < 1.0:
        raise ValueError("need p >= 0 and nu2 >= 1")
    interference = moments.b.real @ p - p * moments.b.real.diagonal() + p * moments.v
    sinr = p * moments.a / (interference + nu2)
    log = np.log2 if units == "bits" else np.log
    return log(1.0 + sinr)


@dataclass
class PowerSolution:
    """Resolved power allocation of one (scheme, constraint mode) pair."""

    mode: str  # "sum" | "per-tx"
    p: np.ndarray  # (K,) mW
    gamma: np.ndarray  # (K,)
    nu2: float
    expected_tx_power: np.ndarray  # (L,)
    sum_power: float
    clamped_users: list

    def to_dict(self):
        return {
            "mode": self.mode,
            "p_mw": self.p.tolist(),
            "gamma": self.gamma.tolist(),
            "nu2": self.nu2,
            "expected_tx_power_mw": self.expected_tx_power.tolist(),
            "sum_power_mw": self.sum_power,
            "clamped_users": list(self.clamped_users),
        }


def allocate(moments, mse, mode, tx_budgets, clamp_negative=False, units="bits"):
    """Full allocation pipeline for one scheme: targets, powers, scaling, rates."""
    gamma = dual_sinr_targets(mse)
    p, clamped = duality_power_allocation(moments, gamma, clamp_negative=clamp_negative)
    expected_tx = moments.per_tx_power @ p  # (L,)
    if mode == "per-tx":
        nu2 = per_tx_scaling(expected_tx, tx_budgets)
    elif mode == "sum":
        nu2 = 1.0
    else:
        raise ValueError(f"unknown power mode {mode!r}")
    rates = hardening_rates(moments, p, nu2=nu2, units=units)
    solution = PowerSolution(
        mode=mode,
        p=p,
        gamma=gamma,
        nu2=nu2,
        expected_tx_power=expected_tx,
        sum_power=float(p @ moments.tk_power),
        clamped_users=clamped,
    )
    return rates, solution
