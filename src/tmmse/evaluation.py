"""Rate evaluation: MSE criterion, duality power allocation, hardening bound.

The design criterion is the weighted regularized MSE
E[ ||W^1/2 H t_k - e_k||^2 + ||t_k||^2 / P ]; the achievable downlink rate
under a sum power constraint is log(1/MSE) for the minimizing precoders.
The downlink power vector p realizing those rates solves the K x K linear
system that makes every hardening-bound SINR hit its dual target
gamma_k = 1/MSE_k - 1.  A symmetric per-TX constraint is handled by the
scaling factor nu^2 = max(1, max_l E||x_l||^2 / P_l), which enters the SINR
denominator as extra noise.

Every quantity the allocation reads is a pool mean of a function of
z = H t (S, K, K), z = sum_q H_q X_q over a state's stripe blocks: E[z_kk],
E|z_kj|^2 (and E|z_kj|^4 for its standard error), the per-TX powers and
the MSE.  So, as in the fit, each is a sum over the pool's sample blocks.
evaluate_states runs every state of a drop in one map on the thread pool of
parallel.map_blocks: each block task forms a state's z one stripe block at
a time and reduces it at once to that state's weighted block sums; the
states that read a stripe's filters or scaled estimates take one copy per
block.  A state's block sums are added in block order, so the result does
not depend on the number of threads, nor on which other states share the
map.  evaluate is the one-state call.  estimate_moments is the same sums
on a whole precoder stack as one block; mse_samples and compute_mse take
the MSE of a stack per sample and its mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .parallel import first_failure, map_blocks, shared_pass, unwrap


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
    constraint accounting.  Every field is built from the pool's weighted
    sums, E[z_kk], E|z_kj|^2 and E|z_kj|^4 and the per-TX powers: se_mean
    = sqrt(v * sum w^2) and se_b = sqrt((E|z_kj|^4 - b^2) * sum w^2), the
    standard errors under the effective sample size 1 / sum w^2 of the
    ensemble weights (zero MC error on exact finite supports is reflected by
    tiny dispersion, not by the weights).
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


def _block_sums(ensemble, blocks, w, total_power):
    """One sample block's sums over its stripe blocks (rows, X_q), X_q (S, rows,
    K), each weighted by the block's pool weights: E[z_kk] (K), E|z_kj|^2 and
    E|z_kj|^4 (K, K), the per-TX powers E||t_{l,k}||^2 (L, K) and the MSE (K),
    where z = sum_q H_q X_q (S, K, K), z[s, k, j] = g_k^H t_j.  z and the
    per-sample ||t_k||^2 are let go at return."""
    s, k, n = ensemble.n_samples, ensemble.num_users, ensemble.n_antennas
    z = np.zeros((s, k, k), complex)
    per_tx = np.zeros((ensemble.num_txs, k))
    t_power = np.zeros((s, k))
    for rows, x in blocks:
        z += ensemble.h[..., rows] @ x
        p = np.abs(x) ** 2
        t_power += np.einsum("snk->sk", p)
        per_tx[rows.start // n : rows.stop // n] = np.einsum(
            "s,slnk->lk", ensemble.weights, p.reshape(s, -1, n, k))
        del x, p  # not held while the next block is made
    weights, z2 = ensemble.weights, np.abs(z) ** 2
    return (np.einsum("s,sk->k", weights, np.einsum("skk->sk", z)),
            np.einsum("s,skj->kj", weights, z2),
            np.einsum("s,skj->kj", weights, z2**2), per_tx,
            weights @ _mse_samples(z, t_power, w, total_power))


def _moments(weights, mean_eff, b, b4, per_tx):
    """MomentEstimates from a pool's weighted sums.  The weights sum to one, so
    a variance is E|x|^2 - |E x|^2 and its standard error sqrt(variance * sum w^2)."""
    a = np.abs(mean_eff) ** 2
    v = np.maximum(np.real(np.diag(b)) - a, 0.0)
    w2 = weights @ weights  # 1 / the effective sample size
    return MomentEstimates(
        mean_eff=mean_eff,
        a=a,
        v=v,
        b=b,
        per_tx_power=per_tx,
        tk_power=per_tx.sum(axis=0),
        se_mean=np.sqrt(v * w2),
        se_b=np.sqrt(np.maximum(b4 - b**2, 0.0) * w2),
    )


def _mse_samples(z, t_power, w, total_power):
    """Per-sample ||W^1/2 H t_k - e_k||^2 + ||t_k||^2 / P, taken from z itself
    (no closed form in the moments, which would cancel)."""
    err = np.sqrt(w)[None, :, None] * z - np.eye(z.shape[-1])[None, :, :]
    return np.einsum("skj->sj", np.abs(err) ** 2) + t_power / total_power


def _nonempty(ensemble):
    if ensemble.n_samples < 1:
        raise ValueError("empty evaluation pool")


def evaluate_states(ensemble, states):
    """evaluate of each fitted state, as one map over the pool's sample
    blocks, each block running the states' stripe blocks in turn: states
    that read a stripe's filters or scaled estimates (state.shares) take one
    copy.  A block reduces each state's z to its _block_sums at once, and a
    state's block sums are added in block order.  One (moments, MSE) or
    exception per state, in their order: a state loses only its own result,
    with its first failing block's error."""
    _nonempty(ensemble)

    def block(samples):
        ens = ensemble.select(samples)
        return shared_pass([(state.shares, lambda shared, state=state: _block_sums(
            ens, state.blocks(ensemble, samples, shared), *state.setting[1:]))
            for state in states])

    return [first_failure(parts) or _evaluated(ensemble.weights, parts)
            for parts in zip(*map_blocks(block, ensemble.n_samples))]


def _evaluated(weights, parts):
    *sums, mse = (sum(part) for part in zip(*parts))  # in block order
    return _moments(weights, *sums), mse


def evaluate(ensemble, state):
    """Moments and per-user MSE of a fitted state's precoders under the w and
    P of its setting, streamed from its stripe blocks (state.blocks): no
    (S, N*L, K) stack and no per-sample z is held past its sample block,
    only one stripe block per sample block in flight and the block sums.
    evaluate_states of the one state."""
    return unwrap(evaluate_states(ensemble, [state])[0])


def estimate_moments(ensemble, precoders):
    """Weighted moments of g_k^H t_j; exact sums on finite-support ensembles.
    The whole (S, N*L, K) stack is one stripe block of one sample block; w
    and P enter only the MSE, which is not read."""
    _nonempty(ensemble)
    *sums, _ = _block_sums(ensemble, [(slice(0, precoders.shape[1]), precoders)],
                           np.ones(ensemble.num_users), 1.0)
    return _moments(ensemble.weights, *sums)


def mse_samples(ensemble, precoders, w, total_power):
    """Per-sample MSE contributions (S, K); their weighted mean is the MSE."""
    _nonempty(ensemble)
    t_power = np.einsum("snk->sk", np.abs(precoders) ** 2)
    return _mse_samples(ensemble.h @ precoders, t_power, w, total_power)


def compute_mse(ensemble, precoders, w, total_power):
    """MSE_k = E[ ||W^1/2 H t_k - e_k||^2 + ||t_k||^2 / P ] per user."""
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
    if units not in ("bits", "nats"):
        raise ValueError(f"units must be 'bits' or 'nats', got {units!r}")
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
