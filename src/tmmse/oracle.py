"""Exact team-optimal precoders on finite-support channel models.

On a discrete joint distribution the team optimality conditions turn into a
finite linear system: one N-vector unknown per (serving TX, information
class), where an information class groups the joint realizations a TX
cannot distinguish.  Solving that system gives the unique optimal
distributed precoder, the ground truth against which the closed-form
schemes are verified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import FiniteSupportModel, herm, tx_blocks
from .precoding import local_filter


@dataclass
class FiniteTeamProblem:
    """A finite-support model plus the data of one team design problem."""

    model: FiniteSupportModel
    serving_txs: tuple  # per user, 0-based TX indices
    w: np.ndarray
    total_power: float

    @property
    def num_users(self):
        return self.model.num_users

    def psi_stack(self):
        return self.model.psi_stack(self.w)


def _class_members(problem, l):
    """Positive-probability members per information class of TX l."""
    out = {}
    for c, members in problem.model.classes(l).items():
        members = [s for s in members if problem.model.probs[s] > 0]
        if members:
            out[c] = members
    return out


def solve_team_exact(problem, k, shuffle_rng=None):
    """Assemble and solve the exact stationarity system for user k.

    Unknowns are indexed by (TX, class); the block row of (l, c) states
    E[O_ll | c] t_l(c) + sum_j E[O_lj t_j | c] = sqrt(w_k) E[g_lk | c] with
    O_ll = H_l^H W H_l + I/P and O_lj = H_l^H W H_j.  Returns the solution
    expanded to a per-realization (S, N*L) array, zero outside the serving
    set.  `shuffle_rng` permutes the unknown ordering (the solution must
    not depend on it; used by the uniqueness regression).
    """
    model = problem.model
    n = model.n_antennas
    w = np.asarray(problem.w, float)
    sw_k = np.sqrt(w[k])
    serving = list(problem.serving_txs[k])
    unknowns = []
    members_by_tx = {}
    for l in serving:
        members_by_tx[l] = _class_members(problem, l)
        unknowns.extend((l, c) for c in sorted(members_by_tx[l]))
    if shuffle_rng is not None:
        order = shuffle_rng.permutation(len(unknowns))
        unknowns = [unknowns[i] for i in order]
    index = {u: i for i, u in enumerate(unknowns)}
    h = tx_blocks(model.h, n)  # (S, L, K, N)
    dim = len(unknowns) * n
    a = np.zeros((dim, dim), dtype=complex)
    rhs = np.zeros(dim, dtype=complex)
    probs = model.probs
    for (l, c) in unknowns:
        i = index[(l, c)] * n
        members = members_by_tx[l][c]
        pc = probs[members].sum()
        for s in members:
            ps = probs[s] / pc
            hl = h[s, l]
            a[i : i + n, i : i + n] += ps * (herm(hl) @ (w[:, None] * hl) + np.eye(n) / problem.total_power)
            for j in serving:
                if j == l:
                    continue
                hj = h[s, j]
                col = index[(j, int(model.labels[j, s]))] * n
                a[i : i + n, col : col + n] += ps * (herm(hl) @ (w[:, None] * hj))
            rhs[i : i + n] += ps * sw_k * np.conj(hl[k])
    if dim == 0:
        return np.zeros((model.n_points, model.num_txs * n), dtype=complex)
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or 1.0 / cond < 1e-13:
        raise np.linalg.LinAlgError(
            f"singular team system for user {k} (cond={cond:.3e}); malformed problem"
        )
    x = np.linalg.solve(a, rhs)
    t = np.zeros((model.n_points, model.num_txs * n), dtype=complex)
    for (l, c) in unknowns:
        val = x[index[(l, c)] * n : index[(l, c)] * n + n]
        for s in members_by_tx[l][c]:
            t[s, l * n : (l + 1) * n] = val
    return t


def verify_stationarity(problem, candidate, k):
    """Max residual of the local-estimation fixed point over (TX, class).

    Evaluates t_l(S_l) - T_l (e_k - sum_j W^1/2 E[Hhat_j t_j | S_l]) at
    every positive-probability realization and returns the largest norm.
    The optimal solution of a model satisfying the local-estimation
    assumptions has residual at numerical noise level.
    """
    model = problem.model
    n = model.n_antennas
    w = np.asarray(problem.w, float)
    sqrt_w = np.sqrt(w)
    psi = problem.psi_stack()
    h_hat = tx_blocks(model.h_hat, n)  # (S, L, K, N)
    serving = list(problem.serving_txs[k])
    e_k = np.zeros(model.num_users)
    e_k[k] = 1.0
    worst = 0.0
    for l in serving:
        others = [j for j in serving if j != l]
        for c, members in _class_members(problem, l).items():
            pc = model.probs[members].sum()
            inner = e_k.astype(complex)
            for j in others:
                acc = np.zeros(model.num_users, dtype=complex)
                for s in members:
                    t_j = candidate[s, j * n : (j + 1) * n]
                    acc += (model.probs[s] / pc) * (h_hat[s, j] @ t_j)
                inner -= sqrt_w * acc
            for s in members:
                t_l = local_filter(h_hat[s, l], psi[l], w, problem.total_power)
                resid = np.linalg.norm(candidate[s, l * n : (l + 1) * n] - t_l @ inner)
                worst = max(worst, float(resid))
    return worst


def mse_exact(problem, candidate, k):
    """Exact MSE of a per-realization candidate (S, N*L) for user k."""
    model = problem.model
    z = np.einsum("skl,sl->sk", model.h, candidate)
    e_k = np.zeros(model.num_users)
    e_k[k] = 1.0
    err = np.sqrt(problem.w)[None, :] * z - e_k[None, :]
    per = (np.abs(err) ** 2).sum(axis=1) + (np.abs(candidate) ** 2).sum(axis=1) / problem.total_power
    return float(model.probs @ per)

