"""Team-MMSE precoders for every stripe CSIT sharing pattern.

The distributed precoder of user k at TX l must be a function of the local
side information S_l only.  Each scheme splits into a statistical stage
(expectations over the fading distribution: the interference-response
matrices Pi and the coupling coefficients c) and a per-realization stage
(the local filters T_l and, for stripe sharing, the forward product of
update matrices).  All per-realization computations are batched over the
leading sample axis of an :class:`~tmmse.channel.Ensemble`, so exactness on
finite-support models falls out of the ensemble weights.

Every team scheme runs one stripe recursion (a backward sweep for the
update matrices V, a forward product for the precoders).  Unidirectional
and bidirectional sharing differ only in the downstream response D, the
statistical Pi or the per-realization Pbar; no sharing is unidirectional
sharing on stripes of one TX.

Matrix conventions: channels are (K, N*L) with users as rows; precoder
stacks are (S, N*L, K) with user columns; products of the stripe update
matrices are LEFT products, prod_{n=1}^{m} A_n = A_m ... A_1, empty product
the identity.
"""

from __future__ import annotations

import dataclasses
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import herm, tx_block

RCOND_FLOOR = 1e-12
COEFF_RESIDUAL_TOL = 1e-10


class SingularSweepError(RuntimeError):
    """A stripe-sweep system (I - Pi P) was numerically singular."""

    def __init__(self, stripe, position, sample, rcond):
        self.stripe = stripe
        self.position = position
        self.sample = sample
        self.rcond = rcond
        super().__init__(
            f"singular sweep system at stripe={stripe} position={position} "
            f"sample={sample} (rcond={rcond:.3e})"
        )


class SingularCoefficientSystem(RuntimeError):
    """The statistical coefficient system could not be solved reliably."""

    def __init__(self, user, cond):
        self.user = user
        self.cond = cond
        super().__init__(
            f"coefficient system for user {user} is ill-conditioned (cond={cond:.3e}); "
            "statistics are likely broken"
        )


def _check_psi(psi):
    """Reject an error-covariance stack (..., N, N) that is not Hermitian PSD."""
    if not np.allclose(psi, herm(psi), atol=1e-10):
        raise ValueError("Psi must be Hermitian")
    if np.linalg.eigvalsh(psi).min() < -1e-10:
        raise ValueError("Psi must be positive semidefinite")


def local_filter(h_hat, psi, w, total_power):
    """Regularized local MMSE filter T = (Hhat^H W Hhat + Psi + I/P)^-1 Hhat^H W^1/2.

    h_hat is (..., K, N); psi is the (N, N) error covariance; returns
    (..., N, K).  Psi must be Hermitian positive semidefinite, which
    fit_scheme, apply_scheme and stripe_forward_pass check once per call;
    the system matrix is then Hermitian positive definite for any finite
    total power, so a plain linear solve is used (no inversion).
    """
    h_hat = np.asarray(h_hat, dtype=complex)
    w = np.asarray(w, dtype=float)
    if total_power <= 0:
        raise ValueError("total power must be positive")
    n = h_hat.shape[-1]
    wh = w[:, None] * h_hat  # W Hhat
    a = herm(h_hat) @ wh + psi + np.eye(n) / total_power
    b = herm(h_hat) * np.sqrt(w)  # Hhat^H W^1/2, broadcast over trailing K axis
    return np.linalg.solve(a, b)


def _filters_and_responses(h_hat, l, psi, w, total_power):
    """T_l (..., N, K) and P_l = W^1/2 Hhat_l T_l (..., K, K) from estimates (..., K, N*L)."""
    hl = tx_block(h_hat, l, psi.shape[-1])
    t = local_filter(hl, psi[l], w, total_power)
    return t, np.sqrt(w)[:, None] * (hl @ t)


# --------------------------------------------------------------------------
# the stripe recursion
# --------------------------------------------------------------------------

def _update(d, p, stripe, position):
    """V = (I - D P)^-1 (I - D), batched, with a reciprocal-condition guard."""
    eye = np.eye(p.shape[-1])
    a = eye - d @ p
    sv = np.linalg.svd(a, compute_uv=False)
    rcond = sv[..., -1] / sv[..., 0]
    if np.any(rcond < RCOND_FLOOR):
        bad = int(np.argmin(rcond))
        raise SingularSweepError(stripe, position, bad, float(np.min(rcond)))
    return np.linalg.solve(a, np.broadcast_to(eye - d, p.shape))


def _backward_sweep(h_hat, txs, psi, w, total_power, stripe, weights=None):
    """Backward recursion over the positions m = M..1 of one stripe:

        V_m = (I - D_m P_m)^-1 (I - D_m),
        D_{m-1} = R(P_m V_m) + D_m R(I - P_m V_m).

    The chain end needs no solve: V_M = I, D_{M-1} = R(P_M) and
    R(I - P_M) = I - D_{M-1} (D_M = 0 takes it out of the recursion).  R is the
    ensemble mean under the given weights for unidirectional sharing (D is
    the statistical Pi) and the identity without them for bidirectional
    sharing (D is the per-realization Pbar).  Yields (T_m, P_m, V_m,
    R(P_m V_m), R(I - P_m V_m), D_{m-1}) from m = M down, with None for V_M.
    """
    def reduce(x):
        return x if weights is None else np.einsum("s,sij->ij", weights, x)

    eye = np.eye(len(w))
    d = None
    for m in range(len(txs), 0, -1):
        t, p = _filters_and_responses(h_hat, txs[m - 1], psi, w, total_power)
        if d is None:
            v = None
            d = r_pv = reduce(p)
            r_vbar = eye - d
        else:
            v = _update(d, p, stripe, m - 1)
            pv = p @ v
            r_pv, r_vbar = reduce(pv), reduce(eye - pv)
            d = r_pv + d @ r_vbar
        yield t, p, v, r_pv, r_vbar, d


def _forward_product(hops, u):
    """Message-form forward product along one stripe.

    Each hop (T_m, P_m, V_m) transmits x_m = T_m V_m u and forwards
    u <- u - P_m V_m u = Vbar_m u downstream; V = None is the identity of
    the chain end, past which nothing is forwarded.  u is c_q (K, K) for
    the precoders of every user, or one realization's precoded message
    vector in the fronthaul protocol.  Yields the x_m.
    """
    for t, p, v in hops:
        if v is None:
            yield t @ u
        else:
            vu = v @ u
            yield t @ vu
            u = u - p @ vu


def _uni_hops(h_hat, txs, stats, psi, w, total_power):
    """(T_m, P_m, V_m) of unidirectional sharing, V_m from the statistical Pi_m."""
    for m, l in enumerate(txs, start=1):
        t, p = _filters_and_responses(h_hat, l, psi, w, total_power)
        v = _update(stats.pi[m], p, stats.stripe, m - 1) if m < len(txs) else None
        yield t, p, v


def _team_stack(ensemble, stripes, coeffs, hops):
    """Precoder stack (S, N*L, K) of the forward products from c_q of every
    stripe with nonzero coefficients; hops(q) gives the stripe's (T, P, V)."""
    n = ensemble.n_antennas
    out = np.zeros((ensemble.n_samples, ensemble.num_txs * n, ensemble.num_users), complex)
    for q, txs in enumerate(stripes):
        if np.any(coeffs[q]):
            for l, x in zip(txs, _forward_product(hops(q), coeffs[q])):
                out[:, l * n : (l + 1) * n] = x
    return out


# --------------------------------------------------------------------------
# statistical stage
# --------------------------------------------------------------------------

@dataclass
class StripeStatistics:
    """Backward-recursion statistics of one stripe.

    pi[m] is the interference-response matrix seen upstream of position m
    (0-based: pi[0] is the master-unit matrix entering the coefficient
    system; pi[M] = 0 is the chain end).  mean_pv[m] and mean_vbar[m] hold
    E[P V] and E[Vbar] of position m+1 for diagnostics.
    """

    stripe: int
    pi: np.ndarray  # (M+1, K, K)
    mean_pv: np.ndarray  # (M, K, K)
    mean_vbar: np.ndarray  # (M, K, K)
    n_samples: int


def estimate_stripe_statistics(ensemble, stripe_txs, psi, w, total_power, stripe=0):
    """Backward sweep m = M..1 accumulating Pi_{m-1} = E[P_m V_m] + Pi_m E[Vbar_m].

    Expectations are weighted sums over the ensemble: exact on finite
    support, Monte Carlo averages otherwise.  The pool must be independent
    of the evaluation pool to keep rate estimates unbiased.
    """
    sweep = [step[3:] for step in _backward_sweep(
        ensemble.h_hat, stripe_txs, psi, w, total_power, stripe, ensemble.weights)]
    mean_pv, mean_vbar, pi = (np.array(x) for x in zip(*sweep[::-1]))
    pi = np.concatenate([pi, np.zeros_like(pi[:1])])  # Pi_M = 0 at the chain end
    return StripeStatistics(stripe, pi, mean_pv, mean_vbar, ensemble.n_samples)


def bidirectional_coupling(ensemble, stripe_txs, psi, w, total_power, stripe=0):
    """Statistical chain response E[Pbar_{q,0}] of the full-stripe-CSI sweep.

    This is the bidirectional counterpart of Pi_{q,0}: the cross-stripe
    coupling matrix entering the coefficient system.  It differs from the
    unidirectional Pi_{q,0} whenever the fading is non-degenerate, because
    the sweep uses realization-dependent update matrices.
    """
    for *_, pbar in _backward_sweep(ensemble.h_hat, stripe_txs, psi, w, total_power, stripe):
        pass  # down to Pbar_{q,0}
    return np.einsum("s,sij->ij", ensemble.weights, pbar)


def _solve_coefficient_columns(pi_by_unit, serving_units, num_units, K):
    """Coupling system c_u + sum_{j != u} Pi_j c_j = e_k per user.

    Returns (num_units, K, K) with column k of unit u holding c_{u,k};
    columns of non-serving units are zero.  The assembled block system is
    square and provably nonsingular for valid statistics; ill conditioning
    or a large residual therefore signals broken inputs and raises.
    """
    coeffs = np.zeros((num_units, K, K), dtype=complex)
    eye = np.eye(K)
    for k in range(K):
        units = list(serving_units[k])
        n = len(units)
        a = np.zeros((n * K, n * K), dtype=complex)
        for row in range(n):
            for col, j in enumerate(units):
                blk = eye if row == col else pi_by_unit[j]
                a[row * K : (row + 1) * K, col * K : (col + 1) * K] = blk
        rhs = np.tile(eye[:, k], n)
        cond = np.linalg.cond(a)
        if not np.isfinite(cond) or 1.0 / cond < RCOND_FLOOR:
            raise SingularCoefficientSystem(k, float(cond))
        x = np.linalg.solve(a, rhs)
        resid = np.linalg.norm(a @ x - rhs) / np.linalg.norm(rhs)
        if resid > COEFF_RESIDUAL_TOL:
            raise SingularCoefficientSystem(k, float(cond))
        for row, u in enumerate(units):
            coeffs[u][:, k] = x[row * K : (row + 1) * K]
    return coeffs


def solve_statistical_precoders_uni(association, stripe_stats):
    """Coefficients c_{q,k} coupling the serving stripes of each user."""
    pi0 = {st.stripe: st.pi[0] for st in stripe_stats}
    return _solve_coefficient_columns(
        pi0, association.serving_stripes, max(pi0) + 1, association.num_users
    )


def solve_statistical_precoders_bi(association, coupling):
    """Coefficients for the full-stripe-CSI scheme from E[Pbar_{q,0}] matrices."""
    return _solve_coefficient_columns(
        coupling, association.serving_stripes, len(coupling), association.num_users
    )


# --------------------------------------------------------------------------
# per-realization schemes
# --------------------------------------------------------------------------

def tmmse_unidirectional(ensemble, stripe_stats, coeffs, stripes, psi, w, total_power):
    """Forward-product precoders t_{q,m} = T_{q,m} V_{q,m} Vbar_{q,m-1}...Vbar_{q,1} c_q.

    V and Vbar are built from the local estimate of the current position
    and the statistical Pi matrices, so position m uses exactly the
    unidirectionally shared information (Hhat_{q,1}, ..., Hhat_{q,m}).
    """
    return _team_stack(ensemble, stripes, coeffs, lambda q: _uni_hops(
        ensemble.h_hat, stripes[q], stripe_stats[q], psi, w, total_power))


def tmmse_bidirectional(ensemble, coeffs, stripes, psi, w, total_power):
    """Full-stripe-CSI precoders: the statistical Pi of the downstream chain is
    replaced by its per-realization value Pbar, computed in a backward sweep;
    the coupling coefficients c stay statistical (solved from E[Pbar_{q,0}])."""
    def hops(q):
        sweep = _backward_sweep(ensemble.h_hat, stripes[q], psi, w, total_power, q)
        return [step[:3] for step in sweep][::-1]

    return _team_stack(ensemble, stripes, coeffs, hops)


def centralized_mmse(ensemble, psi, w, total_power, association=None, user_centric=False):
    """Full message and CSIT sharing reference: the conditional-MMSE solution on
    the stacked estimate with block-diagonal error covariance.

    By default the support spans all TXs (sum-power benchmark); with
    user_centric=True the entries outside each user's serving set are zeroed.
    """
    n = ensemble.n_antennas
    nl = ensemble.num_txs * n
    psi_full = np.zeros((nl, nl), dtype=complex)
    for l in range(ensemble.num_txs):
        psi_full[l * n : (l + 1) * n, l * n : (l + 1) * n] = psi[l]
    a = herm(ensemble.h_hat) * w[None, None, :] @ ensemble.h_hat
    a += psi_full + np.eye(nl) / total_power
    b = herm(ensemble.h_hat) * np.sqrt(w)[None, None, :]
    t = np.linalg.solve(a, b)
    if user_centric:
        if association is None:
            raise ValueError("user-centric mode needs an association map")
        keep = np.repeat(association.mask(), n, axis=0)  # (N*L, K)
        t = t * keep[None, :, :]
    return t


def local_mmse_coefficients(ensemble, association, psi, w, total_power):
    """Large-scale fading coefficients of the restricted per-TX scheme.

    The scheme constrains t_{l,k} = c_{l,k} T_l e_k with scalar c; the
    minimizing scalars solve the |L_k| x |L_k| normal equations of the
    quadratic objective, assembled from ensemble moments of the effective
    per-TX channels.  Singular normal equations fall back to c = 1 with a
    warning rather than failing the whole run.
    """
    S, K = ensemble.n_samples, ensemble.num_users
    n = ensemble.n_antennas
    L = ensemble.num_txs
    wts = ensemble.weights
    f_all = np.zeros((S, L, n, K), dtype=complex)
    for l in range(L):
        f_all[:, l] = local_filter(ensemble.h_hat_block(l), psi[l], w, total_power)
    coeffs = np.zeros((L, K), dtype=complex)
    h_blocks = ensemble.h.reshape(S, K, L, n)
    for k in range(K):
        txs = list(association.serving_txs[k])
        f = f_all[:, txs][..., k]  # (S, n_serving, N)
        s_eff = np.einsum("siln,sln->sil", h_blocks[:, :, txs, :], f)  # (S, K, n_serving)
        gram = np.einsum("s,i,sia,sib->ab", wts, w, np.conj(s_eff), s_eff)
        reg = np.einsum("s,sln->l", wts, np.abs(f) ** 2) / total_power
        rhs = np.sqrt(w[k]) * np.einsum("s,sa->a", wts, np.conj(s_eff[:, k, :]))
        system = gram + np.diag(reg)
        cond = np.linalg.cond(system)
        if not np.isfinite(cond) or 1.0 / cond < RCOND_FLOOR:
            warnings.warn(
                f"singular local-MMSE normal equations for user {k}; using unit coefficients"
            )
            c = np.ones(len(txs), dtype=complex)
        else:
            c = np.linalg.solve(system, rhs)
        coeffs[txs, k] = c
    return coeffs


def local_mmse_baseline(ensemble, coefficients, psi, w, total_power):
    """Apply the restricted scheme t_{l,k} = c_{l,k} T_l e_k per realization."""
    n = ensemble.n_antennas
    out = np.zeros((ensemble.n_samples, ensemble.num_txs * n, ensemble.num_users), complex)
    for l in range(ensemble.num_txs):
        if np.any(coefficients[l]):
            t = local_filter(ensemble.h_hat_block(l), psi[l], w, total_power)
            out[:, l * n : (l + 1) * n, :] = t * coefficients[l][None, None, :]
    return out


# --------------------------------------------------------------------------
# sequential fronthaul protocol
# --------------------------------------------------------------------------

def stripe_forward_pass(h_hat, stripe_txs, stripe_stats, coeffs_q, served_users, messages,
                        powers, psi, w, total_power):
    """One realization of the master-to-chain-end protocol of a single stripe.

    The master unit statistically precodes the messages of the users its
    stripe serves, u = sum_k sqrt(p_k) c_{q,k} U_k; each TX then transmits
    x_m = T_m V_m u and forwards the updated K-vector Vbar_m u downstream.
    Returns the per-TX transmit vectors and the per-hop payload size (K
    complex values).
    """
    _check_psi(psi)
    K = len(w)
    u = np.zeros(K, dtype=complex)
    for k in served_users:
        u += np.sqrt(powers[k]) * coeffs_q[:, k] * messages[k]
    hops = _uni_hops(h_hat, stripe_txs, stripe_stats, psi, w, total_power)
    return list(_forward_product(hops, u)), K


# --------------------------------------------------------------------------
# scheme registry: one state type per scheme family, each with its own
# apply and its --dump-stats matrices (coupling matrices, then coefficients)
# --------------------------------------------------------------------------

@dataclass
class CentralizedState:
    """Full CSIT sharing: nothing statistical to fit."""

    scheme: str

    def apply(self, ensemble, psi, w, total_power):
        return centralized_mmse(ensemble, psi, w, total_power)

    def dump_matrices(self):
        return []


@dataclass
class LocalMmseState:
    """Restricted per-TX scheme with scalar large-scale coefficients."""

    scheme: str
    coefficients: np.ndarray  # (L, K)

    def apply(self, ensemble, psi, w, total_power):
        return local_mmse_baseline(ensemble, self.coefficients, psi, w, total_power)

    def dump_matrices(self):
        return []


@dataclass
class UniState:
    """Unidirectional sharing on the given stripes; no sharing is this state
    on one-TX stripes, one per TX."""

    scheme: str
    stripes: list  # TX lists of the coupling units
    stripe_stats: list  # StripeStatistics per unit
    stripe_coeffs: np.ndarray  # (units, K, K)

    def apply(self, ensemble, psi, w, total_power):
        return tmmse_unidirectional(
            ensemble, self.stripe_stats, self.stripe_coeffs, self.stripes, psi, w, total_power
        )

    def dump_matrices(self):
        return [st.pi[0] for st in self.stripe_stats] + list(self.stripe_coeffs)


@dataclass
class BiState:
    """Bidirectional sharing: statistical coupling E[Pbar_{q,0}] and coefficients."""

    scheme: str
    stripes: list
    stripe_coupling: np.ndarray  # (Q, K, K)
    stripe_coeffs: np.ndarray  # (Q, K, K)

    def apply(self, ensemble, psi, w, total_power):
        return tmmse_bidirectional(
            ensemble, self.stripe_coeffs, self.stripes, psi, w, total_power
        )

    def dump_matrices(self):
        return list(self.stripe_coupling) + list(self.stripe_coeffs)


def _fit_uni(scheme, ensemble, association, stripes, psi, w, total_power):
    stats = [
        estimate_stripe_statistics(ensemble, txs, psi, w, total_power, stripe=q)
        for q, txs in enumerate(stripes)
    ]
    coeffs = solve_statistical_precoders_uni(association, stats)
    return UniState(scheme, stripes, stats, coeffs)


def _fit_no_share(scheme, ensemble, association, stripes, psi, w, total_power):
    # one-TX stripes: the coupling units are the serving TXs of each user
    singletons = dataclasses.replace(association, serving_stripes=association.serving_txs)
    units = [[l] for l in range(ensemble.num_txs)]
    return _fit_uni(scheme, ensemble, singletons, units, psi, w, total_power)


def _fit_bi(scheme, ensemble, association, stripes, psi, w, total_power):
    coupling = np.stack([
        bidirectional_coupling(ensemble, txs, psi, w, total_power, stripe=q)
        for q, txs in enumerate(stripes)
    ])
    coeffs = solve_statistical_precoders_bi(association, coupling)
    return BiState(scheme, stripes, coupling, coeffs)


_FITS = {
    "centralized": lambda scheme, *_: CentralizedState(scheme),
    "bi": _fit_bi,
    "uni": _fit_uni,
    "no-share": _fit_no_share,
    "local-mmse": lambda scheme, ens, association, stripes, psi, w, total_power: (
        LocalMmseState(scheme, local_mmse_coefficients(ens, association, psi, w, total_power))
    ),
}
SCHEMES = tuple(_FITS)


def fit_scheme(scheme, ensemble, association, stripes, psi, w, total_power):
    """Statistical stage of the named scheme on the statistics pool."""
    if scheme not in _FITS:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    _check_psi(psi)
    return _FITS[scheme](scheme, ensemble, association, stripes, psi, w, total_power)


def apply_scheme(state, ensemble, association, stripes, psi, w, total_power):
    """Per-realization precoders (S, N*L, K) of a state, on the stripes it was fitted on."""
    _check_psi(psi)
    return state.apply(ensemble, psi, w, total_power)


# --------------------------------------------------------------------------
# debug dump of statistical state
# --------------------------------------------------------------------------

def write_matrix_dump(path, matrices):
    """Binary dump: per matrix a little-endian u32 (rows, cols) header followed
    by row-major complex entries as (re, im) float64 pairs."""
    with open(path, "wb") as f:
        for mat in matrices:
            mat = np.ascontiguousarray(np.asarray(mat, dtype="<c16"))
            if mat.ndim != 2:
                raise ValueError("dump expects 2-D matrices")
            f.write(struct.pack("<II", mat.shape[0], mat.shape[1]))
            f.write(mat.tobytes())


def read_matrix_dump(path):
    out = []
    with open(path, "rb") as f:
        while True:
            head = f.read(8)
            if not head:
                break
            rows, cols = struct.unpack("<II", head)
            data = f.read(rows * cols * 16)
            out.append(np.frombuffer(data, dtype="<c16").reshape(rows, cols).copy())
    return out
