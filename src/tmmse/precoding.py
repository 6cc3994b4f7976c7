"""Team-MMSE precoders for every stripe CSIT sharing pattern.

The distributed precoder of user k at TX l must be a function of the local
side information S_l only.  Each scheme splits into a statistical stage
(expectations over the fading distribution: the interference-response
matrices Pi and the coupling coefficients c) and a per-realization stage
(the local filters T_l and, for stripe sharing, the forward product of
update matrices).  All per-realization computations are batched over the
leading sample axis of an :class:`~tmmse.channel.Ensemble`, so exactness on
finite-support models falls out of the ensemble weights.

One regularized MMSE filter, local_filter, serves every scheme: it gives
the local filters T_l, and the centralized precoder is the same filter on
the stacked estimate.

Every team scheme runs one stripe recursion (a backward sweep for the
update matrices V, a forward product for the precoders).  Unidirectional
and bidirectional sharing differ only in the downstream response D, the
statistical Pi or the per-realization Pbar; no sharing is unidirectional
sharing on stripes of one TX.

The recursion runs in capacitance form.  A TX's response P = A T, with
A = W^1/2 Hhat_l (K, N) and T its local filter (N, K), has rank <= N, and
P is never formed: each hop needs only T V = C^-1 T (I - D) with the N x N
capacitance C = I_N - T D A, so it takes one N x N solve in place of a
K x K one.  The singularity guard on I - D P is evaluated exactly on its
restriction to the 2N-dimensional span(D A, T^H), outside which the system
is the identity.  With single-antenna TXs (N = 1) and K > 2 users no hop
calls LAPACK: the guard is a closed form in the determinant and Frobenius
norm of the rank-one change I - D A T, and the filter and capacitance
solves are divisions by scalars.

Matrix conventions: channels are (K, N*L) with users as rows; precoder
stacks are (S, N*L, K) with user columns; products of the stripe update
matrices are LEFT products, prod_{n=1}^{m} X_n = X_m ... X_1, empty product
the identity.
"""

from __future__ import annotations

import dataclasses
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import herm, tx_blocks

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


def _check_inputs(psi, total_power):
    """Reject an error-covariance stack (..., N, N) that is not Hermitian PSD,
    or a total power that is not positive."""
    if total_power <= 0:
        raise ValueError("total power must be positive")
    if not np.allclose(psi, herm(psi), atol=1e-10):
        raise ValueError("Psi must be Hermitian")
    if np.linalg.eigvalsh(psi).min() < -1e-10:
        raise ValueError("Psi must be positive semidefinite")


def _solve_small(a, b):
    """Solve the stacked N x N systems a x = b; at N = 1 one broadcast division."""
    return b / a if a.shape[-1] == 1 else np.linalg.solve(a, b)


def local_filter(h_hat, psi, w, total_power):
    """Regularized MMSE filter T = (Hhat^H W Hhat + Psi + I/P)^-1 Hhat^H W^1/2.

    h_hat is (..., K, N); psi is the (N, N) error covariance, or a stack of
    them broadcast against the leading axes of h_hat; returns (..., N, K).
    Psi must be Hermitian PSD and P > 0, as fit_scheme, apply_scheme and
    stripe_forward_pass check once per call.  The smaller of two equal
    systems is solved: for N <= K the N x N one above, which at N = 1 is the
    division T = conj(hhat) w^1/2 / (sum_k w_k |hhat_k|^2 + psi + 1/P); for
    N > K the K x K push-through
    T = B^-1 Hhat^H W^1/2 (I_K + W^1/2 Hhat B^-1 Hhat^H W^1/2)^-1
    with B = Psi + I/P, which is the same for every sample, has eigenvalues
    >= 1/P, and is inverted once per call.
    """
    h_hat = np.asarray(h_hat, dtype=complex)
    w = np.asarray(w, dtype=float)
    K, n = h_hat.shape[-2:]
    if n > K:
        a = np.sqrt(w)[:, None] * h_hat  # W^1/2 Hhat
        ab = a @ np.linalg.inv(psi + np.eye(n) / total_power)  # W^1/2 Hhat B^-1
        return herm(np.linalg.solve(np.eye(K) + ab @ herm(a), ab))  # both Hermitian
    hh = herm(h_hat)  # formed once, for the normal matrix and the right-hand side
    a = hh @ (w[:, None] * h_hat) + psi + np.eye(n) / total_power
    hh *= np.sqrt(w)  # Hhat^H W^1/2, broadcast over trailing K axis
    return _solve_small(a, hh)


def _filters_and_channels(h_hat, txs, psi, w, total_power):
    """Local filters T (..., N, K) and channels A = W^1/2 Hhat (..., K, N) of TX txs.

    h_hat is (..., K, N*L).  txs is one TX index, or a list of them whose
    filters come from one batched call, stacked on an axis just before the
    matrix axes: T (..., M, N, K), A (..., M, K, N).  The response of a TX
    is P = A T, of rank <= N; it is never formed.
    """
    h = tx_blocks(h_hat, psi.shape[-1])[..., txs, :, :]
    return local_filter(h, psi[txs], w, total_power), np.sqrt(w)[:, None] * h


def _mean(weights, x, y=None):
    """Ensemble mean over the leading sample axis: sum_s weights_s x_s as one
    tensordot, or with y the mean of the products x_s y_s of (S, i, n) and
    (S, n, j) stacks as one (i, S*n) x (S*n, j) GEMM."""
    if y is None:
        return np.tensordot(weights, x, 1)
    s, i, n = x.shape
    wx = np.moveaxis(weights[:, None, None] * x, 0, 1).reshape(i, s * n)
    return wx @ y.reshape(s * n, -1)


# --------------------------------------------------------------------------
# the stripe recursion
# --------------------------------------------------------------------------

def _rcond(a):
    """Batched reciprocal condition numbers sigma_min / sigma_max."""
    sv = np.linalg.svd(a, compute_uv=False)
    return sv[..., -1] / (sv[..., 0] + 1e-300)  # a zero matrix gets 0, not nan


def _sweep_rcond(da, t):
    """Batched rcond of the sweep system I - D P = I - (D A) T, P never formed.

    The system is the identity on the complement of span(D A, T^H).  For
    K > 2N, with Q (K, 2N) an orthonormal basis of a space holding that span
    (a QR of the stacked columns), its singular values are those of the
    2N x 2N restriction I - (Q^H D A)(T Q) plus K - 2N ones.  The restriction
    is a rank-N change of the identity, so by interlacing N of its singular
    values are >= 1 and N are <= 1: the ones move neither extreme, and its
    rcond is the system's.  At N = 1 and K > 2 no LAPACK call is needed: the
    system is I - x y^H with x = D A and y^H = T, and the squares
    lam+ >= 1 >= lam- of its two other singular values have product |g|^2,
    g = 1 - y^H x (the determinant), and sum s = 2 - 2 Re(y^H x) + |x|^2 |y|^2,
    so rcond = |g| / lam+ with lam+ = (s + sqrt(s^2 - 4 |g|^2)) / 2, the root
    that takes no cancellation.  For K <= 2N the K x K system is formed.
    """
    K, N = da.shape[-2:]
    if N == 1 and K > 2:
        x, yh = da[..., 0], t[..., 0, :]
        yhx = (yh * x).sum(axis=-1)
        g = np.abs(1 - yhx)
        s = 2 - 2 * yhx.real + (np.abs(x) ** 2).sum(axis=-1) * (np.abs(yh) ** 2).sum(axis=-1)
        return g / ((s + np.sqrt(np.maximum(s * s - 4 * g * g, 0))) / 2)
    if K > 2 * N:
        q = np.linalg.qr(np.concatenate([da, herm(t)], axis=-1))[0]
        da, t = herm(q) @ da, t @ q
    return _rcond(np.eye(da.shape[-2]) - da @ t)


def _solve_hops(t, a, d, stripe, positions):
    """T V = C^-1 T (I - D) with the N x N capacitance C = I_N - T D A.

    This is the update V = (I - D P)^-1 (I - D) seen through T: push-through
    gives T (I - D A T)^-1 = (I - T D A)^-1 T, so one N x N solve per hop
    replaces the K x K one; at N = 1, C is a scalar and the solve a
    division.  By Sylvester's identity det C = det(I - D P); the guard still
    measures I - D P (see _sweep_rcond) and raises SingularSweepError at the
    first of the stripe's positions whose rcond falls below RCOND_FLOOR,
    naming its worst sample.  The arrays carry the
    positions on the axis before the matrix axes, or no such axis for a
    single position.  Returns (T V, D A).
    """
    da = d @ a
    rcond = np.reshape(_sweep_rcond(da, t), (-1, len(positions)))
    failed = (rcond < RCOND_FLOOR).any(axis=0)
    if failed.any():
        i = int(np.argmax(failed))
        raise SingularSweepError(
            stripe, positions[i], int(np.argmin(rcond[:, i])), float(rcond[:, i].min()))
    c = np.eye(t.shape[-2]) - t @ da
    return _solve_small(c, t - t @ d), da


def _backward_sweep(h_hat, txs, psi, w, total_power, stripe, weights=None):
    """Backward recursion over the positions m = M..1 of one stripe, in
    capacitance form (P_m = A_m T_m and V_m never formed):

        T_m V_m = C_m^-1 T_m (I - D_m),  C_m = I_N - T_m D_m A_m,
        D_{m-1} = D_m + (I - D_m) R(A_m T_m V_m).

    The chain end needs no solve: V_M = I, D_{M-1} = R(A_M T_M) (D_M = 0).
    R is the ensemble mean under the given weights for unidirectional
    sharing (D is the statistical Pi, and R(A T V) is one GEMM over the
    pool) and the identity without them for bidirectional sharing (D is the
    per-realization Pbar, updated as D + ((I - D) A) T V).  Yields
    (A_m, T_m V_m, D_{m-1}) from m = M down, with None for A_M: nothing is
    forwarded past the chain end.
    """
    eye = np.eye(len(w))
    d = None
    for m in range(len(txs), 0, -1):
        t, a = _filters_and_channels(h_hat, txs[m - 1], psi, w, total_power)
        tv, da = (t, None) if d is None else _solve_hops(t, a, d, stripe, [m - 1])
        if weights is not None:
            r = _mean(weights, a, tv)
            d = r if d is None else d + (eye - d) @ r
        else:
            d = a @ tv if d is None else d + (a - da) @ tv
        yield (a if m < len(txs) else None), tv, d


def _forward_product(hops, u):
    """Message-form forward product along one stripe.

    Each hop (A_m, T_m V_m) transmits x_m = T_m V_m u and forwards
    u <- Vbar_m u = u - P_m V_m u = u - A_m x_m downstream, so no K x K
    matrix is formed; A = None marks the chain end, past which nothing is
    forwarded.  u is c_q (K, K) for the precoders of every user, or one
    realization's precoded message vector in the fronthaul protocol.
    Yields the x_m.
    """
    for a, tv in hops:
        x = tv @ u
        yield x
        if a is not None:
            u = u - a @ x


def _uni_hops(h_hat, txs, stats, psi, w, total_power):
    """(A_m, T_m V_m) of unidirectional sharing, V_m from the statistical Pi_m.

    Once Pi is known the positions are independent: the filters of the
    whole stripe come from one batched call, and the positions before the
    chain end are guarded and solved together (the chain end, Pi_M = 0,
    takes neither: T_M V_M = T_M).
    """
    t, a = _filters_and_channels(h_hat, list(txs), psi, w, total_power)
    tv = t
    if len(txs) > 1:
        head, _ = _solve_hops(t[..., :-1, :, :], a[..., :-1, :, :], stats.pi[1:-1],
                              stats.stripe, range(len(txs) - 1))
        tv = np.concatenate([head, t[..., -1:, :, :]], axis=-3)
    a = list(np.moveaxis(a, -3, 0))
    a[-1] = None
    return zip(a, np.moveaxis(tv, -3, 0))


def _team_stack(ensemble, stripes, coeffs, hops):
    """Precoder stack (S, N*L, K) of the forward products from c_q of every
    stripe with nonzero coefficients; hops(q) gives the stripe's (A, T V)."""
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
    (0-based: pi[0] is the master-unit matrix, the stripe's Pi_u in the
    closed-form coupling coefficients; pi[M] = 0 is the chain end).
    """

    stripe: int
    pi: np.ndarray  # (M+1, K, K)


def estimate_stripe_statistics(ensemble, stripe_txs, psi, w, total_power, stripe=0):
    """Backward sweep m = M..1 accumulating Pi_{m-1} = E[P_m V_m] + Pi_m E[Vbar_m].

    Expectations are weighted sums over the ensemble: exact on finite
    support, Monte Carlo averages otherwise.  The pool must be independent
    of the evaluation pool to keep rate estimates unbiased.
    """
    pi = [d for *_, d in _backward_sweep(
        ensemble.h_hat, stripe_txs, psi, w, total_power, stripe, ensemble.weights)]
    pi = np.array(pi[::-1] + [np.zeros_like(pi[0])])  # Pi_M = 0 at the chain end
    return StripeStatistics(stripe, pi)


def bidirectional_coupling(ensemble, stripe_txs, psi, w, total_power, stripe=0):
    """Statistical chain response E[Pbar_{q,0}] of the full-stripe-CSI sweep.

    This is the bidirectional counterpart of Pi_{q,0}: the cross-stripe
    coupling matrix entering the coefficient system.  It differs from the
    unidirectional Pi_{q,0} whenever the fading is non-degenerate, because
    the sweep uses realization-dependent update matrices.
    """
    for *_, pbar in _backward_sweep(ensemble.h_hat, stripe_txs, psi, w, total_power, stripe):
        pass  # down to Pbar_{q,0}
    return _mean(ensemble.weights, pbar)


def _coefficient_guard(rcond, failed):
    """Raise for the first failed user, reporting cond = 1 / its reciprocal condition."""
    if failed.any():
        k = int(np.argmax(failed))
        raise SingularCoefficientSystem(k, np.inf if rcond[k] == 0 else 1.0 / rcond[k])


def _solve_coefficient_columns(pi, serving_units):
    """Coupling system c_u + sum_{j != u} Pi_j c_j = e_k over the units u in U_k serving user k.

    Closed form: c_{u,k} = A_u y_k with A_u = (I - Pi_u)^-1 and
    y_k = (I + G_k)^-1 e_k, G_k = sum_{j in U_k} Pi_j A_j.  pi is (units, K, K);
    column k of unit u of the result is c_{u,k}, exactly zero where u does not
    serve k.  The block system's determinant is prod_u det(I - Pi_u) det(I + G_k),
    so an ill-conditioned factor or a large residual signals broken statistics.
    """
    K = pi.shape[-1]
    mask = np.zeros((len(pi), K), dtype=bool)
    mask[np.concatenate(serving_units).astype(int),
         np.repeat(np.arange(K), [len(u) for u in serving_units])] = True
    eye = np.eye(K)
    pi = np.where(mask.any(axis=1)[:, None, None], pi, 0)  # a unit serving nobody drops out
    rcond = np.where(mask, _rcond(eye - pi)[:, None], np.inf).min(axis=0)
    _coefficient_guard(rcond, rcond < RCOND_FLOOR)
    a = np.linalg.inv(eye - pi)
    g = eye + np.einsum("uk,uij->kij", mask, pi @ a)  # I + G_k per user
    rcond = np.minimum(rcond, _rcond(g))
    _coefficient_guard(rcond, rcond < RCOND_FLOOR)
    y = np.linalg.solve(g, eye[..., None])[..., 0]  # row k is y_k
    coeffs = np.where(mask[:, None, :], a @ y.T, 0)
    pc = pi @ coeffs
    resid = np.where(mask[:, None, :], coeffs - pc + pc.sum(axis=0) - eye, 0)
    resid = np.sqrt((np.abs(resid) ** 2).sum(axis=(0, 1)) / np.maximum(mask.sum(axis=0), 1))
    _coefficient_guard(rcond, resid > COEFF_RESIDUAL_TOL)
    return coeffs


def solve_statistical_precoders_uni(association, stripe_stats):
    """Coefficients c_{q,k} from Pi_{q,0}; stripe_stats[q] holds stripe q's statistics."""
    pi0 = np.stack([st.pi[0] for st in stripe_stats])
    return _solve_coefficient_columns(pi0, association.serving_stripes)


def solve_statistical_precoders_bi(association, coupling):
    """Coefficients for the full-stripe-CSI scheme from E[Pbar_{q,0}] matrices."""
    return _solve_coefficient_columns(np.asarray(coupling), association.serving_stripes)


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
        return [step[:2] for step in sweep][::-1]

    return _team_stack(ensemble, stripes, coeffs, hops)


def centralized_mmse(ensemble, psi, w, total_power):
    """Full message and CSIT sharing reference (the sum-power benchmark):
    local_filter on the stacked (S, K, N*L) estimate with block-diagonal error
    covariance, so for N*L > K no per-sample (N*L)^2 system is formed."""
    n, L = ensemble.n_antennas, ensemble.num_txs
    psi_full = np.zeros((L, n, L, n), dtype=complex)
    psi_full[range(L), :, range(L)] = psi  # block l on the diagonal
    return local_filter(ensemble.h_hat, psi_full.reshape(L * n, L * n), w, total_power)


def local_mmse_coefficients(ensemble, association, psi, w, total_power):
    """Large-scale fading coefficients of the restricted per-TX scheme.

    The scheme constrains t_{l,k} = c_{l,k} T_l e_k with scalar c; the
    minimizing scalars solve the |L_k| x |L_k| normal equations of the
    quadratic objective, assembled from ensemble moments of the effective
    per-TX channels.  Singular normal equations fall back to c = 1 with a
    warning rather than failing the whole run.
    """
    K = ensemble.num_users
    n, L = ensemble.n_antennas, ensemble.num_txs
    wts = ensemble.weights
    f_all = local_filter(tx_blocks(ensemble.h_hat, n), psi, w, total_power)  # (S, L, N, K)
    coeffs = np.zeros((L, K), dtype=complex)
    h_blocks = tx_blocks(ensemble.h, n)  # (S, L, K, N)
    for k in range(K):
        txs = list(association.serving_txs[k])
        f = f_all[:, txs][..., k]  # (S, n_serving, N)
        s_eff = np.einsum("slin,sln->sil", h_blocks[:, txs], f)  # (S, K, n_serving)
        gram = _mean(wts, herm(s_eff) * w, s_eff)  # one GEMM of the (S*K, |L_k|) stack
        reg = _mean(wts, np.abs(f) ** 2).sum(axis=-1) / total_power
        rhs = np.sqrt(w[k]) * _mean(wts, np.conj(s_eff[:, k, :]))
        system = gram + np.diag(reg)
        if _rcond(system) < RCOND_FLOOR:
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
    t = local_filter(tx_blocks(ensemble.h_hat, ensemble.n_antennas), psi, w, total_power)
    return (t * coefficients[:, None, :]).reshape(ensemble.n_samples, -1, ensemble.num_users)


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
    _check_inputs(psi, total_power)
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
    _check_inputs(psi, total_power)
    return _FITS[scheme](scheme, ensemble, association, stripes, psi, w, total_power)


def apply_scheme(state, ensemble, association, stripes, psi, w, total_power):
    """Per-realization precoders (S, N*L, K) of a state, on the stripes it was fitted on."""
    _check_inputs(psi, total_power)
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
