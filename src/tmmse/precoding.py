"""Team-MMSE precoders for every stripe CSIT sharing pattern.

The distributed precoder of user k at TX l must be a function of the local
side information S_l only.  Each scheme splits into a statistical stage
(expectations over the fading distribution: the interference-response
matrices Pi and the coupling coefficients c) and a per-realization stage
(the local filters T_l and, for stripe sharing, the forward product of
update matrices).  All per-realization computations are batched over the
leading sample axis of an :class:`~tmmse.channel.Ensemble`, so exactness on
finite-support models falls out of the ensemble weights.

Every state yields its precoders one stripe at a time, as (rows, X_q) with
X_q (S, rows, K) the stripe's rows of the (S, N*L, K) stack:
evaluation.evaluate accumulates what the rates need from these blocks, so a
drop never holds a stack; apply_scheme writes the same blocks into one.

The shared thread pool (parallel.map_ordered) runs two kinds of task.
Sample blocks: precoder_blocks is a function of a slice of the pool's
samples, and evaluation.evaluate runs it on the fixed sample blocks of
parallel.map_blocks; the fits' ensemble means (bidirectional_coupling,
local_mmse_coefficients) are summed over the same blocks in block order.
Stripes: uni's fit runs one statistics sweep (estimate_stripe_statistics,
M dependent hops) per stripe, since a stripe's sweep reads only its own
TXs; if several stripes fail, the first failing stripe in stripe order is
raised.  The blocks and stripes do not depend on the number of threads and
every join keeps their order, so outputs do not either.
stripe_forward_pass, one realization, never uses the pool.

Every scheme but uni is F_u c_u: F_u the MMSE filter of a unit's stacked
estimate with its TXs' Psi blocks on the diagonal, c_u the unit's K x K
coefficients.  The unit is one TX for no-share and local MMSE (diagonal c),
a stripe for bi (the paper's per-realization Pbar recursion is a
hop-by-hop elimination of that one system) and all TXs for centralized
(c = I).  A filter takes one of two forms, chosen by the unit's size:

* one TX: the local filter T_l of local_filter, from its N x N normal
  equations; uni's hops use the same filters;
* a run of TXs: the unit kernel B^-1 A^H (I + G_u)^-1 c_u, with
  A = W^1/2 Hhat_u, B = Psi + I/P block diagonal and G_u = A B^-1 A^H;
  G_u is summed over the unit's stripes in a first pass and each stripe's
  rows formed from (I + G_u)^-1 c_u in a second.  The unit's coupling is
  E[W^1/2 Hhat_u F_u] = I - E[(I + G_u)^-1].

The stripe recursion (a backward sweep for the update matrices V, a forward
product for the precoders) serves uni, with the statistical Pi as the
downstream response.

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
from .parallel import map_blocks, map_ordered

RCOND_FLOOR = 1e-12
COEFF_RESIDUAL_TOL = 1e-10


class SingularSweepError(RuntimeError):
    """A stripe-sweep system (I - Pi P) was numerically singular.

    Only uni raises it.  The F_u c_u schemes have no sweep: a one-TX filter's
    system has eigenvalues >= 1/P, a unit kernel's I + G_u eigenvalues >= 1."""

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
    stripe_forward_pass check once per call.  The N x N system has
    eigenvalues >= 1/P; at N = 1 it is the division
    T = conj(hhat) w^1/2 / (sum_k w_k |hhat_k|^2 + psi + 1/P).  This is the
    one-TX form; a run of TXs takes the unit kernel (_scaled_estimate,
    _unit_gram) instead.
    """
    h_hat = np.asarray(h_hat, dtype=complex)
    w = np.asarray(w, dtype=float)
    n = h_hat.shape[-1]
    hh = herm(h_hat)  # formed once, for the normal matrix and the right-hand side
    a = hh @ (w[:, None] * h_hat) + psi + np.eye(n) / total_power
    hh *= np.sqrt(w)  # Hhat^H W^1/2, broadcast over trailing K axis
    return _solve_small(a, hh)


def _tx_filters(h_hat, txs, psi, w, total_power):
    """Local filters T (..., M, N, K) of the run of M TXs txs, from one
    local_filter call, and their estimates Hhat (..., M, K, N), a view of
    h_hat (..., K, N*L).  A TX's response P = A T, A = W^1/2 Hhat, has
    rank <= N and is never formed."""
    n = psi.shape[-1]
    h = tx_blocks(h_hat[..., _rows(txs, n)], n)
    return local_filter(h, psi[txs[0] : txs[-1] + 1], w, total_power), h


def _rows(txs, n):
    """Rows of the (S, N*L, K) precoder stack that belong to the TX run txs."""
    return slice(txs[0] * n, (txs[-1] + 1) * n)


def _scaled_estimate(h_hat, txs, psi, w, total_power):
    """A = W^1/2 Hhat (..., K, N*M) of the run of M TXs txs and B^-1 A^H
    (..., N*M, K), with B = Psi + I/P block diagonal (a row scaling at N = 1).
    B^-1 A^H is formed as the conjugate of conj(B^-1) A^T, so no conjugated
    copy of A is made."""
    n = psi.shape[-1]
    a = np.sqrt(w)[:, None] * h_hat[..., _rows(txs, n)]
    b_inv = np.linalg.inv(psi[txs[0] : txs[-1] + 1] + np.eye(n) / total_power)
    bah = np.einsum("lim,...klm->...lik", b_inv.conj(), a.reshape(*a.shape[:-1], -1, n))
    return a, np.conj(bah, out=bah).reshape(*a.shape[:-2], -1, a.shape[-2])


def _unit_gram(a, bah, units):
    """G_u = A_u B_u^-1 A_u^H (..., U, K, K) of the U equal-width units that
    tile the columns of A (..., K, N*M), from _scaled_estimate: the Gram
    matrix in the K x K kernel (I + G_u)^-1 of the unit filter
    B_u^-1 A_u^H (I + G_u)^-1.  One batched GEMM of contiguous factors."""
    a = np.moveaxis(a.reshape(*a.shape[:-1], units, -1), -2, -3)  # (..., U, K, W)
    return a @ bah.reshape(*bah.shape[:-2], units, -1, bah.shape[-1])


def _mean(weights, x, y=None):
    """Ensemble mean over the leading sample axis: sum_s weights_s x_s as one
    tensordot, or with y the mean of the products x_s y_s of (S, ..., i, n)
    and (S, ..., n, j) stacks as one (i, S*n) x (S*n, j) GEMM per middle index.
    With y, weights may also be an array that broadcasts against x, such as
    per-row scales folded into the sample weights; x is scaled into the one
    copy that the GEMM reads."""
    if y is None:
        return np.tensordot(weights, x, 1)
    s, (i, n), mid = len(x), x.shape[-2:], x.shape[1:-2]
    if weights.ndim == 1:
        weights = weights.reshape(-1, *[1] * (x.ndim - 1))
    wx = np.empty((*mid, i, s, n), complex)
    np.multiply(np.moveaxis(x, 0, -2), np.moveaxis(weights, 0, -2), out=wx)
    return wx.reshape(*mid, i, s * n) @ np.moveaxis(y, 0, -3).reshape(*mid, s * n, -1)


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
    single position.  Returns T V.
    """
    da = d @ a
    rcond = np.reshape(_sweep_rcond(da, t), (-1, len(positions)))
    failed = (rcond < RCOND_FLOOR).any(axis=0)
    if failed.any():
        i = int(np.argmax(failed))
        raise SingularSweepError(
            stripe, positions[i], int(np.argmin(rcond[:, i])), float(rcond[:, i].min()))
    c = np.eye(t.shape[-2]) - t @ da
    return _solve_small(c, t - t @ d)


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
    t, h = _tx_filters(h_hat, txs, psi, w, total_power)
    a, tv = np.sqrt(w)[:, None] * h, t
    if len(txs) > 1:
        head = _solve_hops(t[..., :-1, :, :], a[..., :-1, :, :], stats.pi[1:-1],
                           stats.stripe, range(len(txs) - 1))
        tv = np.concatenate([head, t[..., -1:, :, :]], axis=-3)
    a = list(np.moveaxis(a, -3, 0))
    a[-1] = None
    return zip(a, np.moveaxis(tv, -3, 0))


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
    """Backward sweep m = M..1 accumulating Pi_{m-1} = E[P_m V_m] + Pi_m E[Vbar_m],
    in capacitance form (P_m = A_m T_m and V_m never formed):

        T_m V_m = C_m^-1 T_m (I - Pi_m),  C_m = I_N - T_m Pi_m A_m,
        Pi_{m-1} = Pi_m + (I - Pi_m) E[A_m T_m V_m],

    where E[A T V] is one GEMM over the pool.  The chain end needs no solve:
    V_M = I and Pi_{M-1} = E[A_M T_M] (Pi_M = 0).  Expectations are weighted
    sums over the ensemble: exact on finite support, Monte Carlo averages
    otherwise.  The pool must be independent of the evaluation pool to keep
    rate estimates unbiased.
    """
    eye = np.eye(len(w))
    pi = []
    for m in range(len(stripe_txs), 0, -1):
        t, h = _tx_filters(ensemble.h_hat, stripe_txs[m - 1 : m], psi, w, total_power)
        a = np.sqrt(w)[:, None] * h
        tv = _solve_hops(t, a, pi[-1], stripe, [m - 1]) if pi else t
        r = _mean(ensemble.weights, a, tv)[0]
        pi.append(pi[-1] + (eye - pi[-1]) @ r if pi else r)
    pi = np.array(pi[::-1] + [np.zeros_like(pi[0])])  # Pi_M = 0 at the chain end
    return StripeStatistics(stripe, pi)


def bidirectional_coupling(ensemble, stripe_txs, size, psi, w, total_power):
    """Coupling matrices E[W^1/2 Hhat_u F_u] (U, K, K) of a stripe's units of
    size TXs, as one batched mean.  For bi (the stripe is the unit) this is
    E[Pbar_{q,0}]: the paper's per-realization Pbar_{q,0} is the response of
    the stripe's MMSE filter, so no sweep is run.  For no-share (one-TX
    units) it is Pi_0 = E[A_l T_l] of a one-TX stripe, a lone chain end.

    A multi-TX unit needs no filter: its response is
    W^1/2 Hhat_u F_u = G_u (I + G_u)^-1 = I - (I + G_u)^-1, one K x K inverse
    per sample.  One-TX units keep the filter, whose N x N systems are
    cheaper than a K x K inverse per TX; sqrt(w) and the sample weights are
    folded into the one scaled copy of Hhat_u that the mean reads.  The mean
    is summed over sample blocks (parallel.map_blocks) in block order."""
    eye = np.eye(ensemble.num_users)

    def block_sum(samples):
        ens = ensemble.select(samples)
        if size > 1:
            g = _unit_gram(*_scaled_estimate(ens.h_hat, stripe_txs, psi, w, total_power),
                           len(stripe_txs) // size)
            return _mean(ens.weights, np.linalg.inv(eye + g))
        t, h = _tx_filters(ens.h_hat, stripe_txs, psi, w, total_power)
        scale = (ens.weights[:, None] * np.sqrt(w))[:, None, :, None]  # broadcasts as h
        return _mean(scale, h, t)

    mean = sum(map_blocks(block_sum, ensemble.n_samples))
    return eye - mean if size > 1 else mean


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
    """Coefficients c_u of the F_u c_u schemes from bidirectional_coupling;
    association.serving_stripes names each user's units (stripes or TXs)."""
    return _solve_coefficient_columns(np.asarray(coupling), association.serving_stripes)


# --------------------------------------------------------------------------
# per-realization schemes
# --------------------------------------------------------------------------

def _stack(ensemble, blocks):
    """The (S, N*L, K) precoder stack of a state's stripe blocks; rows that no
    block covers (stripes that serve nobody) are zero."""
    out = np.zeros((ensemble.n_samples, ensemble.num_txs * ensemble.n_antennas,
                    ensemble.num_users), complex)
    for rows, x in blocks:
        out[:, rows] = x
    return out


def _uni_blocks(ensemble, stripe_stats, coeffs, stripes, psi, w, total_power):
    """Forward-product precoders t_{q,m} = T_{q,m} V_{q,m} Vbar_{q,m-1}...Vbar_{q,1} c_q,
    one stripe block at a time."""
    n = ensemble.n_antennas
    for q, txs in enumerate(stripes):
        if np.any(coeffs[q]):
            yield _rows(txs, n), np.concatenate(list(_forward_product(_uni_hops(
                ensemble.h_hat, txs, stripe_stats[q], psi, w, total_power), coeffs[q])), axis=-2)


def tmmse_unidirectional(ensemble, stripe_stats, coeffs, stripes, psi, w, total_power):
    """Forward-product precoders t_{q,m} = T_{q,m} V_{q,m} Vbar_{q,m-1}...Vbar_{q,1} c_q.

    V and Vbar are built from the local estimate of the current position
    and the statistical Pi matrices, so position m uses exactly the
    unidirectionally shared information (Hhat_{q,1}, ..., Hhat_{q,m}).
    """
    return _stack(ensemble, _uni_blocks(
        ensemble, stripe_stats, coeffs, stripes, psi, w, total_power))


def tmmse_bidirectional(ensemble, coeffs, stripes, psi, w, total_power):
    """Full-stripe-CSI precoders t_q = F_q c_q, F_q the MMSE filter of stripe
    q's stacked estimate (the paper's backward sweep with the per-realization
    Pbar in place of Pi, solved in one system): the bi state's blocks."""
    size = _stripe_length(stripes, ensemble.num_txs)
    return _stack(ensemble, FilterState("bi", stripes, size, coeffs).blocks(
        ensemble, psi, w, total_power))


def centralized_mmse(ensemble, psi, w, total_power):
    """Full message and CSIT sharing reference (the sum-power benchmark): the
    unit kernel of all N*L antennas with block-diagonal error covariance and
    c = I, so no per-sample (N*L)^2 system is formed."""
    return _stack(ensemble, _fit_centralized(
        "centralized", ensemble, None, [range(ensemble.num_txs)]).blocks(
        ensemble, psi, w, total_power))


def local_mmse_coefficients(ensemble, association, psi, w, total_power):
    """Large-scale fading coefficients of the restricted per-TX scheme.

    The scheme constrains t_{l,k} = c_{l,k} T_l e_k with scalar c; the
    minimizing scalars solve the |L_k| x |L_k| normal equations of the
    quadratic objective, assembled from ensemble moments of the effective
    per-TX channels.  Those moments are sums over the pool, so each user's
    Gram matrix, regularizer and right-hand side are summed over the sample
    blocks of parallel.map_blocks, one filter call per block, in block
    order.  Singular normal equations fall back to c = 1 with a warning
    rather than failing the whole run.
    """
    n, L, K = ensemble.n_antennas, ensemble.num_txs, ensemble.num_users
    serving = [list(txs) for txs in association.serving_txs]

    def block_sums(samples):
        ens = ensemble.select(samples)
        f_all = local_filter(tx_blocks(ens.h_hat, n), psi, w, total_power)
        h_blocks = tx_blocks(ens.h, n)  # (B, L, K, N)
        sums = []
        for k, txs in enumerate(serving):
            f = f_all[..., k][:, txs]  # (B, n_serving, N)
            s_eff = np.einsum("slin,sln->sil", h_blocks[:, txs], f)  # (B, K, n_serving)
            sums.append((_mean(ens.weights, herm(s_eff) * w, s_eff),  # one GEMM of (B*K, |L_k|)
                         _mean(ens.weights, np.abs(f) ** 2).sum(axis=-1),
                         _mean(ens.weights, np.conj(s_eff[:, k, :]))))
        return sums

    per_block = map_blocks(block_sums, ensemble.n_samples)
    coeffs = np.zeros((L, K), dtype=complex)
    for k, txs in enumerate(serving):
        gram, reg, rhs = (sum(part) for part in zip(*(sums[k] for sums in per_block)))
        system = gram + np.diag(reg / total_power)
        if _rcond(system) < RCOND_FLOOR:
            warnings.warn(
                f"singular local-MMSE normal equations for user {k}; using unit coefficients"
            )
            c = np.ones(len(txs), dtype=complex)
        else:
            c = np.linalg.solve(system, np.sqrt(w[k]) * rhs)
        coeffs[txs, k] = c
    return coeffs


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
# stripe blocks and its --dump-stats matrices (coupling matrices, then coefficients)
# --------------------------------------------------------------------------

@dataclass
class FilterState:
    """Precoders F_u c_u on units of size consecutive TXs, F_u the MMSE
    filter of unit u's stacked estimate: no-share (one-TX units), local MMSE
    (one-TX units with diagonal c_u), bi (units are stripes) and centralized
    (one unit of all TXs, c = I)."""

    scheme: str
    stripes: list  # consecutive equal-length runs of TXs tiling 0..L-1
    size: int  # TXs per unit
    coeffs: np.ndarray  # (units, K, K), units in TX order
    coupling: np.ndarray = None  # (units, K, K) E[W^1/2 Hhat_u F_u]; None if not fitted

    def blocks(self, ensemble, psi, w, total_power):
        """One-TX units: one filter call per stripe that serves anyone and one
        GEMM per TX.  Units of whole stripes: the unit kernel, G_u summed over
        the unit's stripes, then each stripe's rows B^-1 A^H (I + G_u)^-1 c_u."""
        if self.size == 1:
            return self._filter_blocks(ensemble, psi, w, total_power)
        return self._kernel_blocks(ensemble, psi, w, total_power)

    def _filter_blocks(self, ensemble, psi, w, total_power):
        n, k, s = ensemble.n_antennas, ensemble.num_users, ensemble.n_samples
        for txs in self.stripes:
            coeffs = self.coeffs[txs[0] : txs[-1] + 1]
            if np.any(coeffs):
                x = _tx_filters(ensemble.h_hat, txs, psi, w, total_power)[0]
                x = np.moveaxis(x, 1, 0).reshape(len(coeffs), -1, k) @ coeffs  # (M, S*N, K)
                x = np.moveaxis(x.reshape(len(coeffs), s, -1, k), 0, 1).reshape(s, -1, k)
                yield _rows(txs, n), x
                del x  # not held through the next stripe's filter call

    def _kernel_blocks(self, ensemble, psi, w, total_power):
        # each stripe's B^-1 A^H is formed once and the unit's set kept to the
        # second pass: N*L*K complex per sample for centralized, so the
        # ensemble should be one sample block, not a whole pool
        per_unit = self.size // len(self.stripes[0])  # stripes per unit
        for u, coeffs in enumerate(self.coeffs):
            run = self.stripes[u * per_unit : (u + 1) * per_unit]
            if np.any(coeffs):
                g, bahs = 0, []
                for txs in run:
                    a, bah = _scaled_estimate(ensemble.h_hat, txs, psi, w, total_power)
                    g = g + _unit_gram(a, bah, 1)
                    bahs.append(bah)
                kc = np.linalg.inv(np.eye(ensemble.num_users) + g[..., 0, :, :]) @ coeffs
                del a, g
                for txs in run:
                    yield _rows(txs, ensemble.n_antennas), bahs.pop(0) @ kc

    def dump_matrices(self):
        return [] if self.coupling is None else list(self.coupling) + list(self.coeffs)


@dataclass
class UniState:
    """Unidirectional sharing on the given stripes."""

    scheme: str
    stripes: list
    stripe_stats: list  # StripeStatistics per stripe
    stripe_coeffs: np.ndarray  # (Q, K, K)

    def blocks(self, ensemble, psi, w, total_power):
        return _uni_blocks(
            ensemble, self.stripe_stats, self.stripe_coeffs, self.stripes, psi, w, total_power
        )

    def dump_matrices(self):
        return [st.pi[0] for st in self.stripe_stats] + list(self.stripe_coeffs)


def _fit_uni(scheme, ensemble, association, stripes, psi, w, total_power):
    # one task per stripe: a stripe's sweep reads only its own TXs
    stats = map_ordered(lambda q: estimate_stripe_statistics(
        ensemble, stripes[q], psi, w, total_power, stripe=q), range(len(stripes)))
    coeffs = solve_statistical_precoders_uni(association, stats)
    return UniState(scheme, stripes, stats, coeffs)


def _stripe_length(stripes, num_txs):
    """TXs per stripe; raises unless the stripes are equal-length runs tiling TXs 0..L-1."""
    stripes = [list(txs) for txs in stripes]
    if sum(stripes, []) != list(range(num_txs)) or len({len(t) for t in stripes}) != 1:
        raise ValueError(f"stripes {stripes} are not equal-length runs tiling 0..{num_txs - 1}")
    return len(stripes[0])


def _fit_units(scheme, ensemble, association, stripes, psi, w, total_power, size=None):
    """F_u c_u on units of size TXs, or whole stripes; serving_stripes names the units."""
    size = size or len(stripes[0])
    coupling = np.concatenate([
        bidirectional_coupling(ensemble, txs, size, psi, w, total_power) for txs in stripes
    ])
    coeffs = solve_statistical_precoders_bi(association, coupling)
    return FilterState(scheme, stripes, size, coeffs, coupling)


def _fit_no_share(scheme, ensemble, association, stripes, psi, w, total_power):
    # one-TX units: the units serving each user are its serving TXs
    singletons = dataclasses.replace(association, serving_stripes=association.serving_txs)
    return _fit_units(scheme, ensemble, singletons, stripes, psi, w, total_power, size=1)


def _fit_local_mmse(scheme, ensemble, association, stripes, psi, w, total_power):
    c = local_mmse_coefficients(ensemble, association, psi, w, total_power)  # (L, K)
    return FilterState(scheme, stripes, 1, c[:, None, :] * np.eye(ensemble.num_users))


def _fit_centralized(scheme, ensemble, association, stripes, *_):
    # one unit of all TXs with c = I: full CSIT sharing has nothing statistical to fit
    return FilterState(scheme, stripes, ensemble.num_txs, np.eye(ensemble.num_users)[None])


_FITS = {
    "centralized": _fit_centralized,
    "bi": _fit_units,
    "uni": _fit_uni,
    "no-share": _fit_no_share,
    "local-mmse": _fit_local_mmse,
}
SCHEMES = tuple(_FITS)


def fit_scheme(scheme, ensemble, association, stripes, psi, w, total_power):
    """Statistical stage of the named scheme on the statistics pool."""
    if scheme not in _FITS:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    _check_inputs(psi, total_power)
    _stripe_length(stripes, ensemble.num_txs)
    return _FITS[scheme](scheme, ensemble, association, stripes, psi, w, total_power)


def precoder_blocks(state, ensemble, psi, w, total_power):
    """A state's precoders on an evaluation pool, one stripe at a time, as a
    function blocks(samples) of a slice of the pool's samples (all of them by
    default): an iterator of (rows, X_q), X_q (B, rows, K) the stripe's rows
    of the (B, N*L, K) stack of those B samples.  A stripe that serves nobody
    yields no block.  A SingularSweepError names the failing sample by its
    index in the whole pool."""
    _check_inputs(psi, total_power)

    def blocks(samples=slice(None)):
        try:
            yield from state.blocks(ensemble.select(samples), psi, w, total_power)
        except SingularSweepError as exc:
            raise SingularSweepError(exc.stripe, exc.position, exc.sample + (samples.start or 0),
                                     exc.rcond) from None

    return blocks


def apply_scheme(state, ensemble, association, stripes, psi, w, total_power):
    """Per-realization precoders (S, N*L, K) of a state, on the stripes it was
    fitted on: its precoder_blocks written into one stack, in one pass over
    the whole pool (no sample blocks)."""
    return _stack(ensemble, precoder_blocks(state, ensemble, psi, w, total_power)())


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
