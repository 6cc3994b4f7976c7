"""Team-MMSE precoders for every stripe CSIT sharing pattern.

The distributed precoder of user k at TX l must be a function of the local
side information S_l only.  Each scheme splits into a statistical stage
(expectations over the fading distribution: the interference-response
matrices Pi and the coupling coefficients c) and a per-realization stage
(the local filters T_l and, for stripe sharing, the forward product of
update matrices).  All per-realization computations are batched over the
leading sample axis of an :class:`~tmmse.channel.Ensemble`, so exactness on
finite-support models falls out of the ensemble weights.

A fitted state is the whole precoder: its setting is the (Psi, w, P) it was
fitted under, checked once before it exists (fit_schemes, the builders).
state.blocks(block, first, shared) yields its precoders on a sample block
(Ensemble.select of the pool, its first sample at pool index first) one
stripe at a time, as (rows, X_q), X_q (B, rows, K) the stripe's rows of the
(B, N*L, K) stack; a SingularSweepError names its sample by pool index.
evaluation.evaluate_states sums what the rates need over these blocks, so a
drop never holds a stack; apply_scheme writes the same blocks into one.

Every reader takes the estimate of the TX run it filters from the pool
(_estimate), which a drawn pool forms from its channels there: a drop holds
no whole-pool estimate, only a stripe's (a TX's in uni's statistics sweep)
per task in flight.

A drop's fits are one map on the shared thread pool (fit_schemes, the
one fit path of every scheme; fit_scheme fits one): uni's stripes first,
one statistics sweep (estimate_stripe_statistics, M dependent hops) each,
since a stripe's sweep reads only its own TXs, then the statistics pool's
sample blocks, each running the block parts of bi and no-share
(_coupling_part) and of local MMSE (_local_mmse_part).  In a block, a
stripe's one-TX filters T (no-share, local MMSE) and its B^-1 A^H (bi,
centralized) are formed once and dropped when their last reader has them
(_shared).  A scheme's error stays its own: its first failing block's, or
uni's first failing stripe's in stripe order.  The blocks and stripes do
not depend on the number of threads and every join keeps their order, so
outputs do not either.  stripe_forward_pass, one realization, never uses
the pool.

Every scheme but uni is F_u c_u: F_u the MMSE filter of a unit's stacked
estimate with its TXs' Psi blocks on the diagonal, c_u the unit's K x K
coefficients.  The unit is one TX for no-share and local MMSE (diagonal c),
a stripe for bi (the paper's per-realization Pbar recursion is a
hop-by-hop elimination of that one system) and all TXs for centralized
(c = I).  A filter takes one of two forms, chosen by the unit's size:

* one TX: the local filter T_l of local_filter, from its N x N normal
  equations; uni's hops solve the same equations against the downstream
  response;
* a run of TXs: the unit kernel B^-1 A^H (I + G_u)^-1 c_u of _unit_kernel,
  with A = W^1/2 Hhat_u, B = Psi + I/P block diagonal and G_u = A B^-1 A^H;
  G_u is summed over the unit's stripes in a first pass and each stripe's
  rows formed from (I + G_u)^-1 c_u in a second.  The unit's coupling is
  E[W^1/2 Hhat_u F_u] = I - E[(I + G_u)^-1].

The stripe recursion (a backward sweep for the update matrices V, a forward
product for the precoders) serves uni, with the statistical Pi as the
downstream response.  The chain end is an ordinary hop whose downstream
response is Pi_M = 0, so V_M = I and T_M V_M = T_M.

Each hop is one N x N system.  With A = W^1/2 Hhat_l (K, N), B = Psi_l + I/P
and D the downstream response, a TX's response P = A T, T = (A^H A + B)^-1 A^H
its local filter, has rank <= N and is never formed, nor is the update
V = (I - D P)^-1 (I - D): by push-through T V = Z (I - D), where
Z = (A^H (I - D) A + B)^-1 A^H is the local filter against I - D
(local_filter with da = D A).  The singularity guard still measures I - D P.
It is screened, then exact.  P is Hermitian with |P|_2 < 1 because B > 0,
and (I - D P)^-1 = I + D A Z (Woodbury), so
rcond(I - D P) >= 1 / ((1 + |D|_F) (1 + |D A|_F |Z|_F)), from norms the hop
already has.  Only the samples this bound cannot clear get the exact rcond
of the formed K x K system, with T from local_filter, so a SingularSweepError
names the same sample and exact rcond as an SVD of every sample would.  With
single-antenna TXs (N = 1) the hop's solve is a division by a scalar, and
where the bound clears every sample no hop calls LAPACK.

Matrix conventions: channels are (K, N*L) with users as rows; precoder
stacks are (S, N*L, K) with user columns; products of the stripe update
matrices are LEFT products, prod_{n=1}^{m} X_n = X_m ... X_1, empty product
the identity.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import herm, tx_blocks
from .parallel import (
    captured, first_failure, map_ordered, sample_blocks, shared_pass, unwrap)

RCOND_FLOOR = 1e-12
COEFF_RESIDUAL_TOL = 1e-10


class SingularSweepError(RuntimeError):
    """A stripe-sweep system (I - Pi P) was numerically singular.

    rcond is the exact reciprocal condition number of the K x K system at the
    named sample, the worst one of the first failing position.  Only uni
    raises it.  The F_u c_u schemes have no sweep: a one-TX filter's
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
    """Reject an error-covariance stack (..., N, N) that is not finite and
    Hermitian PSD, or a total power that is not positive."""
    if not total_power > 0:  # nan too
        raise ValueError("total power must be positive")
    if not np.isfinite(psi).all():
        raise ValueError("Psi must be finite")
    if not np.allclose(psi, herm(psi), atol=1e-10):
        raise ValueError("Psi must be Hermitian")
    if np.linalg.eigvalsh(psi).min() < -1e-10:
        raise ValueError("Psi must be positive semidefinite")


def _solve_small(a, b):
    """Solve the stacked N x N systems a x = b; at N = 1 one broadcast division."""
    return b / a if a.shape[-1] == 1 else np.linalg.solve(a, b)


def local_filter(h_hat, psi, w, total_power, da=None):
    """Regularized MMSE filter T = (Hhat^H W Hhat + Psi + I/P)^-1 Hhat^H W^1/2.

    h_hat is (..., K, N); psi is the (N, N) error covariance, or a stack of
    them broadcast against the leading axes of h_hat; returns (..., N, K).
    Psi must be Hermitian PSD and P > 0, as fit_schemes, the builders,
    apply_scheme and stripe_forward_pass check once per call.  The N x N
    system has eigenvalues >= 1/P; at N = 1 it is the division
    T = conj(hhat) w^1/2 / (sum_k w_k |hhat_k|^2 + psi + 1/P).  This is the
    one-TX form; a run of TXs takes the unit kernel (_unit_kernel) instead.

    With da = D A (..., K, N), D a downstream response (K, K) and
    A = W^1/2 Hhat, it is the filter against I - D,
    Z = (A^H (I - D) A + Psi + I/P)^-1 A^H, a uni hop's one system
    (_solve_hops), which may be singular.  W^1/2 D A is taken off the
    W Hhat of the normal matrix above, so D = 0 gives T bit for bit.
    """
    h_hat = np.asarray(h_hat, dtype=complex)
    w = np.asarray(w, dtype=float)
    n = h_hat.shape[-1]
    hh = herm(h_hat)  # formed once, for the normal matrix and the right-hand side
    wh = w[:, None] * h_hat
    if da is not None:
        wh -= np.sqrt(w)[:, None] * da
    a = hh @ wh + psi + np.eye(n) / total_power
    hh *= np.sqrt(w)  # Hhat^H W^1/2, broadcast over trailing K axis
    return _solve_small(a, hh)


def _rows(txs, n):
    """Rows of the (S, N*L, K) precoder stack that belong to the TX run txs;
    the same columns of a channel or estimate (S, K, N*L)."""
    return slice(txs[0] * n, (txs[-1] + 1) * n)


def _estimate(ensemble, txs):
    """Hhat (..., K, N*M) of the run of M TXs txs (Ensemble.estimate): the
    estimate that the filter and kernel functions below take as h_hat."""
    return ensemble.estimate(_rows(txs, ensemble.n_antennas))


def _tx_filters(h_hat, txs, psi, w, total_power):
    """Local filters T (..., M, N, K) of the run of M TXs txs, from one
    local_filter call on their estimate h_hat (..., K, N*M).  A TX's
    response P = A T, A = W^1/2 Hhat, has rank <= N and is never formed."""
    n = psi.shape[-1]
    return local_filter(tx_blocks(h_hat, n), psi[txs[0] : txs[-1] + 1], w, total_power)


def _scaled(h_hat, w):
    """A = W^1/2 Hhat of an estimate h_hat (..., K, N*M)."""
    return np.sqrt(w)[:, None] * h_hat


def _scaled_estimate(h_hat, txs, psi, w, total_power):
    """B^-1 A^H (..., N*M, K) of the run of M TXs txs from their estimate
    h_hat (..., K, N*M), A = W^1/2 Hhat (_scaled) and B = Psi + I/P block
    diagonal (a row scaling at N = 1), formed as the conjugate of
    conj(B^-1) A^T, so no conjugated copy of A is made."""
    n = psi.shape[-1]
    a = _scaled(h_hat, w)
    b_inv = np.linalg.inv(psi[txs[0] : txs[-1] + 1] + np.eye(n) / total_power)
    bah = np.einsum("lim,...klm->...lik", b_inv.conj(), a.reshape(*a.shape[:-1], -1, n))
    return np.conj(bah, out=bah).reshape(*a.shape[:-2], -1, a.shape[-2])


def _shared(shared, kind, ensemble, txs, setting, h_hat=None):
    """The "filters" T of _tx_filters or the "estimates" B^-1 A^H of
    _scaled_estimate of the run of TXs txs of a sample block ensemble under
    setting (psi, w, total_power), taken from shared, the block's store
    (parallel.shared_pass): formed at the first take, from the run's
    estimate h_hat (formed here if the caller has not), and kept until the
    shared[kind]-th, the last reader's (kept by none if kind is not in it).
    The store keeps no estimate: a reader that needs one forms it."""
    key = (kind, txs[0], txs[-1], *map(id, setting))
    value, left = shared.pop(key, None) or (
        (_tx_filters if kind == "filters" else _scaled_estimate)(
            _estimate(ensemble, txs) if h_hat is None else h_hat, txs, *setting),
        shared.get(kind, 1))
    if left > 1:
        shared[key] = value, left - 1
    return value


def _unit_kernel(ensemble, run, shared, setting):
    """The K x K kernel (I + G_u)^-1 (..., K, K) of the unit whose TXs are the
    stripes (TX runs) of run, on a sample block ensemble, and each stripe's
    B^-1 A^H from the store shared (_shared): the unit filter's rows of a
    stripe are B^-1 A^H (I + G_u)^-1, and its response W^1/2 Hhat_u F_u is
    I - (I + G_u)^-1.  G_u = sum A B^-1 A^H over the stripes, one GEMM each;
    each reader forms the stripe's estimate (B^-1 A^H's too, on a miss) and A
    again, which costs less than B^-1 A^H and keeps the store to one array
    per stripe."""
    _, w, _ = setting
    g, bahs = 0, []
    for txs in run:
        a = _estimate(ensemble, txs)
        bah = _shared(shared, "estimates", ensemble, txs, setting, a)
        a = _scaled(a, w)  # the estimate is let go as A is formed
        g = g + a @ bah
        bahs.append(bah)
    del a  # not held through the inverse
    return np.linalg.inv(np.eye(len(w)) + g), bahs


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


def _frobenius2(x):
    """Squared Frobenius norms of a stack of matrices in any memory layout,
    one real dot product each."""
    v = np.ascontiguousarray(x).view(float)  # a complex matrix as (re, im) pairs along its rows
    return np.einsum("...ij,...ij->...", v, v)


def _solve_hops(h_hat, txs, psi, w, total_power, d, stripe, positions, first=0):
    """(A, T V) of the run of TXs txs from their estimate h_hat (..., K, N*M),
    each hop one N x N system.

    A = W^1/2 Hhat (..., M, K, N) and T V = Z (I - D) (..., M, N, K), with Z
    the local filter against I - D (local_filter with da = D A); d is the
    downstream response of each position (M, K, K), or one (K, K).  The
    guard measures I - D P, P = A T, and raises SingularSweepError at the
    first of the stripe's positions whose rcond falls below RCOND_FLOOR,
    naming its worst sample and its exact rcond.  It is screened: the bound
    1 / ((1 + |D|_F) (1 + |D A|_F |Z|_F)) <= rcond clears a sample at twice
    the floor, where the bound and the exact rcond both carry rounding
    errors near eps / rcond ~ 1e-4 relative.  Every other sample, a
    non-finite one too (a nan bound is not >= the floor), gets the exact
    _rcond of I - D A T, with T from local_filter on those samples only.  An
    exactly singular sample sends every sample to the exact guard where the
    Z solve raises (N >= 2), and itself alone where it divides by zero
    (N = 1).  first is the index of the first sample in the pool, which the
    error reports from.
    """
    n = psi.shape[-1]
    h = tx_blocks(h_hat, n)
    psi = psi[txs[0] : txs[-1] + 1]
    a = np.sqrt(w)[:, None] * h
    da = d @ a
    try:
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero pivot at N = 1
            z = local_filter(h, psi, w, total_power, da)
            rcond = 1 / ((1 + np.sqrt(_frobenius2(d)))
                         * (1 + np.sqrt(_frobenius2(da) * _frobenius2(z))))
    except np.linalg.LinAlgError:
        z, rcond = None, np.full(h.shape[:-2], np.nan)
    exact = ~(rcond >= 2 * RCOND_FLOOR)
    if exact.any():
        t = local_filter(h[exact], np.broadcast_to(psi, (*h.shape[:-2], n, n))[exact], w,
                         total_power)
        rcond[exact] = _rcond(np.eye(len(w)) - da[exact] @ t)
    rcond = rcond.reshape(-1, len(positions))
    failed = (rcond < RCOND_FLOOR).any(axis=0)
    if failed.any():
        i = int(np.argmax(failed))
        raise SingularSweepError(
            stripe, positions[i], first + int(np.argmin(rcond[:, i])), float(rcond[:, i].min()))
    if z is None:  # singular to LAPACK but not to the guard: the solve raises again
        z = local_filter(h, psi, w, total_power, da)
    return a, z - z @ d


def _forward_product(hops, u):
    """Message-form forward product along one stripe.

    Each hop (A_m, T_m V_m) transmits x_m = T_m V_m u and forwards
    u <- Vbar_m u = u - P_m V_m u = u - A_m x_m downstream, so no K x K
    matrix is formed; what the chain end forwards is not read.  u is c_q
    (K, K) for the precoders of every user, or one realization's precoded
    message vector in the fronthaul protocol.  Yields the x_m.
    """
    for a, tv in hops:
        x = tv @ u
        yield x
        u = u - a @ x


def _uni_hops(h_hat, txs, stats, psi, w, total_power, first=0):
    """(A_m, T_m V_m) of unidirectional sharing on the run txs, from its
    estimate h_hat (..., K, N*M), V_m from the statistical Pi_m.

    Once Pi is known the positions are independent: every position of the
    stripe is solved and guarded in one batched call.  The chain end is one
    of them: from Pi_M = 0 its system is the local filter's, so
    T_M V_M = T_M exactly.  first: as in _solve_hops.
    """
    a, tv = _solve_hops(h_hat, txs, psi, w, total_power, stats.pi[1:], stats.stripe,
                        range(len(txs)), first)
    return zip(np.moveaxis(a, -3, 0), np.moveaxis(tv, -3, 0))


# --------------------------------------------------------------------------
# statistical stage
# --------------------------------------------------------------------------

@dataclass
class StripeStatistics:
    """Backward-recursion statistics of one stripe.

    pi[m] is the interference-response matrix seen upstream of position m
    (0-based: pi[0] is the master-unit matrix, the stripe's Pi_u in the
    closed-form coupling coefficients; pi[M] = 0, the chain end's downstream
    response, makes the chain end an ordinary hop with V_M = I).
    """

    stripe: int
    pi: np.ndarray  # (M+1, K, K)


def estimate_stripe_statistics(ensemble, stripe_txs, psi, w, total_power, stripe=0):
    """Backward sweep m = M..1 from Pi_M = 0 accumulating
    Pi_{m-1} = E[P_m V_m] + Pi_m E[Vbar_m], one N x N system per hop
    (P_m = A_m T_m and V_m never formed):

        T_m V_m = Z_m (I - Pi_m),  Z_m = (A_m^H (I - Pi_m) A_m + B_m)^-1 A_m^H,
        Pi_{m-1} = Pi_m + (I - Pi_m) E[A_m T_m V_m],

    with B_m = Psi_m + I/P, where E[A T V] is one GEMM over the pool.  Every
    hop is guarded and solved (_solve_hops), the chain end too: from
    Pi_M = 0, Z_M = T_M, so T_M V_M = T_M and Pi_{M-1} = E[A_M T_M].
    Expectations are weighted sums over the ensemble: exact on finite
    support, Monte Carlo averages otherwise.  The pool must be independent
    of the evaluation pool to keep rate estimates unbiased.  Each hop reads
    its TX's estimate (S, K, N) of the whole pool (_estimate).
    """
    eye = np.eye(len(w))
    pi = [np.zeros((len(w), len(w)), complex)]
    for m in range(len(stripe_txs), 0, -1):
        txs = stripe_txs[m - 1 : m]
        a, tv = _solve_hops(_estimate(ensemble, txs), txs, psi, w, total_power, pi[-1],
                            stripe, [m - 1])
        r = _mean(ensemble.weights, a, tv)[0]
        pi.append(pi[-1] + (eye - pi[-1]) @ r)
    return StripeStatistics(stripe, np.array(pi[::-1]))


def _coupling_part(ensemble, stripes, size, shared, setting):
    """The coupling means of bi (size the stripe length) or no-share (size 1)
    on one sample block, from the block's store shared; the join sums them in
    block order into E[W^1/2 Hhat_u F_u] per unit, units in TX order.

    A stripe unit needs no filter: its response is
    W^1/2 Hhat_u F_u = I - (I + G_u)^-1 (_unit_kernel), one K x K inverse per
    sample, so its part is E[(I + G_u)^-1].  For bi this is E[Pbar_{q,0}]:
    the paper's per-realization Pbar_{q,0} is the response of the stripe's
    MMSE filter, so no sweep is run.  One-TX units keep the filter, whose
    N x N systems are cheaper than a K x K inverse per TX: the part is the
    E[A_l T_l] of each TX, the Pi_0 of a one-TX stripe, from its stripe's
    filters and estimate, with sqrt(w) and the sample weights folded into the
    one scaled copy of Hhat_u that the mean reads."""
    if size > 1:
        return np.concatenate([
            _mean(ensemble.weights, _unit_kernel(ensemble, [txs], shared, setting)[0])[None]
            for txs in stripes])
    scale = (ensemble.weights[:, None] * np.sqrt(setting[1]))[:, None, :, None]  # broadcasts as h
    parts = []
    for txs in stripes:
        h_hat = _estimate(ensemble, txs)
        t = _shared(shared, "filters", ensemble, txs, setting, h_hat)
        parts.append(_mean(scale, tx_blocks(h_hat, ensemble.n_antennas), t))
    return np.concatenate(parts)


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


# --------------------------------------------------------------------------
# per-realization schemes
# --------------------------------------------------------------------------

def _stack(ensemble, state):
    """The (S, N*L, K) precoder stack of a state's stripe blocks on the whole
    pool, on a store of its own; rows that no block covers (stripes that
    serve nobody) are zero."""
    out = np.zeros((ensemble.n_samples, ensemble.num_txs * ensemble.n_antennas,
                    ensemble.num_users), complex)
    for rows, x in state.blocks(ensemble, 0, {}):
        out[:, rows] = x
    return out


def tmmse_unidirectional(ensemble, stripe_stats, coeffs, stripes, psi, w, total_power):
    """Forward-product precoders t_{q,m} = T_{q,m} V_{q,m} Vbar_{q,m-1}...Vbar_{q,1} c_q.

    V and Vbar are built from the local estimate of the current position
    and the statistical Pi matrices, so position m uses exactly the
    unidirectionally shared information (Hhat_{q,1}, ..., Hhat_{q,m}).
    """
    _check_inputs(psi, total_power)
    return _stack(ensemble, UniState("uni", stripes, stripe_stats, coeffs, (psi, w, total_power)))


def tmmse_bidirectional(ensemble, coeffs, stripes, psi, w, total_power):
    """Full-stripe-CSI precoders t_q = F_q c_q, F_q the MMSE filter of stripe
    q's stacked estimate (the paper's backward sweep with the per-realization
    Pbar in place of Pi, solved in one system): the bi state's blocks."""
    _check_inputs(psi, total_power)
    size = _stripe_length(stripes, ensemble.num_txs)
    return _stack(ensemble, FilterState("bi", stripes, size, coeffs, (psi, w, total_power)))


def centralized_mmse(ensemble, psi, w, total_power):
    """Full message and CSIT sharing reference (the sum-power benchmark): the
    unit kernel of all N*L antennas with block-diagonal error covariance and
    c = I, so no per-sample (N*L)^2 system is formed."""
    _check_inputs(psi, total_power)
    return _stack(ensemble, FilterState("centralized", [range(ensemble.num_txs)], ensemble.num_txs,
                                        np.eye(ensemble.num_users)[None], (psi, w, total_power)))


def _local_mmse_part(ensemble, association, stripes, shared, setting):
    """Local MMSE's sums on one sample block, per user: its Gram matrix,
    regularizer and right-hand side (_local_mmse_solve), from the one-TX
    filters of the stripes (the block's shared store) put side by side."""
    w = setting[1]
    f_all = np.concatenate([_shared(shared, "filters", ensemble, txs, setting)
                            for txs in stripes], axis=1)  # (B, L, N, K)
    h_blocks = tx_blocks(ensemble.h, ensemble.n_antennas)  # (B, L, K, N)
    sums = []
    for k, txs in enumerate(association.serving_txs):
        txs = list(txs)
        f = f_all[..., k][:, txs]  # (B, n_serving, N)
        s_eff = np.einsum("slin,sln->sil", h_blocks[:, txs], f)  # (B, K, n_serving)
        sums.append((_mean(ensemble.weights, herm(s_eff) * w, s_eff),  # one GEMM of (B*K, |L_k|)
                     _mean(ensemble.weights, np.abs(f) ** 2).sum(axis=-1),
                     _mean(ensemble.weights, np.conj(s_eff[:, k, :]))))
    return sums


def _local_mmse_solve(parts, association, setting, num_txs):
    """Large-scale fading coefficients (L, K) of the restricted per-TX scheme.

    The scheme constrains t_{l,k} = c_{l,k} T_l e_k with scalar c; the
    minimizing scalars solve the |L_k| x |L_k| normal equations of the
    quadratic objective, assembled from ensemble moments of the effective
    per-TX channels: the sample blocks' parts (_local_mmse_part), summed in
    block order.  Singular normal equations fall back to c = 1 with a
    warning rather than failing the whole run."""
    _, w, total_power = setting
    coeffs = np.zeros((num_txs, len(w)), dtype=complex)
    for k, txs in enumerate(association.serving_txs):
        txs = list(txs)
        gram, reg, rhs = (sum(part) for part in zip(*(sums[k] for sums in parts)))
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
    complex values).  h_hat is the realization's whole estimate (K, N*L).
    """
    _check_inputs(psi, total_power)
    K = len(w)
    u = np.zeros(K, dtype=complex)
    for k in served_users:
        u += np.sqrt(powers[k]) * coeffs_q[:, k] * messages[k]
    hops = _uni_hops(h_hat[..., _rows(stripe_txs, psi.shape[-1])], stripe_txs, stripe_stats,
                     psi, w, total_power)
    return list(_forward_product(hops, u)), K


# --------------------------------------------------------------------------
# scheme registry: one state type per scheme family, each with its setting, its
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
    setting: tuple  # (psi (L, N, N), w (K,), total_power) it was fitted under
    coupling: np.ndarray = None  # (units, K, K) E[W^1/2 Hhat_u F_u]; None if not fitted

    @property
    def shares(self):
        """The kind of array it reads from a sample block's shared store."""
        return "filters" if self.size == 1 else "estimates"

    def blocks(self, ensemble, first, shared):
        """One-TX units: each serving stripe's filters and one GEMM per TX.
        Units of whole stripes: the unit kernel, G_u summed over the unit's
        stripes, then each stripe's rows B^-1 A^H (I + G_u)^-1 c_u.  The
        filters and B^-1 A^H come from shared, the block's store (_shared).
        No unit raises, so first goes unread."""
        blocks = self._filter_blocks if self.size == 1 else self._kernel_blocks
        return blocks(ensemble, shared)

    def _filter_blocks(self, ensemble, shared):
        n, k, s = ensemble.n_antennas, ensemble.num_users, ensemble.n_samples
        for txs in self.stripes:
            coeffs = self.coeffs[txs[0] : txs[-1] + 1]
            if np.any(coeffs):
                x = _shared(shared, "filters", ensemble, txs, self.setting)
                x = np.moveaxis(x, 1, 0).reshape(len(coeffs), -1, k) @ coeffs  # (M, S*N, K)
                x = np.moveaxis(x.reshape(len(coeffs), s, -1, k), 0, 1).reshape(s, -1, k)
                yield _rows(txs, n), x
                del x  # not held through the next stripe's filter call

    def _kernel_blocks(self, ensemble, shared):
        # each stripe's B^-1 A^H is taken once and the unit's set kept to the
        # second pass: N*L*K complex per sample for centralized, so the
        # ensemble should be one sample block, not a whole pool
        per_unit = self.size // len(self.stripes[0])  # stripes per unit
        for u, coeffs in enumerate(self.coeffs):
            run = self.stripes[u * per_unit : (u + 1) * per_unit]
            if np.any(coeffs):
                kernel, bahs = _unit_kernel(ensemble, run, shared, self.setting)
                kc = kernel @ coeffs
                del kernel  # not held through the yields
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
    setting: tuple  # (psi (L, N, N), w (K,), total_power) it was fitted under
    shares = None  # its hops share no array with another scheme

    def blocks(self, ensemble, first, shared):
        """The forward product of each stripe that serves anyone."""
        for q, txs in enumerate(self.stripes):
            if np.any(self.stripe_coeffs[q]):
                hops = _uni_hops(_estimate(ensemble, txs), txs, self.stripe_stats[q],
                                 *self.setting, first)
                yield _rows(txs, ensemble.n_antennas), np.concatenate(
                    list(_forward_product(hops, self.stripe_coeffs[q])), axis=-2)

    def dump_matrices(self):
        return [st.pi[0] for st in self.stripe_stats] + list(self.stripe_coeffs)


def _stripe_length(stripes, num_txs):
    """TXs per stripe; raises unless the stripes are equal-length runs tiling TXs 0..L-1."""
    stripes = [list(txs) for txs in stripes]
    if sum(stripes, []) != list(range(num_txs)) or len({len(t) for t in stripes}) != 1:
        raise ValueError(f"stripes {stripes} are not equal-length runs tiling 0..{num_txs - 1}")
    return len(stripes[0])


SCHEMES = ("centralized", "bi", "uni", "no-share", "local-mmse")


def fit_schemes(schemes, ensemble, association, stripes, psi, w, total_power):
    """fit_scheme of each of schemes, as one map over uni's stripes (the
    longest tasks, so first) and the statistics pool's sample blocks.

    A stripe task is uni's sweep of that stripe.  A block task runs the
    block parts of bi, no-share and local MMSE in turn on one store
    (parallel.shared_pass), so no-share and local MMSE filter each stripe
    once.  The join sums each scheme's parts in block order and solves its
    coefficients.  Returns one state or exception per scheme, in their
    order: a scheme loses only its own state, with the exception of its
    first failing item (for uni, its first failing stripe in stripe order).
    A failed check of Psi, P or the stripes, which every scheme shares,
    raises."""
    _check_inputs(psi, total_power)
    size = _stripe_length(stripes, ensemble.num_txs)
    setting, eye = (psi, w, total_power), np.eye(ensemble.num_users)
    parts = {  # (store kind, one sample block's part) of the schemes summed over blocks
        "bi": ("estimates" if size > 1 else "filters",
               lambda ens, shared: _coupling_part(ens, stripes, size, shared, setting)),
        "no-share": ("filters", lambda ens, shared: _coupling_part(ens, stripes, 1, shared,
                                                                   setting)),
        "local-mmse": ("filters", lambda ens, shared: _local_mmse_part(ens, association, stripes,
                                                                       shared, setting)),
    }
    parts = {scheme: parts[scheme] for scheme in schemes if scheme in parts}
    sweeps = list(range(len(stripes))) if "uni" in schemes else []

    def task(item):
        if isinstance(item, int):  # one of uni's stripes
            return captured(estimate_stripe_statistics, ensemble, stripes[item], psi, w,
                            total_power, item)
        ens = ensemble.select(item)
        return dict(zip(parts, shared_pass([(kind, lambda shared, part=part: part(ens, shared))
                                            for kind, part in parts.values()])))

    done = map_ordered(task, sweeps + (sample_blocks(ensemble.n_samples) if parts else []))
    stats, blocks = done[:len(sweeps)], done[len(sweeps):]

    def join(scheme, items):
        if scheme == "centralized":  # one unit of all TXs with c = I: nothing to fit
            return FilterState(scheme, stripes, ensemble.num_txs, eye[None], setting)
        if scheme == "uni":
            coeffs = solve_statistical_precoders_uni(association, items)
            return UniState(scheme, stripes, items, coeffs, setting)
        if scheme == "local-mmse":
            c = _local_mmse_solve(items, association, setting, ensemble.num_txs)  # (L, K)
            return FilterState(scheme, stripes, 1, c[:, None, :] * eye, setting)
        if scheme not in parts:
            raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
        # F_u c_u with c from the coupling system: no-share on one-TX units
        # (each user's units are its serving TXs), bi on stripes
        unit, serving = ((1, association.serving_txs) if scheme == "no-share"
                         else (size, association.serving_stripes))
        mean = sum(items)  # in block order; a stripe unit's part is E[(I + G_u)^-1]
        coupling = eye - mean if unit > 1 else mean
        coeffs = _solve_coefficient_columns(coupling, serving)
        return FilterState(scheme, stripes, unit, coeffs, setting, coupling)

    fitted = []
    for scheme in schemes:
        items = stats if scheme == "uni" else [block[scheme] for block in blocks if scheme in block]
        fitted.append(first_failure(items) or captured(join, scheme, items))
    return fitted


def fit_scheme(scheme, ensemble, association, stripes, psi, w, total_power):
    """Statistical stage of the named scheme on the statistics pool: fit_schemes
    of the one scheme."""
    return unwrap(fit_schemes([scheme], ensemble, association, stripes, psi, w, total_power)[0])


def apply_scheme(state, ensemble, association, stripes, psi, w, total_power):
    """Per-realization precoders (S, N*L, K) of a state, on the stripes it was
    fitted on: its blocks written into one stack, in one pass over the whole
    pool (no sample blocks).  Psi, w and total_power must be the state's setting."""
    _check_inputs(psi, total_power)
    if not all(map(np.array_equal, (psi, w, total_power), state.setting)):
        raise ValueError(f"Psi, w or P differs from the {state.scheme} state's fitted setting")
    return _stack(ensemble, state)


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
