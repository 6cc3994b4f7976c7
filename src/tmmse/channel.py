"""Channel statistics, Ricean fading realizations, and per-TX local CSI.

All power quantities are noise-normalized: the per-pair gain rho2 folds the
noise power into the channel, so the received noise has identity covariance
and transmit powers are expressed in mW.  Channel entries for different
(TX, user) pairs are mutually independent; each entry is complex Gaussian
with deterministic mean sqrt(kappa/(kappa+1) * rho2) and scatter variance
rho2/(kappa+1).

Two channel model flavors feed the precoding stage:

* :class:`ChannelStatistics` + :func:`draw_ensemble` -- the Gaussian Monte
  Carlo model derived from deployment geometry;
* :class:`FiniteSupportModel` -- a discrete joint distribution on which all
  expectations are exact finite sums (the substrate of the team oracle).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np


def herm(x):
    return np.conj(np.swapaxes(x, -1, -2))


def tx_blocks(arr, n):
    """(..., L, K, N) view of the per-TX column blocks of arr (..., K, N*L)."""
    return np.moveaxis(arr.reshape(*arr.shape[:-1], -1, n), -2, -3)


# --------------------------------------------------------------------------
# link-budget formulas
# --------------------------------------------------------------------------

def path_loss_db(distance_m, carrier_ghz, shadow_db=0.0):
    """Industrial indoor NLoS path loss in dB.

    PL = 21.9 log10(d / 1 m) + 33.6 + 20 log10(f_c / 1 GHz) + Z.
    Distances below the 1 m model validity floor are clamped to 1 m.
    """
    d = np.maximum(np.asarray(distance_m, dtype=float), 1.0)
    pl = 21.9 * np.log10(d) + 33.6 + 20.0 * np.log10(float(carrier_ghz)) + shadow_db
    if not np.all(np.isfinite(pl)):
        raise ValueError("non-finite path loss; check inputs")
    return pl


def noise_power_dbm(bandwidth_hz, noise_figure_db):
    """Thermal noise power: -174 + 10 log10(B) + F dBm."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    return -174.0 + 10.0 * np.log10(float(bandwidth_hz)) + float(noise_figure_db)


def channel_gain(path_loss_db_value, noise_dbm):
    """Noise-normalized linear gain rho2 = 10^(-(PL + P_noise)/10) [1/mW]."""
    return 10.0 ** (-(np.asarray(path_loss_db_value, float) + noise_dbm) / 10.0)


# --------------------------------------------------------------------------
# Gaussian model
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelStatistics:
    """Per-pair large-scale statistics for one user drop.

    All (K, L) arrays are indexed [user, tx].  `known` marks pairs whose
    channel the TX estimates perfectly (serving-stripe pairs in the case
    study); unknown pairs are estimated by their prior mean.
    """

    rho2: np.ndarray
    mean: np.ndarray
    scatter_var: np.ndarray
    known: np.ndarray
    n_antennas: int
    distances: np.ndarray
    pl_db: np.ndarray

    @property
    def num_users(self):
        return self.rho2.shape[0]

    @property
    def num_txs(self):
        return self.rho2.shape[1]

    def error_variances(self):
        """Per-entry estimation error variance: full scatter power when unknown."""
        return np.where(self.known, 0.0, self.scatter_var)

    def csi_model(self):
        return LocalCsiModel(
            known=self.known,
            mean=self.mean,
            error_variances=self.error_variances(),
            n_antennas=self.n_antennas,
        )


@dataclass(frozen=True)
class LocalCsiModel:
    """Case-study estimate rule: exact rows for known pairs, prior mean otherwise.

    The estimate and the estimation error are independent by construction
    (they draw on disjoint fading entries) and the error has zero mean, so
    the MMSE filters built downstream are consistent with this model.
    """

    known: np.ndarray  # (K, L) bool
    mean: np.ndarray  # (K, L) real
    error_variances: np.ndarray  # (K, L)
    n_antennas: int

    def estimate(self, h):
        """Apply the rule to full channel matrices (..., K, N*L)."""
        n = self.n_antennas
        known = np.repeat(self.known, n, axis=1)
        mean = np.repeat(self.mean, n, axis=1)
        return np.where(known, h, mean.astype(complex))

    def psi_stack(self, w):
        """Error covariances Psi_l = E[E_l^H W E_l] for all TXs -> (L, N, N).

        Entrywise-independent errors make each Psi_l a multiple of the
        identity: sum_k w_k * errvar[k, l].
        """
        w = np.asarray(w, float)
        scal = w @ self.error_variances  # (L,)
        eye = np.eye(self.n_antennas)
        return scal[:, None, None] * eye[None, :, :]


def build_statistics(
    deployment,
    association,
    kappa,
    carrier_ghz,
    bandwidth_hz,
    noise_figure_db,
    shadow_std_db,
    rng,
):
    """Large-scale statistics from geometry: 3-D distances, path loss with one
    frozen shadow draw per (user, TX) pair, noise folding, Ricean split, and
    the serving-stripe CSI mask."""
    if kappa < 0 or shadow_std_db < 0:
        raise ValueError("kappa and shadow standard deviation must be >= 0")
    tx = deployment.tx_positions
    rx = deployment.rx_positions
    K, L = rx.shape[0], tx.shape[0]
    diff = rx[:, None, :] - tx[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))  # (K, L), includes height
    shadow = rng.normal(0.0, shadow_std_db, size=(K, L)) if shadow_std_db > 0 else 0.0
    pl = path_loss_db(dist, carrier_ghz, shadow)
    noise = noise_power_dbm(bandwidth_hz, noise_figure_db)
    rho2 = channel_gain(pl, noise)
    mean = np.sqrt(kappa / (kappa + 1.0) * rho2)
    scatter = rho2 / (kappa + 1.0)
    known = np.zeros((K, L), dtype=bool)
    stripes = deployment.stripes()
    for k in range(K):
        for q in association.serving_stripes[k]:
            known[k, stripes[q]] = True
    return ChannelStatistics(
        rho2=rho2,
        mean=mean,
        scatter_var=scatter,
        known=known,
        n_antennas=deployment.antennas_per_tx,
        distances=dist,
        pl_db=np.asarray(pl, float),
    )


def gains_table(statistics):
    """Rows (l, k, distance_m, PL_dB, rho2) for the per-pair gain CSV dump."""
    rows = []
    for l in range(statistics.num_txs):
        for k in range(statistics.num_users):
            rows.append(
                (
                    l,
                    k,
                    float(statistics.distances[k, l]),
                    float(statistics.pl_db[k, l]),
                    float(statistics.rho2[k, l]),
                )
            )
    return rows


@dataclass
class Ensemble:
    """Weighted collection of joint realizations used for expectations.

    Monte Carlo pools carry uniform weights; finite-support models carry
    their exact probabilities, making every downstream average exact.
    """

    h: np.ndarray  # (S, K, N*L)
    h_hat: np.ndarray  # (S, K, N*L)
    weights: np.ndarray  # (S,), sums to one
    n_antennas: int

    @property
    def n_samples(self):
        return self.h.shape[0]

    @property
    def num_users(self):
        return self.h.shape[1]

    @property
    def num_txs(self):
        return self.h.shape[2] // self.n_antennas

    def h_hat_block(self, l):
        return tx_blocks(self.h_hat, self.n_antennas)[..., l, :, :]


def draw_ensemble(statistics, csi_model, n_samples, seed_seq):
    """Monte Carlo pool: independent CN(mean, scatter) entries, replicated per
    antenna, then the local CSI rule.  Realization i draws its normals from
    the i-th substream of seed_seq, so it is reproducible regardless of pool
    size or order; the whole pool is then formed at once."""
    if n_samples < 1:
        raise ValueError("need at least one realization")
    n = statistics.n_antennas
    mean = np.repeat(statistics.mean, n, axis=1)
    std = np.sqrt(np.repeat(statistics.scatter_var, n, axis=1) / 2.0)
    z = np.empty((n_samples, 2, *mean.shape))  # (real, imaginary) per realization
    for i, child in enumerate(seed_seq.spawn(n_samples)):
        np.random.default_rng(child).standard_normal(out=z[i])
    # in place, so the pool holds one complex array beside z, not three
    h = 1j * z[:, 1]
    h += z[:, 0]
    h *= std
    h += mean
    del z
    return Ensemble(
        h=h,
        h_hat=csi_model.estimate(h),
        weights=np.full(n_samples, 1.0 / n_samples),
        n_antennas=n,
    )


# --------------------------------------------------------------------------
# information structures and finite-support models
# --------------------------------------------------------------------------

class InformationStructure(enum.Enum):
    """CSIT sharing pattern along each stripe."""

    NO_SHARING = "no-share"
    UNIDIRECTIONAL = "uni"
    BIDIRECTIONAL = "bi"
    CENTRALIZED = "centralized"


@dataclass
class FiniteSupportModel:
    """Discrete joint channel distribution with per-TX information partitions.

    labels[l, s] == labels[l, s'] means TX l cannot distinguish joint
    realizations s and s'; a valid precoder therefore takes equal values on
    them.  Conditional expectations reduce to probability-weighted sums
    inside label classes, so the team optimality conditions become an
    ordinary finite linear system.
    """

    h: np.ndarray  # (S, K, N*L)
    h_hat: np.ndarray  # (S, K, N*L)
    probs: np.ndarray  # (S,)
    labels: np.ndarray  # (L, S) int
    n_antennas: int = 1

    @property
    def n_points(self):
        return self.h.shape[0]

    @property
    def num_users(self):
        return self.h.shape[1]

    @property
    def num_txs(self):
        return self.h.shape[2] // self.n_antennas

    def ensemble(self):
        return Ensemble(
            h=self.h, h_hat=self.h_hat, weights=self.probs, n_antennas=self.n_antennas
        )

    def psi_stack(self, w):
        """Exact Psi_l = E[(H_l - Hhat_l)^H W (H_l - Hhat_l)] -> (L, N, N)."""
        w = np.asarray(w, float)
        e = tx_blocks(self.h - self.h_hat, self.n_antennas)  # (S, L, K, N)
        return np.einsum("s,slki,k,slkj->lij", self.probs, np.conj(e), w, e)

    def classes(self, l):
        """Member realization indices per information class of TX l."""
        out = {}
        for s, lab in enumerate(self.labels[l]):
            out.setdefault(int(lab), []).append(s)
        return out


def _validate_probs(probs):
    probs = np.asarray(probs, dtype=float)
    if (probs < 0).any() or not np.isclose(probs.sum(), 1.0, atol=1e-9):
        raise ValueError("probabilities must be nonnegative and sum to one")
    return probs


def finite_support_statistics(support, csi_rule, n_antennas=1):
    """Build a finite model from joint realizations and a local-information rule.

    `support` is a list of (H, probability) pairs; `csi_rule(H)` returns
    (H_hat, signals) where signals[l] is a hashable value of the local side
    information S_l.  Realizations mapping to equal signals at TX l land in
    the same information class of TX l.
    """
    probs = _validate_probs([p for _, p in support])
    hs = np.stack([np.asarray(h, dtype=complex) for h, _ in support])
    S, K, nl = hs.shape
    L = nl // n_antennas
    h_hats = np.empty_like(hs)
    sigs = []
    for s in range(S):
        h_hat, signals = csi_rule(hs[s])
        if len(signals) != L:
            raise ValueError("csi_rule must return one signal per TX")
        h_hats[s] = np.asarray(h_hat, dtype=complex)
        sigs.append(signals)
    labels = np.zeros((L, S), dtype=int)
    for l in range(L):
        seen = {}
        for s in range(S):
            labels[l, s] = seen.setdefault(sigs[s][l], len(seen))
    return FiniteSupportModel(
        h=hs, h_hat=h_hats, probs=probs, labels=labels, n_antennas=n_antennas
    )


def from_local_supports(
    est_supports,
    err_supports,
    structure,
    stripes,
    n_antennas=1,
    max_points=64,
):
    """Product model from independent per-TX estimate and error supports.

    est_supports[l] / err_supports[l] are lists of ((K, N) value, prob).
    Error supports must have zero mean so the local-estimation assumptions
    hold; the joint support is the full product, with information labels
    derived from estimate indices per the requested sharing structure.
    `max_points` guards against runaway product sizes.
    """
    L = len(est_supports)
    if len(err_supports) != L:
        raise ValueError("need one error support per TX")
    for l, sup in enumerate(err_supports):
        mean = sum(p * np.asarray(v, complex) for v, p in sup)
        if np.abs(mean).max() > 1e-9:
            raise ValueError(f"error support of TX {l} is not zero-mean")
        _validate_probs([p for _, p in sup])
    for sup in est_supports:
        _validate_probs([p for _, p in sup])

    n_points = 1
    for sup in list(est_supports) + list(err_supports):
        n_points *= len(sup)
    if n_points > max_points:
        raise ValueError(f"joint support has {n_points} points > max_points={max_points}")

    K = np.asarray(est_supports[0][0][0]).shape[0]
    combos = itertools.product(
        *(range(len(s)) for s in est_supports), *(range(len(s)) for s in err_supports)
    )
    h = np.zeros((n_points, K, L * n_antennas), dtype=complex)
    h_hat = np.zeros_like(h)
    blocks, hat_blocks = tx_blocks(h, n_antennas), tx_blocks(h_hat, n_antennas)  # (S, L, K, N)
    probs = np.ones(n_points)
    est_idx = np.zeros((L, n_points), dtype=int)
    for s, combo in enumerate(combos):
        for l in range(L):
            ei, xi = combo[l], combo[L + l]
            est_val, est_p = est_supports[l][ei]
            err_val, err_p = err_supports[l][xi]
            hat_blocks[s, l] = est_val
            blocks[s, l] = np.asarray(est_val, complex) + np.asarray(err_val, complex)
            probs[s] *= est_p * err_p
            est_idx[l, s] = ei

    labels = np.zeros((L, n_points), dtype=int)
    structure = InformationStructure(structure)
    for stripe in stripes:
        for pos, l in enumerate(stripe):
            if structure is InformationStructure.NO_SHARING:
                keys = est_idx[l]
            elif structure is InformationStructure.UNIDIRECTIONAL:
                keys = [tuple(est_idx[j, s] for j in stripe[: pos + 1]) for s in range(n_points)]
            elif structure is InformationStructure.BIDIRECTIONAL:
                keys = [tuple(est_idx[j, s] for j in stripe) for s in range(n_points)]
            else:  # CENTRALIZED: everything shared
                keys = [tuple(est_idx[:, s]) for s in range(n_points)]
            seen = {}
            for s in range(n_points):
                key = keys[s] if not isinstance(keys, np.ndarray) else int(keys[s])
                labels[l, s] = seen.setdefault(key, len(seen))
    return FiniteSupportModel(
        h=h, h_hat=h_hat, probs=probs, labels=labels, n_antennas=n_antennas
    )
