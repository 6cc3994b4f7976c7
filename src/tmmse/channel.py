"""Channel statistics, Ricean fading realizations, and per-TX local CSI.

All power quantities are noise-normalized: the per-pair gain rho2 folds the
noise power into the channel, so the received noise has identity covariance
and transmit powers are expressed in mW.  Channel entries for different
(TX, user) pairs are mutually independent; each entry is complex Gaussian
with deterministic mean sqrt(kappa/(kappa+1) * rho2) and scatter variance
rho2/(kappa+1).

Two channel model flavors feed the precoding stage:

* :class:`ChannelStatistics` + :func:`draw_ensemble` -- the Gaussian Monte
  Carlo model derived from deployment geometry.  A TX knows the exact
  channel of the users its stripe serves and the prior mean of every other
  user's (:class:`LocalCsiModel`), so the local estimate is an elementwise
  function of the channel: a drawn pool holds the channels alone and forms
  the estimate of the columns a reader asks for (Ensemble.estimate);
* :class:`FiniteSupportModel` -- a discrete joint distribution on which all
  expectations are exact finite sums (the substrate of the team oracle).

A finite model's information classes follow a CSI sharing pattern, one
entry of SHARING_PATTERNS: the TX at position pos of its stripe sees the
estimate indices of stripe[pos] (no-share), stripe[:pos+1] (uni), the whole
stripe (bi) or every TX (centralized).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .parallel import map_blocks


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

    def estimate(self, h, cols=slice(None)):
        """Apply the rule to the columns cols of channel matrices (..., K, N*L):
        a new (..., K, len(cols)) array."""
        n = self.n_antennas
        known = np.repeat(self.known, n, axis=1)[:, cols]
        mean = np.repeat(self.mean, n, axis=1)[:, cols]
        return np.where(known, h[..., cols], mean)

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
    return ChannelStatistics(
        rho2=rho2,
        mean=mean,
        scatter_var=scatter,
        known=association.mask().T,
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


class Ensemble:
    """Weighted collection of joint realizations used for expectations.

    Monte Carlo pools carry uniform weights; finite-support models carry
    their exact probabilities, making every downstream average exact.

    An explicit ensemble holds its estimates h_hat.  A drawn pool
    (draw_ensemble) holds its channels h alone, with the LocalCsiModel csi
    that maps them to the estimate: estimate(cols) forms the columns a
    reader asks for, so the precoders of a sample block read a stripe's
    estimate at a time, and reading h_hat forms the whole estimate once and
    keeps it.
    """

    def __init__(self, h, h_hat, weights, n_antennas, csi=None):
        self.h = h  # (S, K, N*L)
        self._h_hat = h_hat  # (S, K, N*L), or None on a drawn pool until h_hat is read
        self.weights = weights  # (S,), sums to one over the whole pool
        self.n_antennas = n_antennas
        self.csi = csi  # a drawn pool's LocalCsiModel, else None

    @property
    def n_samples(self):
        return self.h.shape[0]

    @property
    def num_users(self):
        return self.h.shape[1]

    @property
    def num_txs(self):
        return self.h.shape[2] // self.n_antennas

    @property
    def h_hat(self):
        """The whole estimate (S, K, N*L); a drawn pool forms it at the first read."""
        if self._h_hat is None:
            self._h_hat = self.csi.estimate(self.h)
        return self._h_hat

    def estimate(self, cols):
        """The estimate's columns cols (S, K, len(cols)): a view of an explicit
        ensemble's h_hat, formed from h on a drawn pool."""
        return self._h_hat[..., cols] if self.csi is None else self.csi.estimate(self.h, cols)

    def h_hat_block(self, l):
        n = self.n_antennas
        return self.estimate(slice(l * n, (l + 1) * n))

    def select(self, samples):
        """The realizations of a slice of samples, as views.  They keep their
        pool weights, so sums over the slices of a pool add up to its means."""
        h_hat = None if self._h_hat is None else self._h_hat[samples]
        return Ensemble(self.h[samples], h_hat, self.weights[samples], self.n_antennas,
                        self.csi)


def draw_ensemble(statistics, csi_model, n_samples, seed_seq):
    """Monte Carlo pool: independent CN(mean, scatter) entries, replicated per
    antenna; the pool keeps csi_model, which forms the local estimate where
    it is read (Ensemble.estimate).  Realization i draws its normals from the
    i-th substream of seed_seq, so it is reproducible regardless of pool
    size or order.  The channels are filled one sample block at a time on
    the thread pool (parallel.map_blocks): a block draws its normals into a
    block-sized buffer and writes its rows of h in place, so the pool holds
    h alone."""
    if n_samples < 1:
        raise ValueError("need at least one realization")
    n = statistics.n_antennas
    mean = np.repeat(statistics.mean, n, axis=1)
    std = np.sqrt(np.repeat(statistics.scatter_var, n, axis=1) / 2.0)
    children = seed_seq.spawn(n_samples)
    h = np.empty((n_samples, *mean.shape), complex)

    def fill(samples):
        hb = h[samples]
        z = np.empty((len(hb), 2, *mean.shape))  # (real, imaginary) per realization
        for zi, child in zip(z, children[samples]):
            np.random.default_rng(child).standard_normal(out=zi)
        np.multiply(1j, z[:, 1], out=hb)
        hb += z[:, 0]
        hb *= std
        hb += mean

    map_blocks(fill, n_samples)
    return Ensemble(h, None, np.full(n_samples, 1.0 / n_samples), n, csi_model)


# --------------------------------------------------------------------------
# sharing patterns and finite-support models
# --------------------------------------------------------------------------

# pattern -> TXs seen by the TX at position pos of `stripe`; txs: all TXs
SHARING_PATTERNS = {
    "no-share": lambda stripe, pos, txs: [stripe[pos]],
    "uni": lambda stripe, pos, txs: stripe[: pos + 1],
    "bi": lambda stripe, pos, txs: stripe,
    "centralized": lambda stripe, pos, txs: txs,
}


def _first_seen_labels(keys):
    """Label each key by the rank of its value's first appearance."""
    seen = {}
    return [seen.setdefault(key, len(seen)) for key in keys]


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
        labels[l] = _first_seen_labels(sig[l] for sig in sigs)
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
    derived from estimate indices per SHARING_PATTERNS[structure].
    `max_points` guards against runaway product sizes.
    """
    if structure not in SHARING_PATTERNS:
        raise ValueError(f"unknown sharing pattern {structure!r}; "
                         f"expected one of {tuple(SHARING_PATTERNS)}")
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
    for stripe in stripes:
        for pos, l in enumerate(stripe):
            visible = est_idx[list(SHARING_PATTERNS[structure](stripe, pos, range(L)))]
            labels[l] = _first_seen_labels(map(tuple, visible.T.tolist()))
    return FiniteSupportModel(
        h=h, h_hat=h_hat, probs=probs, labels=labels, n_antennas=n_antennas
    )
