"""Radio-stripe deployment geometry and user-centric association structure.

Stripes are serial chains of transmitters (TXs) mounted at ceiling height,
running parallel to the width (x) axis of a rectangular service area.
Stripe q sits at depth y = (q - 1/2) * depth / Q; TX m of a stripe sits at
x = (m - 1/2) * width / M.  The flat TX index follows the per-stripe
ordering l = (q - 1) * M + m (1-based convention); all arrays in this
package index TXs, stripes, and users 0-based.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np


def map_index(l, num_stripes, txs_per_stripe):
    """Map a 1-based flat TX index l to the 1-based pair (stripe q, position m)."""
    total = num_stripes * txs_per_stripe
    if not 1 <= l <= total:
        raise ValueError(f"TX index {l} outside 1..{total}")
    q, m = divmod(l - 1, txs_per_stripe)
    return q + 1, m + 1


def tx_index(q, m, num_stripes, txs_per_stripe):
    """Inverse of :func:`map_index`: 1-based (q, m) -> 1-based flat index l."""
    if not 1 <= q <= num_stripes:
        raise ValueError(f"stripe index {q} outside 1..{num_stripes}")
    if not 1 <= m <= txs_per_stripe:
        raise ValueError(f"position index {m} outside 1..{txs_per_stripe}")
    return (q - 1) * txs_per_stripe + m


def stripe_layout(num_stripes, txs_per_stripe):
    """0-based TX indices of each stripe, in fronthaul order (master unit first)."""
    return [
        list(range(q * txs_per_stripe, (q + 1) * txs_per_stripe))
        for q in range(num_stripes)
    ]


@dataclass(frozen=True)
class Deployment:
    """Immutable stripe grid plus (optionally) the current user drop.

    tx_positions is (L, 3) with z = height; rx_positions is (K, 3) with
    z = 0, so TX-RX distances include the mounting height difference.
    """

    num_stripes: int
    txs_per_stripe: int
    antennas_per_tx: int
    area: tuple  # (width, depth) in meters
    height: float  # TX-RX height difference in meters
    tx_positions: np.ndarray
    rx_positions: np.ndarray

    @property
    def num_txs(self):
        return self.num_stripes * self.txs_per_stripe

    @property
    def num_users(self):
        return int(self.rx_positions.shape[0])

    def stripe_depths(self):
        """y coordinate of each stripe line."""
        depth = self.area[1]
        return (np.arange(self.num_stripes) + 0.5) * depth / self.num_stripes

    def stripes(self):
        return stripe_layout(self.num_stripes, self.txs_per_stripe)

    def place_users(self, rx_xy):
        """Return a copy of the deployment with users at the given planar positions."""
        rx_xy = np.asarray(rx_xy, dtype=float)
        if rx_xy.ndim != 2 or rx_xy.shape[1] not in (2, 3):
            raise ValueError("rx positions must be (K, 2) or (K, 3)")
        rx = np.zeros((rx_xy.shape[0], 3))
        rx[:, : rx_xy.shape[1]] = rx_xy
        width, depth = self.area
        inside = (
            (rx[:, 0] >= 0) & (rx[:, 0] <= width) & (rx[:, 1] >= 0) & (rx[:, 1] <= depth)
        )
        if not inside.all():
            raise ValueError(f"users outside service area: {np.where(~inside)[0].tolist()}")
        return dataclasses.replace(self, rx_positions=rx)

    def to_dict(self):
        return {
            "num_stripes": self.num_stripes,
            "txs_per_stripe": self.txs_per_stripe,
            "antennas_per_tx": self.antennas_per_tx,
            "area_m": list(self.area),
            "height_m": self.height,
            "tx_positions": self.tx_positions.tolist(),
            "rx_positions": self.rx_positions.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            num_stripes=int(d["num_stripes"]),
            txs_per_stripe=int(d["txs_per_stripe"]),
            antennas_per_tx=int(d["antennas_per_tx"]),
            area=tuple(float(x) for x in d["area_m"]),
            height=float(d["height_m"]),
            tx_positions=np.asarray(d["tx_positions"], dtype=float),
            rx_positions=np.asarray(d["rx_positions"], dtype=float),
        )


def build_grid_deployment(num_stripes, txs_per_stripe, area, height, antennas_per_tx=1):
    """Centered uniform grid of TXs: Q parallel stripes of M TXs over the area.

    The area and counts fix the geometry completely; the grid is centered so
    that stripes and TXs are evenly spaced with half-spacing margins.
    """
    width, depth = float(area[0]), float(area[1])
    if num_stripes < 1 or txs_per_stripe < 1 or antennas_per_tx < 1:
        raise ValueError("counts must be >= 1")
    if width <= 0 or depth <= 0:
        raise ValueError("area dimensions must be positive")
    ys = (np.arange(num_stripes) + 0.5) * depth / num_stripes
    xs = (np.arange(txs_per_stripe) + 0.5) * width / txs_per_stripe
    tx = np.zeros((num_stripes * txs_per_stripe, 3))
    for q in range(num_stripes):
        for m in range(txs_per_stripe):
            tx[q * txs_per_stripe + m] = (xs[m], ys[q], height)
    return Deployment(
        num_stripes=num_stripes,
        txs_per_stripe=txs_per_stripe,
        antennas_per_tx=antennas_per_tx,
        area=(width, depth),
        height=float(height),
        tx_positions=tx,
        rx_positions=np.zeros((0, 3)),
    )


@dataclass(frozen=True)
class AssociationMap:
    """Who serves whom, at stripe granularity.

    serving_stripes[k] lists the stripes serving user k; serving_txs[k] is
    the induced TX set L_k; served_users[l] is the inverse image K_l.
    All indices 0-based, each tuple sorted ascending.
    """

    serving_stripes: tuple
    serving_txs: tuple
    served_users: tuple

    @property
    def num_users(self):
        return len(self.serving_stripes)

    @property
    def num_txs(self):
        return len(self.served_users)

    def stripe_users(self, q):
        """Users served by stripe q (same set for every TX on the stripe)."""
        return tuple(k for k in range(self.num_users) if q in self.serving_stripes[k])

    def mask(self):
        """(L, K) boolean serving mask."""
        out = np.zeros((self.num_txs, self.num_users), dtype=bool)
        for k, txs in enumerate(self.serving_txs):
            out[list(txs), k] = True
        return out

    def to_dict(self):
        return {
            "serving_stripes": [list(s) for s in self.serving_stripes],
            "serving_txs": [list(s) for s in self.serving_txs],
            "served_users": [list(s) for s in self.served_users],
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            serving_stripes=tuple(tuple(s) for s in d["serving_stripes"]),
            serving_txs=tuple(tuple(s) for s in d["serving_txs"]),
            served_users=tuple(tuple(s) for s in d["served_users"]),
        )


def association_from_stripes(serving_stripes, num_stripes, txs_per_stripe):
    """Derive the TX-level sets L_k and K_l from per-user stripe sets."""
    layout = stripe_layout(num_stripes, txs_per_stripe)
    serving_txs = []
    for stripes in serving_stripes:
        if len(stripes) == 0:
            raise ValueError("every user needs at least one serving stripe")
        txs = sorted(l for q in stripes for l in layout[q])
        serving_txs.append(tuple(txs))
    num_txs = num_stripes * txs_per_stripe
    served = [[] for _ in range(num_txs)]
    for k, txs in enumerate(serving_txs):
        for l in txs:
            served[l].append(k)
    return AssociationMap(
        serving_stripes=tuple(tuple(sorted(s)) for s in serving_stripes),
        serving_txs=tuple(serving_txs),
        served_users=tuple(tuple(u) for u in served),
    )


def assign_serving_stripes(deployment, num_serving):
    """Associate each user with its num_serving closest stripes.

    Closeness is the perpendicular planar distance from the user to the
    stripe line; equidistant stripes are broken toward the lower stripe
    index so association is deterministic.
    """
    if not 1 <= num_serving <= deployment.num_stripes:
        raise ValueError(
            f"serving stripe count {num_serving} outside 1..{deployment.num_stripes}"
        )
    rx = deployment.rx_positions
    if rx.shape[0] == 0:
        raise ValueError("deployment has no users")
    depths = deployment.stripe_depths()
    serving = []
    for k in range(rx.shape[0]):
        d = np.abs(rx[k, 1] - depths)
        order = np.lexsort((np.arange(deployment.num_stripes), d))
        serving.append(tuple(sorted(order[:num_serving].tolist())))
    return association_from_stripes(
        serving, deployment.num_stripes, deployment.txs_per_stripe
    )
