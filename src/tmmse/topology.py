"""Radio-stripe deployment geometry and user-centric association structure.

Stripes are serial chains of transmitters (TXs) mounted at ceiling height,
parallel to the width (x) axis of a rectangular service area.  Indices are
0-based: TX m of stripe q (m = 0, the master unit, first) has the flat index
l = q * M + m (stripe_layout).  build_grid_deployment places that TX at
x = (m + 1/2) * width / M, y = (q + 1/2) * depth / Q; a stripe's depth is
read from its TXs' positions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np


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
    tx_positions: np.ndarray
    rx_positions: np.ndarray

    @property
    def num_txs(self):
        return self.num_stripes * self.txs_per_stripe

    @property
    def num_users(self):
        return int(self.rx_positions.shape[0])

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
    tx = np.column_stack([np.tile(xs, num_stripes), np.repeat(ys, txs_per_stripe),
                          np.full(num_stripes * txs_per_stripe, float(height))])
    return Deployment(
        num_stripes=num_stripes,
        txs_per_stripe=txs_per_stripe,
        antennas_per_tx=antennas_per_tx,
        area=(width, depth),
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
    stripe line, at the depth (y) of the stripe's master TX; equidistant
    stripes are broken toward the lower stripe index so association is
    deterministic.
    """
    if not 1 <= num_serving <= deployment.num_stripes:
        raise ValueError(
            f"serving stripe count {num_serving} outside 1..{deployment.num_stripes}"
        )
    rx = deployment.rx_positions
    if rx.shape[0] == 0:
        raise ValueError("deployment has no users")
    depths = deployment.tx_positions[[stripe[0] for stripe in deployment.stripes()], 1]
    serving = []
    for k in range(rx.shape[0]):
        d = np.abs(rx[k, 1] - depths)
        order = np.lexsort((np.arange(deployment.num_stripes), d))
        serving.append(tuple(sorted(order[:num_serving].tolist())))
    return association_from_stripes(
        serving, deployment.num_stripes, deployment.txs_per_stripe
    )
