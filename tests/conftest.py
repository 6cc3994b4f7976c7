"""Shared builders for finite-support stripe problems and closed-form runs."""

import itertools
import os
import signal
import time

import numpy as np
import pytest

from tmmse import parallel
from tmmse.channel import from_local_supports
from tmmse.oracle import FiniteTeamProblem
from tmmse.precoding import apply_scheme, fit_scheme
from tmmse.topology import association_from_stripes, stripe_layout


def random_point(rng, num_users, n_antennas, scale=0.7, offset=0.0):
    shape = (num_users, n_antennas)
    return offset + scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_support(rng, n_points, num_users, n_antennas, scale=0.7, offset=0.0):
    probs = rng.random(n_points) + 0.25
    probs /= probs.sum()
    return [
        (random_point(rng, num_users, n_antennas, scale, offset), probs[i])
        for i in range(n_points)
    ]


def random_error_support(rng, n_points, num_users, n_antennas, scale=0.3):
    if n_points == 1:
        return [(np.zeros((num_users, n_antennas), complex), 1.0)]
    sup = random_support(rng, n_points, num_users, n_antennas, scale)
    mean = sum(p * v for v, p in sup)
    return [(v - mean, p) for v, p in sup]


def random_supports(
    rng, n_txs, num_users, with_errors=True, max_points=256,
    n_antennas=1, mean_offset=0.4,
):
    """Independent per-TX estimate/error supports (<= 3 estimate points and
    <= 2 error points per TX), capped so the joint product stays tractable."""
    est_supports, err_supports = [], []
    budget = max_points
    for _ in range(n_txs):
        n_est = int(rng.integers(1, 4))
        n_err = int(rng.integers(1, 3)) if with_errors else 1
        while n_est * n_err > max(budget, 1):
            if n_err > 1:
                n_err -= 1
            elif n_est > 1:
                n_est -= 1
            else:
                break
        budget = max(budget // (n_est * n_err), 1)
        est_supports.append(
            random_support(rng, n_est, num_users, n_antennas, offset=mean_offset)
        )
        err_supports.append(random_error_support(rng, n_err, num_users, n_antennas))
    return est_supports, err_supports


def random_association(rng, num_stripes, txs_per_stripe, num_users):
    serving = []
    for _ in range(num_users):
        size = int(rng.integers(1, num_stripes + 1))
        serving.append(tuple(sorted(rng.choice(num_stripes, size=size, replace=False))))
    return association_from_stripes(serving, num_stripes, txs_per_stripe)


def random_stripe_setup(
    rng,
    num_stripes,
    txs_per_stripe,
    num_users,
    structure,
    with_errors=True,
    max_points=256,
    n_antennas=1,
    mean_offset=0.4,
):
    """Random finite-support model with independent per-TX supports,
    information labels for the given sharing structure, and a random
    user-centric stripe association."""
    L = num_stripes * txs_per_stripe
    stripes = stripe_layout(num_stripes, txs_per_stripe)
    est_supports, err_supports = random_supports(
        rng, L, num_users, with_errors, max_points, n_antennas, mean_offset
    )
    model = from_local_supports(
        est_supports, err_supports, structure, stripes,
        n_antennas=n_antennas, max_points=max_points,
    )
    assoc = random_association(rng, num_stripes, txs_per_stripe, num_users)
    w = rng.random(num_users) + 0.3
    w /= w.sum()
    total_power = float(rng.uniform(1.0, 8.0))
    return model, stripes, assoc, w, total_power


def sign_symmetric_model(rng, n_txs, num_users, structure="no-share"):
    """Zero-mean finite support closed under per-entry sign flips, so the
    no-sharing coupling matrices are exactly diagonal (NLoS-like case)."""
    stripes = [[l] for l in range(n_txs)]
    est_supports = []
    for l in range(n_txs):
        base = 0.3 + 0.7 * rng.random(num_users)
        pts = [
            (np.array(signs)[:, None] * base[:, None] + 0j, 1.0 / 2**num_users)
            for signs in itertools.product([1.0, -1.0], repeat=num_users)
        ]
        est_supports.append(pts)
    err_supports = [
        [(np.zeros((num_users, 1), complex), 1.0)] for _ in range(n_txs)
    ]
    model = from_local_supports(
        est_supports, err_supports, structure, stripes,
        max_points=2 ** (num_users * n_txs),
    )
    return model, stripes


def closed_form_stack(model, scheme, assoc, stripes, w, total_power):
    """Fit and apply a scheme on the exact ensemble of a finite model."""
    ens = model.ensemble()
    psi = model.psi_stack(w)
    state = fit_scheme(scheme, ens, assoc, stripes, psi, w, total_power)
    return apply_scheme(state, ens, assoc, stripes, psi, w, total_power)


def team_problem(model, assoc, w, total_power):
    return FiniteTeamProblem(
        model=model,
        serving_txs=assoc.serving_txs,
        w=np.asarray(w, float),
        total_power=total_power,
    )


def assert_class_constant(model, stack, atol=1e-9):
    """Measurability: per-TX precoder values equal within information classes."""
    n = model.n_antennas
    for l in range(model.num_txs):
        for members in model.classes(l).values():
            block = stack[members, l * n : (l + 1) * n, :]
            spread = np.abs(block - block[:1]).max()
            assert spread < atol, f"TX {l} precoder varies within a class ({spread:.2e})"


def forked_exit_code(body, alarm_s):
    """Exit code of a forked child that runs body() under an alarm of alarm_s
    seconds: 0 if body returned a true value, 1 if it returned a false one or
    raised, -SIGALRM if the alarm ended it, None if even that did not."""
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.alarm(alarm_s)
            status = 0 if body() else 1
        finally:
            os._exit(status)
    deadline = time.monotonic() + 2 * alarm_s
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        return None
    return os.waitstatus_to_exitcode(done[1])


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(params=[1, 2, 4])
def n_workers(request, monkeypatch):
    """Threads of the shared pool; 4 is more than this code ever asks for on
    a 2-core machine."""
    monkeypatch.setattr(parallel, "workers", lambda: request.param)
    return request.param
