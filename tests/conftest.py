"""Shared fixtures: the packaged 68-bus case, synthetic small systems,
and random Laplacian pairs for perturbation-bound tests.

The expensive pipeline runs are session-scoped; nothing in the suite
mutates them.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import coherence_lab as cl
from coherence_lab.linearize import LaplacianPair

DATA = Path(cl.__file__).parent / "data" / "ieee68"

# property tests draw the same examples on every run and keep no example
# database, so a tier-1 result repeats; hypothesis still caches the
# constants of the scanned source at collection, whatever the database,
# so its storage goes to the system temporary directory, not the tree
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "coherence-lab-hypothesis")

OMEGA0 = 2.0 * np.pi * 60.0


@pytest.fixture(autouse=True)
def cold_base_memo(monkeypatch):
    """Each test starts with no kept base case, so a test that patches a
    base-case stage sees that stage run."""
    monkeypatch.setattr(cl.scenario, "_last_base", None)


# ---------------------------------------------------------------------------
# packaged 68-bus fixture

@pytest.fixture(scope="session")
def net68():
    return cl.load_network(DATA / "network.json")


@pytest.fixture(scope="session")
def ms68():
    return cl.load_machines(DATA / "machines.json")


@pytest.fixture(scope="session")
def report_base(net68, ms68):
    return cl.run_pipeline(net68, ms68, cl.load_scenario(DATA / "base.json"))


@pytest.fixture(scope="session")
def report_s1(net68, ms68):
    return cl.run_pipeline(net68, ms68, cl.load_scenario(DATA / "scenario1.json"))


@pytest.fixture(scope="session")
def report_s2(net68, ms68):
    return cl.run_pipeline(net68, ms68, cl.load_scenario(DATA / "scenario2.json"))


@pytest.fixture(scope="session")
def case_base(report_s1):
    # identical to report_base.base; reuse the scenario run's copy
    return report_s1.base


# ---------------------------------------------------------------------------
# synthetic systems

def two_bus_dicts(x=0.1, p_load=0.5, q_load=0.2):
    """Slack machine feeding one load over a single reactance."""
    net = {
        "base_mva": 100.0,
        "f0_hz": 60.0,
        "buses": [
            {"id": 1, "kind": "slack", "v_setpoint": 1.0},
            {"id": 2, "kind": "pq", "load_p": p_load, "load_q": q_load},
        ],
        "branches": [{"from": 1, "to": 2, "r": 0.0, "x": x}],
    }
    machines = {
        "sgs": [{"bus": 1, "m": 2 * 5.0 / OMEGA0, "d": 0.0,
                 "xd_prime": 0.08, "p_set": p_load}],
        "gfms": [],
    }
    return net, machines


def two_bus_solution(x=0.1, p_load=0.5, q_load=0.2):
    """Closed form for the two-bus case with V1 = 1 at angle 0.

    Writing V2 = a + jb, the load balance gives b = -P*x and
    a^2 - a + (b^2 + Q*x) = 0; the high-voltage root is the operating
    point Newton converges to from a flat start.
    """
    b = -p_load * x
    disc = 1.0 - 4.0 * (b * b + q_load * x)
    if disc < 0.0:
        raise ValueError("no power flow solution at this loading")
    a = 0.5 * (1.0 + np.sqrt(disc))
    return complex(a, b)


@pytest.fixture()
def two_bus_files(tmp_path):
    """Write the two-bus fixture to disk for CLI and batch tests."""
    net, machines = two_bus_dicts()
    np_ = tmp_path / "net.json"
    mp = tmp_path / "machines.json"
    np_.write_text(json.dumps(net))
    mp.write_text(json.dumps(machines))
    return np_, mp


def build_small_system(seed, n_m=None, n_gfm=0):
    """Random ring grid with one generator hung off each grid bus.

    Sized and loaded so a flat Newton start converges; n_gfm of the
    non-slack machines are grid-forming units instead of SGs.
    """
    rng = np.random.default_rng(seed)
    if n_m is None:
        n_m = int(rng.integers(5, 11))
    assert n_gfm < n_m
    grid = list(range(1, n_m + 1))
    gen = list(range(n_m + 1, 2 * n_m + 1))

    branches = []
    for i in range(n_m):
        branches.append({
            "from": grid[i], "to": grid[(i + 1) % n_m],
            "r": 0.0, "x": float(rng.uniform(0.05, 0.20)),
            "b_charging": float(rng.uniform(0.0, 0.08)),
        })
    if n_m >= 5:
        branches.append({
            "from": grid[0], "to": grid[n_m // 2],
            "r": 0.0, "x": float(rng.uniform(0.08, 0.20)),
        })
    for i in range(n_m):
        branches.append({
            "from": gen[i], "to": grid[i],
            "r": 0.0, "x": float(rng.uniform(0.02, 0.05)),
            "tap": float(rng.choice([1.0, 1.0, 1.025])),
        })

    loads = rng.uniform(0.3, 0.9, size=n_m)
    share = rng.uniform(0.5, 1.5, size=n_m)
    share = share / share.sum() * float(loads.sum())
    vset = rng.uniform(0.99, 1.04, size=n_m)

    buses = []
    for i in range(n_m):
        buses.append({
            "id": grid[i], "kind": "pq",
            "load_p": float(loads[i]), "load_q": float(0.3 * loads[i]),
        })
    for i in range(n_m):
        kind = "slack" if i == 0 else "pv"
        buses.append({"id": gen[i], "kind": kind, "v_setpoint": float(vset[i])})

    sgs, gfms = [], []
    for i in range(n_m):
        if i >= n_m - n_gfm:
            gfms.append({
                "bus": gen[i],
                "p_set": float(share[i]),
                "v_set": float(vset[i]),
            })
        else:
            sgs.append({
                "bus": gen[i],
                "m": float(2.0 * rng.uniform(2.5, 8.0) / OMEGA0),
                "d": 0.0,
                "xd_prime": float(rng.uniform(0.04, 0.12)),
                "p_set": float(share[i]),
            })

    net = cl.network.network_from_dict({
        "base_mva": 100.0, "f0_hz": 60.0, "buses": buses, "branches": branches,
    })
    ms = cl.machines.machines_from_dict({"sgs": sgs, "gfms": gfms})
    return net, ms


def solve_and_init(net, ms, tol=1e-10):
    sol = cl.solve_power_flow(net, ms, cl.PowerFlowOptions(tol=tol))
    op = cl.init_dynamic_states(net, ms, sol)
    return sol, op


# ---------------------------------------------------------------------------
# synthetic Laplacian pairs for the perturbation bounds

def lap_from_weights(w, m):
    """Wrap a symmetric nonnegative weight matrix as a LaplacianPair.

    Off-diagonal entries are +w, diagonals make rows sum to zero, so the
    matrix is negative semidefinite with one zero eigenvalue when the
    weight graph is connected.
    """
    n = w.shape[0]
    l = w.copy().astype(float)
    np.fill_diagonal(l, 0.0)
    np.fill_diagonal(l, -l.sum(axis=1))
    return LaplacianPair(
        l=l,
        m_e=m.astype(float),
        feedthrough_e=np.zeros((n, n)),
    )


def random_lap_pair(seed):
    """A random connected machine graph plus a small perturbation of it.

    Machine count 4 to 10, relative perturbation scale between 1e-3 and
    1e-1 on both the coupling weights and the masses.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 11))
    r = int(rng.integers(2, max(3, n - 1)))
    scale = float(10.0 ** rng.uniform(-3.0, -1.0))

    w = np.zeros((n, n))
    for i in range(n):
        j = (i + 1) % n
        w[i, j] = w[j, i] = rng.uniform(0.5, 2.0)
    for _ in range(int(rng.integers(1, n))):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            w[i, j] = w[j, i] = w[i, j] + rng.uniform(0.1, 1.0)
    m = rng.uniform(0.05, 0.5, size=n)

    jitter = rng.uniform(-1.0, 1.0, size=(n, n))
    jitter = 0.5 * (jitter + jitter.T)
    w1 = w * (1.0 + scale * jitter)
    m1 = m * (1.0 + scale * rng.uniform(-0.5, 0.5, size=n))

    lap0 = lap_from_weights(w, m)
    lap1 = lap_from_weights(w1, m1)
    sub0 = cl.slow_eigensolve(lap0, r)
    sub1 = cl.slow_eigensolve(lap1, r)
    return lap0, sub0, lap1, sub1
