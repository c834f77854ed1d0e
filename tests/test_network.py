"""Admittance assembly against an independent per-branch stamp, plus
file validation and connectivity."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coherence_lab as cl
from coherence_lab.errors import InputOutputError, ValidationError
from coherence_lab.network import build_admittance, connectivity_check, network_from_dict

from conftest import DATA, build_small_system


def reference_admittance(net, lossless=False):
    """Element-by-element oracle: each branch contributes a 2x2 block
    [[y'+yc', -y'], [-y', y+yc]] with the tap on the from side, where
    y' = y/t per off-diagonal and y/t^2 on the from diagonal."""
    n = net.n_bus
    y = np.zeros((n, n), dtype=complex)
    for br in net.branches:
        f, t = net.index_of[br.from_bus], net.index_of[br.to_bus]
        z = complex(0.0 if lossless else br.r, br.x)
        ys = 1.0 / z
        yc = 0.5j * br.b_charging
        block = np.array([
            [(ys + yc) / (br.tap * br.tap), -ys / br.tap],
            [-ys / br.tap, ys + yc],
        ])
        y[np.ix_([f, t], [f, t])] += block
    for b in net.buses:
        k = net.index_of[b.id]
        y[k, k] += complex(0.0 if lossless else b.shunt_g, b.shunt_b)
    return y


def test_admittance_matches_reference_on_fixture(net68):
    for lossless in (False, True):
        got = build_admittance(net68, lossless=lossless)
        want = reference_admittance(net68, lossless=lossless)
        assert np.max(np.abs(got - want)) < 1e-14


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**6))
def test_admittance_matches_reference_on_random_nets(seed):
    net, _ = build_small_system(seed)
    got = build_admittance(net)
    want = reference_admittance(net)
    assert np.max(np.abs(got - want)) < 1e-14


def test_tap_branch_stamp_values():
    net = network_from_dict({
        "base_mva": 100.0, "f0_hz": 60.0,
        "buses": [
            {"id": 1, "kind": "slack", "v_setpoint": 1.0},
            {"id": 2, "kind": "pq"},
        ],
        "branches": [{"from": 1, "to": 2, "r": 0.0, "x": 0.2, "tap": 1.05}],
    })
    y = build_admittance(net)
    ys = 1.0 / 0.2j
    assert y[0, 0] == pytest.approx(ys / 1.05**2)
    assert y[1, 1] == pytest.approx(ys)
    assert y[0, 1] == pytest.approx(-ys / 1.05)
    # off-diagonal stays symmetric even off-nominal
    assert y[0, 1] == y[1, 0]
    assert y[0, 0] != y[1, 1]


def test_parallel_branches_sum():
    base = {
        "base_mva": 100.0, "f0_hz": 60.0,
        "buses": [
            {"id": 1, "kind": "slack", "v_setpoint": 1.0},
            {"id": 2, "kind": "pq"},
        ],
    }
    single = network_from_dict(dict(base, branches=[
        {"from": 1, "to": 2, "r": 0.01, "x": 0.1},
    ]))
    double = network_from_dict(dict(base, branches=[
        {"from": 1, "to": 2, "r": 0.02, "x": 0.2},
        {"from": 1, "to": 2, "r": 0.02, "x": 0.2},
    ]))
    assert np.allclose(build_admittance(single), build_admittance(double))


def test_lossless_strips_conductance_only(net68):
    y = build_admittance(net68, lossless=True)
    assert np.max(np.abs(y.real)) == 0.0
    # susceptance pattern keeps the same sparsity
    yf = build_admittance(net68, lossless=False)
    assert np.array_equal(y.imag != 0.0, np.abs(yf) != 0.0)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**6))
def test_row_sums_vanish_without_shunts(seed):
    # taps, charging and shunts all break the zero-row-sum identity, so
    # strip them before checking
    net, _ = build_small_system(seed)
    stripped = network_from_dict({
        "base_mva": 100.0, "f0_hz": 60.0,
        "buses": [
            {"id": b.id, "kind": b.kind, "v_setpoint": b.v_setpoint}
            for b in net.buses
        ],
        "branches": [
            {"from": br.from_bus, "to": br.to_bus, "r": br.r, "x": br.x}
            for br in net.branches
        ],
    })
    y = build_admittance(stripped)
    assert np.max(np.abs(y @ np.ones(stripped.n_bus))) < 1e-12


def test_connectivity_single_component(net68):
    comps = connectivity_check(net68)
    assert len(comps) == 1
    assert comps[0] == sorted(b.id for b in net68.buses)


def test_connectivity_split_network():
    net = network_from_dict({
        "base_mva": 100.0, "f0_hz": 60.0,
        "buses": [
            {"id": 1, "kind": "slack", "v_setpoint": 1.0},
            {"id": 2, "kind": "pq"},
            {"id": 3, "kind": "pq"},
            {"id": 4, "kind": "pq"},
            {"id": 9, "kind": "pq"},
        ],
        "branches": [
            {"from": 1, "to": 2, "r": 0.0, "x": 0.1},
            {"from": 3, "to": 4, "r": 0.0, "x": 0.1},
        ],
    })
    assert connectivity_check(net) == [[1, 2], [3, 4], [9]]


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d["buses"].append(dict(d["buses"][1])), "duplicate bus id"),
    (lambda d: d["buses"][1].update(kind="load"), "bad kind"),
    (lambda d: d["branches"].append({"from": 1, "to": 99, "r": 0.0, "x": 0.1}),
     "endpoint not a bus"),
    (lambda d: d["branches"].append({"from": 1, "to": 1, "r": 0.0, "x": 0.1}),
     "self loop"),
    (lambda d: d["branches"].append({"from": 1, "to": 2, "r": 0.0, "x": 0.0}),
     "zero impedance"),
    (lambda d: d["buses"][0].pop("v_setpoint"), "requires v_setpoint"),
    (lambda d: d["buses"][0].update(kind="pq"), "exactly one slack"),
    (lambda d: d["branches"][0].pop("from"), r"branches\[0\]: missing field 'from'"),
    (lambda d: d["buses"][1].update(load_p="abc"),
     r"buses\[1\]: bad value 'abc' for field 'load_p'"),
    (lambda d: d["buses"].append(7), r"buses\[2\]: expected an object"),
])
def test_validation_rejects(mutate, fragment):
    d = {
        "base_mva": 100.0, "f0_hz": 60.0,
        "buses": [
            {"id": 1, "kind": "slack", "v_setpoint": 1.0},
            {"id": 2, "kind": "pq"},
        ],
        "branches": [{"from": 1, "to": 2, "r": 0.0, "x": 0.1}],
    }
    mutate(d)
    with pytest.raises(ValidationError, match=fragment):
        network_from_dict(d)


def test_load_network_io_errors(tmp_path):
    with pytest.raises(InputOutputError):
        cl.load_network(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        cl.load_network(bad)


def test_fixture_file_loads_and_indexes():
    net = cl.load_network(DATA / "network.json")
    assert net.n_bus == 68
    assert net.bus(37).load_p > 0
    assert net.slack_id() == 65
    with pytest.raises(ValidationError):
        net.bus(999)


def test_bus_ids_survive_json_roundtrip(net68):
    # order in the file defines the internal index
    raw = json.loads((DATA / "network.json").read_text())
    ids = [b["id"] for b in raw["buses"]]
    assert [net68.buses[net68.index_of[i]].id for i in ids] == ids
