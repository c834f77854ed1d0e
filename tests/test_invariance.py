"""The pipeline's answers do not depend on how the input is written down.

Each test re-expresses the bundled inputs (another order of the machines,
of the buses and branches, other bus ids, a rescaled inertia) and checks
that the run gives the same answers, mapped through the change. Shuffles
use fixed seeds, so a tier-1 run repeats. Tolerances are stated per
quantity; each is far above the differences measured on these cases and
far below any real change.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import coherence_lab as cl
from coherence_lab.network import network_from_dict
from coherence_lab.machines import machines_from_dict
from coherence_lab.scenario import CaseResult, ScenarioReport, scenario_from_dict

from conftest import DATA

SCENARIOS = ["scenario1", "scenario2"]
SEEDS = range(3)
# permuted inputs change the order of the sums inside every solve, so the
# last bits move. Measured over 10 shuffles of each kind per scenario, at 1
# and at 2 BLAS threads: up to 3.9e-14 of max |L| on L, 6.3e-14 relative on
# mode frequencies, 1.9e-14 on correlations, 2.5e-14 relative on ||sin Theta||
L_REL = FREQ_REL = CORR_ABS = SIN_THETA_REL = 1e-10
# every SG inertia scaled by c: measured up to 1.2e-15 of the largest slow
# eigenvalue and 4.7e-15 relative on the mode frequencies
SCALE_REL = 1e-12
# In scenario1 one scenario area shares 4 slots with each of two base areas.
# compare_cases gives it to the lower area index, and the area indices
# follow the SG order of machines.json, so these shuffles flip 53, 54, 55
# and 60 instead of 62 to 65. Everything else agrees; the flipped machines
# are checked last. Goes when the area matching is one to one.
FLIPPED_BY_ORDER = {("scenario1", 1), ("scenario1", 2)}


def inputs(name: str) -> tuple[dict, dict, dict]:
    return tuple(json.loads((DATA / f"{file}.json").read_text())
                 for file in ("network", "machines", name))


def run(net: dict, machines: dict, scenario: dict) -> ScenarioReport:
    return cl.run_pipeline(network_from_dict(net), machines_from_dict(machines),
                           scenario_from_dict(scenario))


def shuffled(items: list, rng: np.random.Generator) -> list:
    return [items[i] for i in rng.permutation(len(items))]


def assert_same_case(want: CaseResult, got: CaseResult, bus) -> None:
    """got is want with every bus b renamed bus(b) and its machines in any order."""
    assert ({frozenset(map(bus, area)) for area in want.part.areas}
            == {frozenset(area) for area in got.part.areas})
    rows = [got.slot_buses.index(bus(b)) for b in want.slot_buses]
    l = got.lap.l[np.ix_(rows, rows)]
    assert np.max(np.abs(l - want.lap.l)) <= L_REL * np.max(np.abs(want.lap.l))
    assert len(got.modes_all) == len(want.modes_all)
    np.testing.assert_allclose([m.freq_hz for m in got.modes_all],
                               [m.freq_hz for m in want.modes_all], rtol=FREQ_REL, atol=0)


def assert_same_report(want: ScenarioReport, got: ScenarioReport, bus=lambda b: b) -> None:
    assert_same_case(want.base, got.base, bus)
    assert_same_case(want.scenario, got.scenario, bus)
    assert len(got.mode_track) == len(want.mode_track)
    for a, b in zip(want.mode_track, got.mode_track):
        for key in ("base_freq_hz", "scenario_freq_hz"):
            assert b[key] == pytest.approx(a[key], rel=FREQ_REL, abs=0)
        assert b["correlation"] == pytest.approx(a["correlation"], rel=0, abs=CORR_ABS)
    assert got.comparison.theta_matrix_norm == pytest.approx(
        want.comparison.theta_matrix_norm, rel=SIN_THETA_REL, abs=0)
    assert sorted(map(bus, want.flipped)) == sorted(got.flipped)  # last: see FLIPPED_BY_ORDER


@pytest.fixture(scope="module", params=SCENARIOS)
def bundled(request):
    """The bundled inputs of one scenario and the report they give."""
    net, machines, scenario = inputs(request.param)
    return net, machines, scenario, run(net, machines, scenario)


@pytest.mark.parametrize("seed", SEEDS)
def test_sg_order_does_not_matter(bundled, seed, request):
    if (request.node.callspec.params["bundled"], seed) in FLIPPED_BY_ORDER:
        request.applymarker(pytest.mark.xfail(
            strict=True, reason="a tie in compare_cases' area matching goes by SG order"))
    net, machines, scenario, want = bundled
    machines = {**machines, "sgs": shuffled(machines["sgs"], np.random.default_rng(seed))}
    assert_same_report(want, run(net, machines, scenario))


@pytest.mark.parametrize("seed", SEEDS)
def test_bus_and_branch_order_does_not_matter(bundled, seed):
    """Another order of the same grid. The undamped base has a split zero
    pair that lands real or imaginary with the order; it is never a mode, so
    the base keeps its 15."""
    net, machines, scenario, want = bundled
    rng = np.random.default_rng(seed)
    net = {**net, "buses": shuffled(net["buses"], rng), "branches": shuffled(net["branches"], rng)}
    got = run(net, machines, scenario)
    assert len(got.base.modes_all) == len(want.base.modes_all) == 15
    assert_same_report(want, got)


def test_bus_ids_do_not_matter(bundled):
    """Every bus b renamed 1000 - b in all three files: the same answers under
    the new names, with the subspace angles to the bit, as the matrices keep
    their file order."""
    net, machines, scenario, want = bundled

    def bus(b):
        return 1000 - b

    net = {**net,
           "buses": [{**b, "id": bus(b["id"])} for b in net["buses"]],
           "branches": [{**br, "from": bus(br["from"]), "to": bus(br["to"])}
                        for br in net["branches"]]}
    machines = {kind: [{**m, "bus": bus(m["bus"])} for m in fleet]
                for kind, fleet in machines.items()}
    scenario = {**scenario, "replacements": [
        {**r, "retire_sg_bus": bus(r["retire_sg_bus"]), "gfm_bus": bus(r["gfm_bus"])}
        for r in scenario["replacements"]]}
    got = run(net, machines, scenario)
    assert_same_report(want, got, bus)
    assert got.comparison.theta_matrix_norm == want.comparison.theta_matrix_norm


@pytest.mark.parametrize("c", [0.5, 3.0])
def test_inertia_scale_scales_the_base_spectrum(bundled, c):
    """Every SG inertia m times c. The base case is all SGs, so M_e is c M_e:
    L does not move at all, the areas stay, the slow eigenvalues of
    M_e^{-1} L scale by 1/c and the undamped mode frequencies by 1/sqrt(c)."""
    net, machines, scenario, want = bundled
    machines = {**machines, "sgs": [{**m, "m": m["m"] * c} for m in machines["sgs"]]}
    want, got = want.base, run(net, machines, scenario).base
    assert np.array_equal(got.lap.l, want.lap.l)
    assert got.part.areas == want.part.areas
    np.testing.assert_allclose(got.sub.eigenvalues, want.sub.eigenvalues / c,
                               rtol=SCALE_REL, atol=SCALE_REL * np.max(np.abs(want.sub.eigenvalues)))
    assert len(got.modes_all) == len(want.modes_all)
    np.testing.assert_allclose([m.freq_hz for m in got.modes_all],
                               [m.freq_hz / np.sqrt(c) for m in want.modes_all],
                               rtol=SCALE_REL, atol=0)
