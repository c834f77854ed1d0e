"""Newton power flow against a closed-form two-bus oracle and scheduled
injection checks on the packaged case."""

import dataclasses

import numpy as np
import pytest

import coherence_lab as cl
from coherence_lab.errors import ConvergenceError, ValidationError
from coherence_lab.machines import machines_from_dict
from coherence_lab.network import build_admittance, network_from_dict

from conftest import DATA, build_small_system, solve_and_init, two_bus_dicts, two_bus_solution


def solve_two_bus(x=0.1, p_load=0.5, q_load=0.2, **opts):
    nd, md = two_bus_dicts(x=x, p_load=p_load, q_load=q_load)
    net = network_from_dict(nd)
    ms = machines_from_dict(md)
    sol = cl.solve_power_flow(net, ms, cl.PowerFlowOptions(**opts))
    return net, ms, sol


def test_two_bus_matches_closed_form():
    _, _, sol = solve_two_bus(tol=1e-12)
    want = two_bus_solution()
    assert abs(sol.v[1] - want) < 1e-10
    assert sol.v[0] == pytest.approx(1.0)
    assert np.angle(sol.v[0]) == 0.0


@pytest.mark.parametrize("x,p,q", [
    (0.05, 0.3, 0.1),
    (0.2, 0.8, 0.3),
    (0.4, 0.6, 0.05),
])
def test_two_bus_family(x, p, q):
    _, _, sol = solve_two_bus(x=x, p_load=p, q_load=q, tol=1e-12)
    assert abs(sol.v[1] - two_bus_solution(x, p, q)) < 1e-10


def test_two_bus_slack_covers_load():
    net, _, sol = solve_two_bus()
    k = net.index_of[1]
    assert sol.p_inj[k] == pytest.approx(0.5, abs=1e-8)  # lossless line
    assert sol.q_inj[net.index_of[2]] == pytest.approx(-0.2, abs=1e-8)


def residual_from_scratch(net, ms, sol):
    """Recompute S = V (Y V)* and compare against the scheduled values,
    independent of the solver's own mismatch bookkeeping."""
    y = build_admittance(net)
    s = sol.v * np.conj(y @ sol.v)
    worst = 0.0
    gen_p = {m.bus: m.p_set for m in ms.sgs}
    for m in ms.gfms:
        gen_p[m.bus] = gen_p.get(m.bus, 0.0) + m.p_set
    for b in net.buses:
        k = net.index_of[b.id]
        sched_p = gen_p.get(b.id, 0.0) - b.load_p
        if b.kind == "pq":
            worst = max(worst, abs(s[k].real - sched_p), abs(s[k].imag + b.load_q))
        elif b.kind == "pv":
            worst = max(worst, abs(s[k].real - sched_p), abs(abs(sol.v[k]) - b.v_setpoint))
        else:
            worst = max(worst, abs(abs(sol.v[k]) - b.v_setpoint), abs(np.angle(sol.v[k])))
    return worst


def test_fixture_power_flow_converges(net68, ms68):
    sol = cl.solve_power_flow(net68, ms68, cl.PowerFlowOptions())
    assert sol.max_mismatch <= 1e-8
    assert residual_from_scratch(net68, ms68, sol) <= 1e-7
    assert sol.iterations <= 15
    assert sol.residual_history[-1] == sol.max_mismatch


def test_fixture_total_load():
    net = cl.load_network(DATA / "network.json")
    total_mw = sum(b.load_p for b in net.buses) * net.base_mva
    assert abs(total_mw - 18408.0) / 18408.0 < 0.01


@pytest.mark.parametrize("seed", range(40, 48))
def test_random_systems_converge(seed):
    net, ms = build_small_system(seed)
    sol, op = solve_and_init(net, ms)
    assert sol.max_mismatch <= 1e-10
    assert residual_from_scratch(net, ms, sol) <= 1e-9
    # pv magnitudes pinned
    for b in net.buses:
        if b.kind == "pv":
            assert abs(sol.v[net.index_of[b.id]]) == pytest.approx(b.v_setpoint)


def test_gfm_bus_behaves_as_pv():
    net, ms = build_small_system(7, n_m=6, n_gfm=2)
    sol, op = solve_and_init(net, ms)
    for g in ms.gfms:
        k = net.index_of[g.bus]
        assert abs(sol.v[k]) == pytest.approx(net.bus(g.bus).v_setpoint)
        assert sol.p_inj[k] == pytest.approx(g.p_set, abs=1e-9)


def test_infeasible_loading_raises():
    # past the nose of the PV curve there is no solution
    with pytest.raises(ConvergenceError) as exc_info:
        solve_two_bus(x=0.5, p_load=1.2, q_load=0.5)
    err = exc_info.value
    assert err.exit_code == 2
    assert len(err.residual_history) > 0


def test_iteration_cap_respected():
    with pytest.raises(ConvergenceError):
        solve_two_bus(x=0.5, p_load=1.2, q_load=0.5, max_iter=5)


def test_init_dynamic_states_is_equilibrium(net68, ms68):
    sol, op = solve_and_init(net68, ms68)
    eq = cl.check_equilibrium(cl.build_linear_model(net68, ms68, op, lossless=False))
    assert eq.max_residual < 1e-8
    # every family individually small, not just the max
    assert all(v < 1e-8 for v in eq.families.values())


def test_init_dynamic_states_with_gfms():
    net, ms = build_small_system(11, n_m=6, n_gfm=2)
    sol, op = solve_and_init(net, ms)
    eq = cl.check_equilibrium(cl.build_linear_model(net, ms, op, lossless=False))
    assert eq.max_residual < 1e-8
    # fleet order: the GFM half follows the SGs and holds the bus voltage
    n_sg = len(ms.sgs)
    assert op.delta.shape == op.e.shape == op.p_eff.shape == (n_sg + 2,)
    k = [net.index_of[g.bus] for g in ms.gfms]
    np.testing.assert_allclose(op.delta[n_sg:], np.angle(sol.v[k]), rtol=0, atol=1e-14)
    np.testing.assert_allclose(op.e[n_sg:], np.abs(sol.v[k]), rtol=0, atol=1e-14)
    for j, g in enumerate(ms.gfms):
        q_gen = sol.q_inj[k[j]] + net.bus(g.bus).load_q
        want = abs(sol.v[k[j]]) - g.lambda_q * (g.q_set - q_gen)
        assert op.gfm_vs_eff[j] == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("kind,i", [("sgs", 1), ("gfms", 0)])
def test_init_dynamic_states_checks_the_schedule(kind, i):
    """A solution that misses one non-slack machine's schedule by 1e-3 is
    refused, and the message names the machine."""
    net, ms = build_small_system(11, n_m=6, n_gfm=2)
    sol = cl.solve_power_flow(net, ms, cl.PowerFlowOptions(tol=1e-10))
    fleet = list(getattr(ms, kind))
    m = fleet[i]
    assert m.bus != net.slack_id()
    fleet[i] = dataclasses.replace(m, p_set=m.p_set + 1e-3)
    moved = dataclasses.replace(ms, **{kind: fleet})
    with pytest.raises(ValidationError, match=rf"^{kind[:-1]} at bus {m.bus}: solved output"):
        cl.init_dynamic_states(net, moved, sol)


def test_overflow_is_a_convergence_error():
    """An input so large that the iteration overflows ends as a typed error
    that keeps the residual history, and numpy warns of nothing."""
    with pytest.raises(ConvergenceError, match="diverged: overflow") as exc_info:
        solve_two_bus(p_load=1e300)
    assert exc_info.value.residual_history[0] == pytest.approx(1e300)


def test_sg_internal_voltage_consistency(net68, ms68):
    # E exp(j delta) = V + j xd' I at every SG terminal
    sol, op = solve_and_init(net68, ms68)
    y = build_admittance(net68)
    i_net = y @ sol.v
    for i, m in enumerate(ms68.sgs):
        k = net68.index_of[m.bus]
        u = sol.v[k] + 1j * m.xd_prime * i_net[k]
        assert abs(u - op.e[i] * np.exp(1j * op.delta[i])) < 1e-9


# ---------------------------------------------------------------------------
# Newton Jacobian on the admittance pattern

def zero_diagonal_network():
    """Bus 2's shunt cancels its one branch, so Y_22 is exactly 0 while
    dS_2/dθ_2 is not: the pattern must hold the whole diagonal."""
    return network_from_dict({
        "base_mva": 100.0, "f0_hz": 60.0,
        "buses": [{"id": 1, "kind": "slack", "v_setpoint": 1.0},
                  {"id": 2, "kind": "pq", "shunt_b": 2.0}],
        "branches": [{"from": 1, "to": 2, "r": 0.0, "x": 0.5}],
    })


NEWTON_NETWORKS = {
    "ieee68": lambda: cl.load_network(DATA / "network.json"),
    "ring12": lambda: build_small_system(3, n_m=12, n_gfm=2)[0],
    "ring80": lambda: build_small_system(11, n_m=40)[0],
    "zero-diagonal": zero_diagonal_network,
}


def dense_newton_jacobian(ybus, v, vm, pvpq, pq):
    """Every entry of dS/dθ and dS/d|V|, then the unknowns' rows and columns."""
    ibus = ybus @ v
    dv_norm = v / vm
    ds_dva = 1j * (v[:, None] * np.conj(np.diag(ibus) - ybus * v[None, :]))
    ds_dvm = v[:, None] * np.conj(ybus * dv_norm[None, :]) + np.diag(np.conj(ibus) * dv_norm)
    return np.block([
        [ds_dva.real[np.ix_(pvpq, pvpq)], ds_dvm.real[np.ix_(pvpq, pq)]],
        [ds_dva.imag[np.ix_(pq, pvpq)], ds_dvm.imag[np.ix_(pq, pq)]],
    ])


def power_mismatch(ybus, va, vm, pvpq, pq):
    v = vm * np.exp(1j * va)
    s = v * np.conj(ybus @ v)
    return np.concatenate([s.real[pvpq], s.imag[pq]])


@pytest.mark.parametrize("name", NEWTON_NETWORKS)
def test_newton_jacobian_matches_dense_formula_and_differences(name):
    net = NEWTON_NETWORKS[name]()
    ybus = build_admittance(net)
    if name == "zero-diagonal":
        assert ybus[1, 1] == 0
    kinds = np.array([b.kind for b in net.buses])
    pq = np.flatnonzero(kinds == "pq")
    pvpq = np.flatnonzero(kinds != "slack")
    rng = np.random.default_rng(5)
    va = rng.uniform(-0.3, 0.3, net.n_bus)
    vm = rng.uniform(0.95, 1.05, net.n_bus)
    v = vm * np.exp(1j * va)

    # imported here, so a renamed private helper fails only this test and
    # not the collection of the modules that import this one
    from coherence_lab.powerflow import _newton_jacobian

    got = _newton_jacobian(ybus, pvpq, pq)(v, vm, ybus @ v)
    np.testing.assert_array_equal(got, dense_newton_jacobian(ybus, v, vm, pvpq, pq))

    h = 1e-6
    fd = np.zeros_like(got)
    for c in range(got.shape[1]):
        step_a, step_m = np.zeros(net.n_bus), np.zeros(net.n_bus)
        if c < pvpq.size:
            step_a[pvpq[c]] = h
        else:
            step_m[pq[c - pvpq.size]] = h
        fd[:, c] = (power_mismatch(ybus, va + step_a, vm + step_m, pvpq, pq)
                    - power_mismatch(ybus, va - step_a, vm - step_m, pvpq, pq)) / (2 * h)
    assert np.max(np.abs(got - fd)) <= 1e-6 * np.max(np.abs(got))
