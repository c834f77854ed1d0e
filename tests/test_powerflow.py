"""Newton power flow against a closed-form two-bus oracle and scheduled
injection checks on the packaged case."""

import numpy as np
import pytest

import coherence_lab as cl
from coherence_lab.errors import ConvergenceError
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
    eq = cl.check_equilibrium(cl.build_linear_model(net68, ms68, op, lossless=False), op)
    assert eq.max_residual < 1e-8
    # every family individually small, not just the max
    assert all(v < 1e-8 for v in eq.families.values())


def test_init_dynamic_states_with_gfms():
    net, ms = build_small_system(11, n_m=6, n_gfm=2)
    sol, op = solve_and_init(net, ms)
    eq = cl.check_equilibrium(cl.build_linear_model(net, ms, op, lossless=False), op)
    assert eq.max_residual < 1e-8
    assert op.gfm_e.shape == (2,)
    assert np.all(op.gfm_e > 0.5)


def test_sg_internal_voltage_consistency(net68, ms68):
    # E exp(j delta) = V + j xd' I at every SG terminal
    sol, op = solve_and_init(net68, ms68)
    y = build_admittance(net68)
    i_net = y @ sol.v
    for i, m in enumerate(ms68.sgs):
        k = net68.index_of[m.bus]
        u = sol.v[k] + 1j * m.xd_prime * i_net[k]
        assert abs(u - op.sg_e[i] * np.exp(1j * op.sg_delta[i])) < 1e-9
