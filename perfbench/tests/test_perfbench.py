"""Self-test of the benchmark: each output check fails on a corrupted
result, and the traced call counts repeat exactly between traced runs.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from coherence_lab.machines import machines_from_dict  # noqa: E402
from coherence_lab.network import network_from_dict  # noqa: E402
from coherence_lab.scenario import run_pipeline, scenario_from_dict  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def ieee68(tmp_path_factory):
    wl = workloads.Ieee68Penetration(seed=3, work=tmp_path_factory.mktemp("work"))
    yield wl
    wl.close()


@pytest.fixture(scope="module")
def outcome(ieee68):
    """scenario2: three SGs replaced, artifacts in every format."""
    return ieee68.call(ieee68.items[-1])


@pytest.fixture()
def result(outcome):
    assert not outcome.failed
    return outcome.jobs[0], copy.deepcopy(outcome.reports[0])


def test_checks_pass_on_the_program_output(outcome):
    job, report = outcome.jobs[0], outcome.reports[0]
    checks.check_job(job, report, outcome.out_dir, closed_form=True)


def test_checks_pass_on_a_ring_grid():
    [job] = workloads.ring_jobs(seed=5, count=1, n_m=20, n_replace=3, areas_r=3)
    report = run_pipeline(network_from_dict(job.net_dict),
                          machines_from_dict(job.machines_dict),
                          scenario_from_dict(job.scenario_dict))
    checks.check_job(job, report, None, closed_form=True)


def test_perturbed_laplacian_entry_fails(result):
    job, report = result
    report.scenario.lap.l[2, 5] += 1e-6
    with pytest.raises(checks.CheckFailure, match="row sum"):
        checks.check_laplacian(report.scenario)
    with pytest.raises(checks.CheckFailure, match="closed form"):
        checks.check_closed_form(job.net_dict, report.scenario)


def test_symmetric_perturbation_fails_the_spectrum_check(result):
    _, report = result
    l = report.base.lap.l
    for i, j in ((2, 5), (5, 2)):
        l[i, j] += 1e-3
    for i in (2, 5):
        l[i, i] -= 1e-3
    with pytest.raises(checks.CheckFailure, match="slow spectrum"):
        checks.check_laplacian(report.base)


def test_machine_dropped_from_its_area_fails(result):
    job, report = result
    part = report.scenario.part
    area = next(a for a in part.areas if len(a) > 1)
    ref = set(part.reference_buses)
    area.remove(next(b for b in area if b not in ref))
    with pytest.raises(checks.CheckFailure, match="partition"):
        checks.check_partition(report.scenario, job.scenario_dict["areas_r"])


def test_reference_machine_moved_out_of_its_area_fails(result):
    job, report = result
    part = report.base.part
    ref = part.reference_buses[0]
    part.areas[0].remove(ref)
    part.areas[1].append(ref)
    with pytest.raises(checks.CheckFailure, match="reference machine"):
        checks.check_partition(report.base, job.scenario_dict["areas_r"])


def test_scaled_voltages_fail(result):
    job, report = result
    report.base.sol.v = report.base.sol.v * 1.001
    with pytest.raises(checks.CheckFailure, match="power-flow mismatch"):
        checks.check_power_flow(job.net_dict, report.base, job.scenario_dict["options"]["tol"])


def test_heavier_gfm_fails(result):
    job, report = result
    report.scenario.lap.m_e[:] = report.base.lap.m_e * 2.0
    with pytest.raises(checks.CheckFailure, match="not lighter"):
        checks.check_gfm_slots(report, job.scenario_dict["replacements"])


@pytest.mark.parametrize("artifact", ["report.json", "l.csv"])
def test_truncated_artifact_fails(tmp_path, outcome, artifact):
    report = outcome.reports[0]
    name = report.spec.name
    out = tmp_path / "out"
    shutil.copytree(outcome.out_dir, out)
    path = (out / f"{name}.report.json" if artifact == "report.json"
            else out / f"{name}.matrices" / name / "l.csv")
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(checks.CheckFailure):
        checks.check_artifacts(report, out)


def traced_counts(wl, items) -> dict[str, int]:
    tracer = Tracer()
    for item in items:
        with tracer:
            outcome = wl.call(item)
        assert not outcome.failed
    return {name: row["calls"] for name, row in tracer.summary().items()}


def test_traced_call_counts_repeat(ieee68):
    items = ieee68.items[:2] + ieee68.items[-2:]
    first = traced_counts(ieee68, items)
    second = traced_counts(ieee68, items)
    assert first == second
    assert first["network.build_admittance"] == 12 * len(items)
    assert first["reportio.case_to_dict"] == 4 * len(items)
    assert first["cli.main"] == len(items)


def test_tracer_restores_every_binding():
    import coherence_lab.cli as cli
    import coherence_lab.scenario as scenario

    before = (scenario.solve_power_flow, cli.emit, np.linalg.solve)
    with Tracer():
        assert scenario.solve_power_flow is not before[0]
        assert np.linalg.solve is not before[2]
    assert (scenario.solve_power_flow, cli.emit, np.linalg.solve) == before
