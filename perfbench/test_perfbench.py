"""Checks of the benchmark itself: its correctness gate, seeds and tracer.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

import run
import spans
import workloads

usc = run.import_package()


def rwa_output(g=0.45):
    """A result whose spectrum equals the closed form exactly."""
    params = usc.model.ModelParams(L=68, g=g, j0=34, n_max=1,
                                   coupling_mode="rwa")
    omega = np.linspace(0.7, 1.3, 41)
    t, r = usc.oracles.rwa_single_excitation_scattering(params, omega)
    result = SimpleNamespace(params=params, flags=[])
    spectrum = SimpleNamespace(omega=omega, T=np.abs(t) ** 2,
                               R=np.abs(r) ** 2)
    return result, spectrum


def test_rwa_gate_passes_exact_and_trips_on_perturbed_reference():
    wl = workloads.RwaScan()
    out = rwa_output()
    exact = usc.oracles.rwa_single_excitation_scattering
    metrics, failed = wl.check(usc, None, out)
    assert failed == [] and metrics["T_err"] < 1e-12

    def perturbed(params, omega):
        t, r = exact(params, omega)
        return r, t

    metrics, failed = wl.check(usc, None, out, reference=perturbed)
    assert [f.split()[0] for f in failed] == ["T_err", "R_err"]


def test_rwa_gate_fails_on_run_flags():
    result, spectrum = rwa_output()
    result.flags = ["edge weight 2e-03 at t=40"]
    _, failed = workloads.RwaScan().check(usc, None, (result, spectrum))
    assert failed == ["flag: edge weight 2e-03 at t=40"]


def test_bound_states_gate_trips_on_perturbed_ed_reference():
    wl = workloads.BoundStates()
    params = usc.model.ModelParams(L=6, g=0.6, j0=3, n_max=1)
    ed = usc.oracles.exact_diagonalize(params)
    gap = ed.bound["e2"] - ed.bound["gs"]
    out = (params, (gap, None, ed.bound["gs"]))
    metrics, failed = wl.check(usc, None, out)
    assert failed == [] and max(metrics.values()) < 1e-10

    def perturbed(p):
        res = usc.oracles.exact_diagonalize(p)
        res.bound = dict(res.bound, e2=res.bound["e2"] + 0.01)
        return res

    _, failed = wl.check(usc, None, out, reference=perturbed)
    assert len(failed) == 1 and failed[0].startswith("gap_err")


def test_usc_gate_trips_on_energy_drift():
    snaps = [SimpleNamespace(energy=e, norm=1.0, discarded=0.0)
             for e in (0.5, 0.5, 0.51)]
    k = np.linspace(1.0, 2.0, 11)
    result = SimpleNamespace(snapshots=snaps, flags=[],
                             info=SimpleNamespace(momentum=1.5),
                             spec=SimpleNamespace(sigma=2.5))
    spectrum = SimpleNamespace(k=k, T=np.full(11, 0.3), R=np.full(11, 0.7))
    inelastic = SimpleNamespace(p_inelastic=0.0)
    metrics, failed = workloads.UscNkSeries().check(
        usc, None, (result, spectrum, inelastic))
    assert metrics["balance_err"] == pytest.approx(0.0, abs=1e-12)
    assert len(failed) == 1 and failed[0].startswith("energy_drift")


def test_points_repeat_per_seed_and_cover_every_stratum():
    wl = workloads.UscNkSeries()
    a, b = wl.points(7, 9), wl.points(7, 9)
    assert a == b and a != wl.points(8, 9)
    lo, hi = wl.g_range
    for block in range(3):
        pts = a[3 * block:3 * block + 3]
        strata = sorted(int(3 * (p["g"] - lo) / (hi - lo)) for p in pts)
        assert strata == [0, 1, 2]
        assert all(-1.0 <= p["x0_jitter"] <= 1.0 for p in pts)
        assert all(0.8 <= p["omega"] <= 1.2 for p in pts)


def test_tracer_counts_repeat_and_originals_come_back():
    params = usc.model.ModelParams(L=6, g=0.4, j0=3, n_max=1,
                                   coupling_mode="rwa")
    gates = usc.model.trotter_gates(params, 0.2, order=3)
    state = usc.mps.product_state(params.local_dims(), [0, 1, 0, 0, 0, 0])
    original = usc.evolution.svd_split
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        with tracer:
            assert usc.evolution.svd_split is not original
            usc.evolution.evolve(state, gates, 3, 8)
        counts.append(dict(tracer.counts))
    assert usc.evolution.svd_split is original
    assert usc.tensors.split_matrix.__module__ == "uscqed.tensors"
    assert counts[0] == counts[1]
    # 3 steps x 5 stages alternating 3 and 2 bonds of the 6-site chain
    assert counts[0]["evolution.gate_applications"] == 3 * 13
    assert counts[0]["tensors.svd_split.calls"] == 3 * 13
    times = tracer.layer_times()
    evolve = times["evolution.evolve"]
    assert 0.0 <= evolve["self"] <= evolve["total"]
    svd = times["tensors.svd_split"]
    assert svd["total"] <= evolve["total"] - evolve["self"] + 1e-9


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "spans.py"):
        shutil.copy(os.path.join(run.HERE, name), bench / name)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rwa-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == \
        [w.why for w in workloads.WORKLOADS.values()]


def test_speed_probe_samples_inside_the_block_and_stops_after():
    probe = run.SpeedProbe()
    with probe:
        time.sleep(3 * run.PROBE_INTERVAL_S)
    taken = len(probe.pieces)
    assert taken >= 2 and all(p > 0 for p in probe.pieces)
    time.sleep(2 * run.PROBE_INTERVAL_S)
    assert len(probe.pieces) == taken
    assert probe.scale() > 0
    with probe:                      # shorter than the interval
        pass
    assert len(probe.pieces) == 1
