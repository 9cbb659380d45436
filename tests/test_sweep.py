"""Sweep orchestration: rows, resume, per-row failures, convergence."""

import json
import math

import numpy as np
import pytest

from uscqed import config as C
from uscqed import evolution as ev
from uscqed import model as M
from uscqed import scattering as sc
from uscqed import sweep as sw
from uscqed.errors import ConfigError
from uscqed.model import ModelParams

# Free chain: the packet transmits cleanly, so rows are flag-free and cheap.
# A row is flag-free only if, for every carrier a test uses (omega 0.9, 1.0
# and 1.1, group velocity v ~ 0.63), both hold:
#   - by t_final the packet has cleared the analysis window:
#     x0 + v * t_final >= j0 + 10 + 3 * sigma (43 here);
#   - up to t_final it stays clear of the last 5 sites [L - 5, L), where
#     edge weight above 1e-3 is flagged.
# With x0 = 10 and t_final = 54 the centre ends near x = 44, so L = 60 leaves
# about 3.5 sigma before the watched edge at 55.
BASE = {
    "model": {"L": 60, "g": 0.0, "j0": 24, "n_max": 1},
    "packet": {"omega": 1.0, "sigma": 3.0, "x0": 10.0},
    "evolution": {"t_final": 54.0, "dt": 0.1, "order": 3, "max_rank": 4,
                  "cutoff": 1e-12, "n_snapshots": 6},
}


def make_config(tmp_path, **extra):
    data = {k: dict(v) for k, v in BASE.items()}
    data["outputs"] = {"directory": str(tmp_path)}
    for key, val in extra.items():
        if isinstance(val, dict):
            data.setdefault(key, {}).update(val)
        else:
            data[key] = val
    return C.from_dict(data)


def test_fmt_round_trips_doubles_exactly():
    for v in (0.1, math.pi, -1.0 / math.pi, 1e-300, 123456789.123456789):
        assert float(sw.fmt(v)) == v
    assert sw.fmt(3) == "3"
    assert sw.fmt(True) == "True"
    assert sw.fmt("flag text") == "flag text"
    assert float(sw.fmt(float("nan"))) != float(sw.fmt(float("nan")))


def test_read_rows_round_trip(tmp_path):
    path = str(tmp_path / "table.csv")
    sw._ensure_header(path)
    row = sw.ResultRow(
        run_id="abc-000", g=0.7, omega_in=0.85, k_in=float("nan"),
        T=0.25, R=0.55, p_elastic=0.8, p_inelastic=0.2, p_inelastic_t=0.1,
        p_inelastic_r=0.1, omega_out=0.4265, omega_out_expected=0.4265,
        gap=0.4235, raman_threshold=0.787, gs_energy=-0.3264, D=10, n_max=4,
        dt=0.05, total_discarded=1e-6, flags="", wall_time=12.5,
        config_hash="deadbeef00000000", sidecar="run.json")
    sw._append_row(path, row)
    back = sw.read_rows(path)
    assert len(back) == 1
    got = back[0]
    assert got.T == row.T and got.gap == row.gap
    assert isinstance(got.D, int) and got.D == 10
    assert math.isnan(got.k_in)
    assert got.flags == "" and got.sidecar == "run.json"
    assert got.config_hash == row.config_hash


def test_grid_expansion_covers_g_and_carriers(tmp_path):
    cfg = make_config(tmp_path, sweep={"g": [0.1, 0.2], "omega_in": [0.8, 1.2]})
    assert C.grid(cfg) == [(0.1, 0.8), (0.1, 1.2), (0.2, 0.8), (0.2, 1.2)]
    cfg = make_config(tmp_path)        # no grids: the packet's own carrier
    assert C.grid(cfg) == [(0.0, 1.0)]


@pytest.fixture(scope="module")
def free_sweep(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = make_config(tmp)
    rows = sw.sweep(cfg)
    return cfg, rows


def test_single_point_sweep_matches_direct_run(free_sweep):
    cfg, rows = free_sweep
    assert len(rows) == 1
    row = rows[0]
    gap, gs, e_gs = sw.bound_data(cfg.model)
    direct = sw.run_point(cfg, 0, 0.0, 1.0, gap, gs, e_gs)
    assert (direct.run_id, direct.sidecar) == (row.run_id, row.sidecar)
    assert direct.T == pytest.approx(row.T, abs=1e-12)
    assert direct.R == pytest.approx(row.R, abs=1e-12)
    assert direct.p_inelastic == pytest.approx(row.p_inelastic, abs=1e-12)
    assert direct.gap == pytest.approx(row.gap, abs=1e-12)
    # free chain physics: full transmission, nothing converted
    assert row.T == pytest.approx(1.0, abs=0.02)
    assert abs(row.R) < 0.02
    assert row.p_inelastic < 0.01
    assert row.flags == ""
    assert row.config_hash == C.config_hash(cfg)


def test_resume_recomputes_nothing_and_keeps_bytes(free_sweep):
    cfg, rows = free_sweep
    path = sw.sweep_path(cfg)
    with open(path, "rb") as fh:
        before = fh.read()
    again = sw.sweep(cfg)
    with open(path, "rb") as fh:
        after = fh.read()
    assert after == before
    assert len(again) == len(rows)
    assert again[0].T == rows[0].T


def fail_at(omega, monkeypatch):
    """Make the run at carrier ``omega`` raise; the others run for real."""
    real = sw.sc.run_scattering

    def flaky(params, spec, *a, **kw):
        if spec.omega == omega:
            raise RuntimeError("synthetic failure")
        return real(params, spec, *a, **kw)

    monkeypatch.setattr(sw.sc, "run_scattering", flaky)


def test_sweep_writes_a_sidecar_for_every_row_that_ran(tmp_path,
                                                        monkeypatch):
    cfg = make_config(tmp_path, sweep={"omega_in": [0.9, 1.1]})
    fail_at(0.9, monkeypatch)
    rows = sw.sweep(cfg)
    chash = C.config_hash(cfg)
    assert [r.run_id for r in rows] == [f"{chash[:8]}-000", f"{chash[:8]}-001"]
    assert rows[0].flags.startswith("error") and rows[0].sidecar == ""
    assert rows[1].sidecar == f"run_{chash}_001.json"
    assert sorted(p.name for p in tmp_path.glob("run_*.json")) \
        == [rows[1].sidecar]
    payload = json.loads((tmp_path / rows[1].sidecar).read_text("utf-8"))
    assert payload["run_id"] == rows[1].run_id


def test_run_failures_are_recorded_per_row(tmp_path, monkeypatch):
    cfg = make_config(tmp_path, sweep={"omega_in": [0.9, 1.1]})
    fail_at(0.9, monkeypatch)
    rows = sw.sweep(cfg)
    assert [r.omega_in for r in rows] == [0.9, 1.1]       # grid order
    by_omega = {r.omega_in: r for r in rows}
    assert "error: RuntimeError: synthetic failure" in by_omega[0.9].flags
    assert math.isnan(by_omega[0.9].T)
    assert by_omega[1.1].flags == ""
    assert by_omega[1.1].T == pytest.approx(1.0, abs=0.02)
    # error rows count as completed: nothing reruns on resume
    monkeypatch.undo()
    again = sw.sweep(cfg)
    assert len(again) == 2
    assert "synthetic failure" in {r.omega_in: r for r in again}[0.9].flags


# the free packet has not reached the transmitted window by t_final
SHORT_RUN = {"model": {"L": 24, "g": 0.4, "j0": 12},
             "packet": {"x0": 4.0, "sigma": 1.5, "omega": 1.0},
             "evolution": {"t_final": 4.0, "dt": 0.25, "n_snapshots": 2}}


def test_a_packet_short_of_the_transmitted_window_gives_nan_t_and_r(tmp_path):
    # the spectra would divide by the free packet's leakage onto the window;
    # the row keeps no spectrum and says the run was too short
    cfg = make_config(tmp_path, **SHORT_RUN)
    e_gs, gs, _ = ev.embedded_ground_state(cfg.model)
    row = sw.run_point(cfg, 0, 0.4, 1.0, gap=0.5, gs=gs, gs_energy=e_gs,
                       strict=True)
    assert math.isnan(row.T) and math.isnan(row.R)
    assert row.flags == ("transmitted packet near x=7 at the analysis "
                         "snapshot; extend t_final past the window")
    payload = json.loads((tmp_path / row.sidecar).read_text(encoding="utf-8"))
    assert payload["omega"] == payload["T"] == payload["R"] == []


def test_an_unphysical_reflection_is_flagged(tmp_path, monkeypatch):
    # the row keeps a spectrum's values past 1 and says so
    def stubbed(result):
        return sc.TransmissionSpectrum(omega=np.array([0.9, 1.1]),
                                       T=np.array([0.5, 0.5]),
                                       R=np.array([1.2, 1.2]),
                                       k=np.array([1.0, 1.2]))

    monkeypatch.setattr(sc, "transmission_spectrum", stubbed)
    cfg = make_config(tmp_path, **SHORT_RUN)
    e_gs, gs, _ = ev.embedded_ground_state(cfg.model)
    row = sw.run_point(cfg, 0, 0.4, 1.0, gap=0.5, gs=gs, gs_energy=e_gs,
                       strict=True)
    assert (row.T, row.R) == (0.5, 1.2)
    flags = row.flags.split("; ")
    assert "unphysical R=1.2000" in flags
    assert not any(f.startswith("unphysical T=") for f in flags)


def test_bound_state_failure_marks_all_rows_of_that_coupling(tmp_path,
                                                             monkeypatch):
    cfg = make_config(tmp_path, sweep={"omega_in": [0.9, 1.1]})

    def broken(params, **kw):
        raise RuntimeError("no flow")

    monkeypatch.setattr(sw, "bound_data", broken)
    rows = sw.sweep(cfg)
    assert len(rows) == 2
    assert all("bound states failed" in r.flags for r in rows)
    assert all(math.isnan(r.T) for r in rows)


def test_bound_data_passes_the_model_to_both_solvers(monkeypatch):
    # the window and the solve policy are evolution's: bound_data hands
    # both solvers the whole model, and the polish the gap's ground state
    seen = {}
    ground = (0.0, "window gs", None)

    def fake_raman_states(params):
        seen["raman_L"] = params.L
        return ground, (1.5, "e2", None)

    def fake_ground_state(params, **kw):
        seen["gs_L"], seen["gs_kw"] = params.L, kw
        return -0.25, "gs", None

    monkeypatch.setattr(sw, "raman_states", fake_raman_states)
    monkeypatch.setattr(sw, "embedded_ground_state", fake_ground_state)
    params = ModelParams(L=44, g=0.5, j0=22, n_max=1)
    gap, gs, e_gs = sw.bound_data(params)
    assert (gap, gs, e_gs) == (1.5, "gs", -0.25)
    assert seen == {"raman_L": 44, "gs_L": 44, "gs_kw": {"core": ground}}


@pytest.mark.parametrize("L", [6, 44])
def test_bound_data_solves_the_ground_state_once(monkeypatch, L):
    solves = []
    solve = ev.ground_state

    def counted(params, *args, **kw):
        solves.append((params.L, kw.get("parity", 1),
                       len(kw.get("orthogonal_to", ())),
                       kw.get("seed") is None))
        return solve(params, *args, **kw)

    monkeypatch.setattr(ev, "ground_state", counted)
    params = ModelParams(L=L, g=0.6, j0=L // 2, n_max=1)
    _, gs, e_gs = sw.bound_data(params)
    window = min(L, 2 * ev.WINDOW_RADIUS + 1)
    # the two even states of the gap on the window, no odd state; a longer
    # chain adds one polish from the embedded window ground state, never a
    # second solve from scratch
    want = [(window, 1, 0, True), (window, 1, 1, False)]
    if window < L:
        want.append((L, 1, 0, False))
    assert solves == want
    assert gs.L == L
    assert e_gs == pytest.approx(
        ev.energy(gs, M.hamiltonian_mpo(params)), abs=1e-12)


def test_bound_data_gap_is_the_bound_state_table_gap_on_a_short_window():
    # the window (41 sites) is shorter than the chain, so the gap comes
    # from a chain bound_data does not polish; the table's gap is the same
    # two solves, bit for bit
    params = ModelParams(L=44, g=0.6, j0=22, n_max=1)
    assert ev.scatterer_window(params)[1].L < params.L
    assert sw.bound_data(params)[0] == ev.bound_states(params).raman_gap


def test_convergence_study_rejects_empty_lists(tmp_path):
    cfg = make_config(tmp_path)
    with pytest.raises(ConfigError):
        sw.convergence_study(cfg, [], [2])
    with pytest.raises(ConfigError):
        sw.convergence_study(cfg, [4], [])


def test_convergence_study_reports_no_peak_for_an_empty_spectrum(tmp_path):
    cfg = make_config(tmp_path, **SHORT_RUN)
    study = sw.convergence_study(cfg, [2, 4], [1])
    assert [len(study.spectra[(d, 1)][0]) for d in (2, 4)] == [0, 0]
    for r in study.rows:
        assert math.isnan(r.T_max) and math.isnan(r.max_dev_prev)
        assert not r.unphysical
        assert r.flags.startswith("transmitted packet near x=")


def test_convergence_study_on_free_chain_is_rank_independent(tmp_path,
                                                             monkeypatch):
    # one photon over the vacuum is a W state, Schmidt rank 2 at every cut,
    # so D=2 is already exact and agrees with D=14
    solves = []
    solve = sw.embedded_ground_state

    def counted(params, *args, **kw):
        solves.append(params.n_max)
        return solve(params, *args, **kw)

    monkeypatch.setattr(sw, "embedded_ground_state", counted)
    cfg = make_config(tmp_path)
    study = sw.convergence_study(cfg, [2, 14], [1])
    # one ground state per n_max, whatever the bond dimensions
    assert solves == [1]
    assert [r.D for r in study.rows] == [2, 14]
    assert not any(r.unphysical for r in study.rows)
    assert all(r.flags == "" for r in study.rows)
    assert math.isnan(study.rows[0].max_dev_prev)     # nothing to compare yet
    assert study.rows[1].max_dev_prev < 1e-6
    om, T, R = study.spectra[(14, 1)]
    assert np.all(T[np.isfinite(T)] <= 1.005)
    out = tmp_path / "conv.csv"
    sw.write_convergence_csv(study, str(out))
    text = out.read_text(encoding="utf-8")
    assert text.splitlines()[0].startswith("D,n_max,")
    assert len(text.splitlines()) == 3
