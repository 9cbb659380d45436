"""Gnuplot emission from synthetic result tables, and the `plot` command."""

import csv
import json
import os

import numpy as np

from uscqed import cli
from uscqed.plots import emit_plots


def sweep_table(tmp_path):
    """Two couplings with run sidecars, and one row whose sidecar is absent."""
    rows = []
    omega = np.linspace(0.8, 1.2, 9)
    for i, g in enumerate((0.4, 0.8)):
        name = f"run_{i:03d}.json"
        payload = {"omega": list(omega), "T": list(1.0 - g * omega / 2),
                   "broadband_omega": list(omega),
                   "broadband_p_ine": list(g * (omega - 0.8))}
        (tmp_path / name).write_text(json.dumps(payload), encoding="utf-8")
        rows.append({"run_id": f"r{i}", "g": g, "n_max": 2,
                     "raman_threshold": 0.9 + 0.1 * g, "flags": "",
                     "sidecar": name})
    rows.append({"run_id": "r2", "g": 1.2, "n_max": 2,
                 "raman_threshold": 1.0, "flags": "", "sidecar": ""})
    return rows


def test_fig4_and_fig5_from_a_two_coupling_sweep(tmp_path):
    rows = sweep_table(tmp_path)
    out = tmp_path / "plots"
    for fig, overlay in (("fig4", "fig4_resonance.csv"),
                         ("fig5", "fig5_threshold.csv")):
        paths, gaps = emit_plots(rows, fig, out_dir=str(out),
                                 sidecar_dir=str(tmp_path))
        names = {os.path.basename(p) for p in paths}
        assert {f"{fig}.gp", f"{fig}_data.csv", overlay,
                f"{fig}_gaps.txt"} <= names
        assert gaps == ["run r2: no sidecar (delete its row and rerun)"]
        script = (out / f"{fig}.gp").read_text(encoding="utf-8")
        assert f"'{fig}_data.csv'" in script and overlay in script
        data = (out / f"{fig}_data.csv").read_text(encoding="utf-8")
        blocks = [b for b in data.split("\n\n") if b.strip()]
        assert len(blocks) == 2               # one block per coupling
    thresholds = (out / "fig5_threshold.csv").read_text(encoding="utf-8")
    assert thresholds.splitlines()[1:] == ["0.4 0.94", "0.8 0.98"]


def test_fig4_reports_a_coupling_without_a_resonance_as_a_gap(tmp_path):
    # at g = 0 the polariton levels are degenerate, so the overlay has no
    # point there: the row is named in the gap report, not dropped silently
    rows = sweep_table(tmp_path)[:2]
    rows[0]["g"] = 0.0
    out = tmp_path / "plots"
    _, gaps = emit_plots(rows, "fig4", out_dir=str(out),
                         sidecar_dir=str(tmp_path))
    assert len(gaps) == 1
    assert gaps[0].startswith("run r0: no omega_R at g=0 "
                              "(DegenerateError: ")
    assert gaps[0] in (out / "fig4_gaps.txt").read_text(encoding="utf-8")
    overlay = (out / "fig4_resonance.csv").read_text(encoding="utf-8")
    assert [line.split()[0] for line in overlay.splitlines()[1:]] == ["0.8"]


def test_fig2_renders_from_a_bound_states_table(tmp_path):
    table = tmp_path / "bound_states.csv"
    with open(table, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["g", "E_GS", "E1", "E2", "parity_GS", "parity_E1",
                    "parity_E2", "gap"])
        w.writerow([0.8, -0.25, 0.5, 0.75, 1, -1, 1, 1.0])
        w.writerow([0.4, -0.0625, 0.75, 0.875, 1, -1, 1, 0.9375])
    out = tmp_path / "plots"
    assert cli.main(["plot", "--figure", "fig2", "--table", str(table),
                     "--out", str(out)]) == cli.EXIT_OK
    assert (out / "fig2.gp").exists()
    data = (out / "fig2_data.csv").read_text(encoding="utf-8").splitlines()
    assert data[0] == "# g E_GS E1 E2"
    # sorted by coupling, energies at full precision
    assert data[1:] == ["0.4 -0.0625 0.75 0.875", "0.8 -0.25 0.5 0.75"]


def test_plot_command_rejects_a_table_without_the_figure(tmp_path, capsys):
    table = tmp_path / "sweep.csv"
    with open(table, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["run_id", "g", "omega_in", "T", "flags", "sidecar"])
        w.writerow(["r0", 0.5, 1.0, 0.4, "", ""])
    for fig in ("fig2", "fig4"):
        assert cli.main(["plot", "--figure", fig, "--table", str(table),
                         "--out", str(tmp_path / "plots")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "table cannot support the figure" in err
        assert "gap: " in err


def test_plot_reports_an_unreadable_sidecar_as_a_gap(tmp_path, capsys):
    (tmp_path / "good.json").write_text(json.dumps(
        {"times": [0.0, 1.0], "delta_p": [0.0, 0.1]}), encoding="utf-8")
    (tmp_path / "bad.json").write_text('{"trunc', encoding="utf-8")
    table = tmp_path / "sweep.csv"
    with open(table, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["run_id", "g", "flags", "sidecar"])
        w.writerow(["r0", 0.3, "", "good.json"])
        w.writerow(["r1", 0.4, "", "bad.json"])
    out = tmp_path / "plots"
    assert cli.main(["plot", "--figure", "fig6", "--table", str(table),
                     "--out", str(out)]) == cli.EXIT_OK
    assert (out / "fig6.gp").exists()
    gaps = [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("gap: ")]
    assert len(gaps) == 1
    assert gaps[0].startswith("gap: run r1: sidecar bad.json unreadable (")


def fig3_table(tmp_path, with_nk):
    """One run row whose sidecar holds two density snapshots of 3 sites."""
    payload = {"times": [0.0, 1.5], "n_x": [[0.5, 0.25, 0.0],
                                            [0.0, 0.25, 0.5]],
               "k": [-1.0, 1.0]}
    if with_nk:
        payload["n_k_t"] = [[0.0, 0.75], [0.125, 0.625]]
    (tmp_path / "run.json").write_text(json.dumps(payload), encoding="utf-8")
    return [{"run_id": "r0", "g": 0.5, "omega_in": 1.0, "flags": "",
             "sidecar": "run.json"}]


def test_fig3_writes_both_density_maps_from_an_n_k_series(tmp_path):
    out = tmp_path / "plots"
    paths, gaps = emit_plots(fig3_table(tmp_path, True), "fig3",
                             out_dir=str(out), sidecar_dir=str(tmp_path))
    assert gaps == []
    assert {os.path.basename(p) for p in paths} \
        == {"fig3.gp", "fig3_nx.csv", "fig3_nk.csv"}
    n_x = (out / "fig3_nx.csv").read_text(encoding="utf-8")
    assert n_x == ("# x t n_x\n0 0 0.5\n1 0 0.25\n2 0 0\n\n"
                   "0 1.5 0\n1 1.5 0.25\n2 1.5 0.5\n\n")
    n_k = (out / "fig3_nk.csv").read_text(encoding="utf-8")
    assert n_k == ("# k t n_k\n-1 0 0\n1 0 0.75\n\n"
                   "-1 1.5 0.125\n1 1.5 0.625\n\n")
    script = (out / "fig3.gp").read_text(encoding="utf-8")
    assert "set multiplot layout 1,2" in script and "'fig3_nk.csv'" in script


def test_fig3_without_an_n_k_series_skips_the_momentum_panel(tmp_path):
    out = tmp_path / "plots"
    paths, gaps = emit_plots(fig3_table(tmp_path, False), "fig3",
                             out_dir=str(out), sidecar_dir=str(tmp_path))
    assert gaps == ["fig3: momentum-resolved panel skipped; rerun scatter "
                    "with the n_k series enabled"]
    assert {os.path.basename(p) for p in paths} \
        == {"fig3.gp", "fig3_nx.csv", "fig3_gaps.txt"}
    assert (out / "fig3_nx.csv").read_text(encoding="utf-8").splitlines()[:2] \
        == ["# x t n_x", "0 0 0.5"]
    assert "fig3_nk.csv" not in (out / "fig3.gp").read_text(encoding="utf-8")
