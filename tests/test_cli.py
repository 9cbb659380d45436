"""Command-line exit codes for bad input, and what the commands report, run
in-process through `cli.main`."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

from uscqed import cli
from uscqed import evolution as ev
from uscqed import sweep as sw
from uscqed.config import config_hash, parse_config
from uscqed.errors import ConvergenceError
from uscqed.oracles import exact_diagonalize

COMMANDS = ["ground-state", "bound-states", "scatter", "sweep", "converge"]

GOOD = {
    "model": {"L": 40, "g": 0.5, "j0": 20, "n_max": 1},
    "packet": {"omega": 1.0, "sigma": 3.0, "x0": 8.0},
    "evolution": {"t_final": 20.0, "dt": 0.1, "order": 3, "max_rank": 4},
}


@pytest.fixture
def no_solves(monkeypatch):
    """Make any ground- or bound-state solve fail the test loudly.

    Every solve, whichever entry point starts it, runs `ev.ground_state`.
    """

    def forbidden(*args, **kwargs):
        raise AssertionError("a solve started for a config that is invalid")

    monkeypatch.setattr(ev, "ground_state", forbidden)


def write_config(tmp_path, **sections):
    data = {k: dict(v) for k, v in GOOD.items()}
    for key, val in sections.items():
        data.setdefault(key, {}).update(val)
    data["outputs"] = {"directory": str(tmp_path / "out")}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_missing_config_and_preset_is_a_config_error(capsys):
    assert cli.main(["sweep"]) == cli.EXIT_CONFIG
    assert "provide --config and/or --preset" in capsys.readouterr().err


def test_unreadable_config_files_are_config_errors(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert cli.main(["scatter", "--config", missing]) == cli.EXIT_CONFIG
    assert "config file not found" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    assert cli.main(["sweep", "--config", str(bad)]) == cli.EXIT_CONFIG
    assert "is not valid JSON" in capsys.readouterr().err


def test_a_config_path_that_is_a_directory_is_a_config_error(tmp_path,
                                                             capsys):
    assert cli.main(["ground-state", "--config", str(tmp_path)]) \
        == cli.EXIT_CONFIG
    assert f"cannot open {tmp_path}" in capsys.readouterr().err


def test_a_missing_plot_table_is_a_config_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    assert cli.main(["plot", "--figure", "fig2", "--table", missing]) \
        == cli.EXIT_CONFIG
    assert f"cannot open {missing}" in capsys.readouterr().err


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys,
                                                      no_solves):
    path = tmp_path / "run.json"
    path.write_bytes(b"\xff\xfe{}")
    assert cli.main(["ground-state", "--config", str(path)]) \
        == cli.EXIT_CONFIG
    assert f"{path} is not UTF-8" in capsys.readouterr().err


def test_a_plot_table_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "table.csv"
    path.write_bytes(b"\xff\xferun_id,g\n")
    assert cli.main(["plot", "--figure", "fig2", "--table", str(path)]) \
        == cli.EXIT_CONFIG
    assert f"{path} is not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["sweep", "--threads", "2"]]
                         + [[c, "--seedless"] for c in COMMANDS]
                         + [["ground-state", "--checkpoint"],
                            ["scatter", "--checkpoint"]])
def test_removed_flags_are_rejected_by_argparse(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*args, "--preset", "desk"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS)
def test_order_one_is_rejected_before_any_solve(tmp_path, capsys, no_solves,
                                                command):
    path = write_config(tmp_path, evolution={"order": 1})
    assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
    assert "order must be 2 or 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("section, values, message", [
    ("packet", {"x0": 30.0}, "x0=30, not left of the scatterer at j0=20"),
    ("packet", {"direction": -1}, "unknown key packet.direction"),
    ("sweep", {"g": [0.5, -0.1]}, "coupling g=-0.1: g must be >= 0"),
    ("model", {"J": 0.3}, "model: J=0.3: the hopping must be < 0"),
    ("model", {"J": 0}, "model: J=0: the hopping must be < 0"),
], ids=["x0-right-of-j0", "direction", "negative-g", "positive-J", "zero-J"])
def test_run_geometry_is_rejected_before_any_solve(
        tmp_path, capsys, no_solves, command, section, values, message):
    path = write_config(tmp_path, **{section: values})
    assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, message", [
    (["--bond-dims", "4,x"], "--bond-dims takes comma-separated integers"),
    (["--bond-dims", "4,1"], "--bond-dims: D=1: max_rank must be at least 2"),
    (["--nmax-list", "1,0"], "--nmax-list: n_max=0: n_max must be >= 1"),
], ids=["not-an-integer", "rank-one", "zero-n_max"])
def test_converge_lists_are_rejected_before_any_solve(
        tmp_path, capsys, no_solves, flags, message):
    path = write_config(tmp_path)
    assert cli.main(["converge", "--config", path, *flags]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_carrier_outside_band_is_rejected_before_any_solve(
        tmp_path, capsys, no_solves):
    path = write_config(tmp_path, sweep={"omega_in": [1.0, 1.8]})
    assert cli.main(["sweep", "--config", path]) == cli.EXIT_CONFIG
    assert "carrier omega=1.8" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_momentum_carrier_is_a_config_error(tmp_path, capsys, no_solves):
    for section, key in (("packet", {"k_in": 1.2}), ("sweep", {"k_in": [1.0]})):
        path = write_config(tmp_path, **{section: key})
        assert cli.main(["scatter", "--config", path]) == cli.EXIT_CONFIG
        assert f"unknown key {section}.k_in" in capsys.readouterr().err


def test_bound_states_command_reports_the_gap_a_sweep_uses(tmp_path):
    path = write_config(tmp_path, model={"L": 6, "j0": 3, "g": 0.6},
                        packet={"sigma": 1.0, "x0": 0.0})
    assert cli.main(["bound-states", "--config", path, "--quiet"]) \
        == cli.EXIT_OK
    cfg = parse_config(path)
    table = tmp_path / "out" / f"bound_states_{config_hash(cfg)}.csv"
    with open(table, encoding="utf-8", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert float(row["gap"]) == sw.bound_data(cfg.model)[0]


def test_ground_state_command_reports_the_exact_energy(tmp_path, capsys):
    path = write_config(tmp_path, model={"L": 6, "j0": 3, "g": 0.6},
                        packet={"sigma": 1.0, "x0": 0.0})
    assert cli.main(["ground-state", "--config", path, "--quiet"]) \
        == cli.EXIT_OK
    e_gs = float(re.search(r"E_GS = (\S+)", capsys.readouterr().out)[1])
    cfg = parse_config(path)
    assert (tmp_path / "out" / f"gs_{config_hash(cfg)}.csv").exists()
    assert e_gs == pytest.approx(exact_diagonalize(cfg.model).bound["gs"],
                                 abs=1e-6)


def test_ground_state_command_writes_the_energy_a_sweep_uses(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["ground-state", "--config", path, "--quiet"]) \
        == cli.EXIT_OK
    cfg = parse_config(path)
    meta = tmp_path / "out" / f"ground-state_{config_hash(cfg)}.meta.json"
    e_gs = json.loads(meta.read_text(encoding="utf-8"))["E_GS"]
    assert e_gs == sw.bound_data(cfg.model)[2]


def test_scatter_solves_at_the_coupling_it_runs(tmp_path):
    # the run's coupling is the grid's first g, not the base model's
    path = write_config(tmp_path, model={"L": 24, "j0": 12, "g": 0.3},
                        packet={"sigma": 1.5, "x0": 4.0},
                        evolution={"t_final": 4.0}, sweep={"g": [0.9]})
    assert cli.main(["scatter", "--config", path, "--quiet"]) \
        in (cli.EXIT_OK, cli.EXIT_FLAGGED)
    cfg = parse_config(path)
    meta = tmp_path / "out" / f"scatter_{config_hash(cfg)}.meta.json"
    row = json.loads(meta.read_text(encoding="utf-8"))["row"]
    gap, _, e_gs = sw.bound_data(dataclasses.replace(cfg.model, g=0.9))
    assert (row["g"], row["gap"], row["gs_energy"]) == (0.9, gap, e_gs)


def test_sweep_keeps_the_n_k_series_of_a_scatter_run(tmp_path):
    path = write_config(tmp_path, model={"L": 24, "j0": 12, "g": 0.3},
                        packet={"sigma": 1.5, "x0": 4.0},
                        evolution={"t_final": 4.0})
    for command in (["scatter", "--nk-series"], ["scatter", "--nk-series"],
                    ["sweep"]):
        assert cli.main([*command, "--config", path, "--quiet"]) \
            in (cli.EXIT_OK, cli.EXIT_FLAGGED)
    chash = config_hash(parse_config(path))
    out = tmp_path / "out"
    with open(out / f"scatter_{chash}.csv", encoding="utf-8",
              newline="") as fh:
        (row,) = csv.DictReader(fh)     # written whole: one run, one row
    assert row["sidecar"] == f"run_{chash}_000_nk.json"
    series = json.loads((out / row["sidecar"]).read_text(encoding="utf-8"))
    assert len(series["n_k_t"]) == len(series["times"])
    plain = json.loads((out / f"run_{chash}_000.json").read_text(
        encoding="utf-8"))
    assert "n_k_t" not in plain


HELP_PROBE = """
import json, sys
from contextlib import redirect_stdout
from io import StringIO
from uscqed import cli
loaded = {}
for command in sys.argv[1:]:
    with redirect_stdout(StringIO()):
        try:
            cli.main([*command.split(), "--help"])
        except SystemExit:
            pass
    loaded[command] = [m for m in ("numpy", "scipy") if m in sys.modules]
print(json.dumps(loaded))
"""


def test_help_loads_no_numpy():
    # the handlers import the heavy modules, so every --help stays instant
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    commands = ["", *COMMANDS, "oracle", "plot"]
    out = subprocess.run([sys.executable, "-c", HELP_PROBE, *commands],
                         env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == {c: [] for c in commands}


def test_unconverged_solve_is_an_invalid_run(tmp_path, capsys, monkeypatch):
    def unconverged(*args, **kwargs):
        raise ConvergenceError("DMRG energy not within 1.0e-06 after 40 "
                               "sweeps", trace=ev.DmrgTrace(sweeps=40))

    monkeypatch.setattr(ev, "embedded_ground_state", unconverged)
    path = write_config(tmp_path)
    assert cli.main(["ground-state", "--config", path]) == cli.EXIT_FLAGGED
    assert "invalid run: DMRG energy not within" in capsys.readouterr().err


def test_converge_writes_a_spectrum_per_setting(tmp_path, capsys):
    # free chain: one photon over the vacuum has Schmidt rank 2, so both
    # bond dimensions are exact and the packet leaves the window cleanly
    path = write_config(tmp_path, model={"L": 48, "g": 0.0, "j0": 16},
                        packet={"sigma": 2.5, "x0": 6.0},
                        evolution={"t_final": 44.0, "dt": 0.25,
                                   "n_snapshots": 4})
    assert cli.main(["converge", "--config", path, "--quiet",
                     "--bond-dims", "2,4", "--nmax-list", "1"]) == cli.EXIT_OK
    chash = config_hash(parse_config(path))
    out = tmp_path / "out"
    header = (out / f"convergence_{chash}.csv").read_text(
        encoding="utf-8").splitlines()[0]
    assert header == ("D,n_max,T_max,max_dev_prev,unphysical,flags,"
                      "wall_time,config_hash")
    spectra = json.loads((out / f"convergence_{chash}.json").read_text(
        encoding="utf-8"))
    assert sorted(spectra) == ["D2_n1", "D4_n1"]
    assert all(sorted(s) == ["R", "T", "omega"] and s["T"]
               for s in spectra.values())
    assert "UNPHYSICAL" not in capsys.readouterr().out


@pytest.mark.parametrize("which", ["free-packet", "dense-spectrum"])
def test_oracle_check_passes(which, capsys):
    assert cli.main(["oracle", "--which", which, "--quiet"]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith(f"[ok] {which}: ")
