"""Command-line exit codes for bad input, and what the commands report, run
in-process through `cli.main`."""

import csv
import json
import re

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
    """Make any ground- or bound-state solve fail the test loudly."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a solve started for a config that is invalid")

    monkeypatch.setattr(sw, "bound_data", forbidden)
    monkeypatch.setattr(sw, "bound_states", forbidden)
    monkeypatch.setattr(sw, "embedded_ground_state", forbidden)
    monkeypatch.setattr(ev, "embedded_ground_state", forbidden)
    monkeypatch.setattr(ev, "bound_states", forbidden)


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


def test_unconverged_solve_is_an_invalid_run(tmp_path, capsys, monkeypatch):
    def unconverged(*args, **kwargs):
        raise ConvergenceError("DMRG energy not within 1.0e-06 after 40 "
                               "sweeps", trace=ev.DmrgTrace(sweeps=40))

    monkeypatch.setattr(ev, "embedded_ground_state", unconverged)
    path = write_config(tmp_path)
    assert cli.main(["ground-state", "--config", path]) == cli.EXIT_FLAGGED
    assert "invalid run: DMRG energy not within" in capsys.readouterr().err
