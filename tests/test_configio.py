"""Config parsing, presets, and hashing."""

import json
import math

import pytest

from uscqed import config as C
from uscqed.errors import ConfigError


def test_preset_names_cover_the_published_figures():
    assert set(C.PRESETS) == {"desk", "paper-fig3", "paper-fig4",
                              "paper-fig5", "paper-fig5-inset", "paper-fig6"}


def test_paper_presets_expand_to_the_published_geometry():
    for name in ("paper-fig3", "paper-fig4", "paper-fig5", "paper-fig6"):
        cfg = C.preset_config(name)
        assert cfg.model.L == 480
        assert cfg.model.j0 == 240
        assert cfg.model.n_max == 4
        assert cfg.packet.x0 == 160.0
        assert cfg.evolution.t_final == 420.0
        assert cfg.evolution.max_rank == 10
    fig3 = C.preset_config("paper-fig3")
    assert fig3.packet.sigma == 20.0 and fig3.model.g == 0.7
    assert fig3.sweep.omega_in == (0.70, 0.85)
    fig4 = C.preset_config("paper-fig4")
    assert fig4.packet.sigma == 2.0
    assert fig4.sweep.g == tuple(i / 10 for i in range(1, 11))
    fig6 = C.preset_config("paper-fig6")
    assert fig6.packet.sigma == 20.0 and fig6.packet.omega == 0.90
    assert fig6.sweep.g == (0.30, 0.40, 0.45, 0.55)


def test_mirror_inset_preset_geometry():
    cfg = C.preset_config("paper-fig5-inset")
    assert cfg.model.boundary == "mirror"
    assert cfg.model.mirror_dx == 20
    assert cfg.model.j0 == 460
    assert cfg.model.L == 481          # wall sits right past j0 + mirror_dx
    assert cfg.packet.x0 == 380.0
    assert cfg.evolution.t_final == 800.0
    assert cfg.model.g == 0.8


def test_defaults_applied_without_preset():
    cfg = C.from_dict({"model": {"L": 40, "g": 0.5, "j0": 20},
                       "packet": {"omega": 1.0, "sigma": 4.0, "x0": 10.0}})
    assert cfg.model.n_max == 4
    assert cfg.model.J == pytest.approx(-1.0 / math.pi)
    assert cfg.model.Delta == 1.0
    assert cfg.evolution.max_rank == 10
    assert cfg.outputs.directory == "runs"
    assert cfg.preset is None


def test_unknown_keys_are_hard_errors_with_paths():
    with pytest.raises(ConfigError, match=r"unknown key model\.bogus"):
        C.from_dict({"model": {"L": 10, "bogus": 1},
                     "packet": {"omega": 1.0, "sigma": 2.0, "x0": 3.0}})
    with pytest.raises(ConfigError, match="unknown key frobnicate"):
        C.from_dict({"frobnicate": {}})
    with pytest.raises(ConfigError, match=r"unknown key sweep\.omega"):
        C.from_dict({"preset": "desk", "sweep": {"omega": [1.0]}})


def test_section_value_errors_carry_the_section_name():
    with pytest.raises(ConfigError, match="evolution"):
        C.from_dict({"preset": "desk", "evolution": {"order": 5}})
    with pytest.raises(ConfigError, match="packet"):
        C.from_dict({"preset": "desk", "packet": {"sigma": -1.0}})


def test_unknown_preset_lists_choices():
    with pytest.raises(ConfigError, match="choose from"):
        C.from_dict({"preset": "fig9"})


def test_user_carrier_replaces_preset_carrier():
    cfg = C.from_dict({"preset": "desk", "packet": {"omega": 0.7}})
    assert cfg.packet.omega == 0.7
    cfg = C.from_dict({"preset": "paper-fig3", "sweep": {"omega_in": [0.8]}})
    assert cfg.sweep.omega_in == (0.8,)


def test_momentum_carriers_are_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key packet.k_in"):
        C.from_dict({"preset": "desk", "packet": {"k_in": 1.2}})
    with pytest.raises(ConfigError, match="unknown key sweep.k_in"):
        C.from_dict({"preset": "desk", "sweep": {"k_in": [1.0]}})


def test_sweep_grid_rejects_non_numbers():
    with pytest.raises(ConfigError, match="numbers"):
        C.SweepGrid(g=("high",))


def test_hash_ignores_outputs_and_preset_spelling():
    a = C.preset_config("desk")
    spelled = C.to_dict(a)
    spelled.pop("preset")                             # hand-written twin
    b = C.from_dict(spelled)
    c = C.preset_config("desk", {"outputs": {"directory": "elsewhere"}})
    assert b.preset is None
    assert C.config_hash(a) == C.config_hash(b) == C.config_hash(c)
    d = C.preset_config("desk", {"model": {"g": 0.71}})
    assert C.config_hash(d) != C.config_hash(a)


def test_round_trip_through_plain_dicts():
    cfg = C.preset_config("paper-fig5-inset")
    again = C.from_dict(C.to_dict(cfg))
    assert again.model == cfg.model
    assert again.packet == cfg.packet
    assert again.evolution == cfg.evolution
    assert again.sweep == cfg.sweep


def test_parse_config_reads_json_and_reports_bad_files(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"preset": "desk"}), encoding="utf-8")
    cfg = C.parse_config(path)
    assert cfg.model.L == 120
    with pytest.raises(ConfigError, match="not found"):
        C.parse_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    with pytest.raises(ConfigError, match="valid JSON"):
        C.parse_config(bad)
    listed = tmp_path / "list.json"
    listed.write_text("[]", encoding="utf-8")
    with pytest.raises(ConfigError, match="root must be an object"):
        C.parse_config(listed)
    with pytest.raises(ConfigError, match="provide --config and/or --preset"):
        C.parse_config()


def test_parse_config_overlays_preset_and_output_directory(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"preset": "desk", "model": {"g": 0.5}}),
                    encoding="utf-8")
    cfg = C.parse_config(path, preset="paper-fig6", out="elsewhere")
    assert cfg.preset == "paper-fig6" and cfg.model.L == 480
    assert cfg.model.g == 0.5                   # the file's overlay stays
    assert cfg.outputs.directory == "elsewhere"
    assert C.parse_config(preset="desk").model.L == 120
    path.write_text(json.dumps({"preset": "desk", "outputs": "here"}),
                    encoding="utf-8")
    with pytest.raises(ConfigError, match="outputs must be an object"):
        C.parse_config(path, out="elsewhere")


def test_carriers_are_checked_at_parse_time():
    base = {"model": {"L": 40, "g": 0.5, "j0": 20},
            "packet": {"omega": 1.0, "sigma": 2.0, "x0": 10.0}}

    def parse(**sections):
        data = {k: dict(v) for k, v in base.items()}
        for key, val in sections.items():
            data.setdefault(key, {}).update(val)
        return C.from_dict(data)

    assert C.carriers(parse()) == [1.0]
    assert C.carriers(parse(sweep={"omega_in": [0.9, 1.1]})) == [0.9, 1.1]
    with pytest.raises(ConfigError, match="packet: carrier 2.5 lies outside"):
        parse(packet={"omega": 2.5})
    with pytest.raises(ConfigError, match="packet: packet center outside"):
        parse(packet={"x0": 45.0})
    with pytest.raises(ConfigError, match="on the scatterer site"):
        parse(packet={"x0": 17.0})
    with pytest.raises(ConfigError, match="carrier omega=0.2: .*outside"):
        parse(sweep={"omega_in": [1.0, 0.2]})


def test_formats_are_validated():
    with pytest.raises(ConfigError, match="unknown format"):
        C.from_dict({"preset": "desk", "outputs": {"formats": ["yaml"]}})
