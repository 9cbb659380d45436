"""Run configuration: strict JSON parsing, named presets, and hashing.

A config bundles the model, the packet, the time stepper, optional sweep
grids, and the output directory, the one output setting: every command
writes its CSV and its JSON there, under names that `sweep.output_path`
builds from the config hash.  A carrier is always a band frequency: the
packet's ``omega``, or each entry of a ``sweep.omega_in`` grid; the packet
is a right-mover launched left of the scatterer.  Parsing is strict:
unknown keys anywhere are hard errors, so a typo never silently falls back
to a default, and every point of `grid` is checked before any solve starts.
Preset expansion happens before user overlays, and the expanded values are
what gets hashed, so the same physics reached via a preset or spelled out
by hand carries the same identity.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
from dataclasses import dataclass

from .errors import ConfigError
from .evolution import EvolutionParams
from .model import ModelParams
from .scattering import WavepacketSpec, check_packet


@dataclass(frozen=True)
class SweepGrid:
    """Optional grids over coupling and carrier frequency; an empty axis
    reuses the base model's ``g`` or the packet's ``omega``."""

    g: tuple = ()
    omega_in: tuple = ()

    def __post_init__(self):
        for name in ("g", "omega_in"):
            vals = getattr(self, name)
            try:
                vals = tuple(float(v) for v in vals)
            except (TypeError, ValueError):
                raise ConfigError(f"sweep.{name} must be a list of numbers")
            object.__setattr__(self, name, vals)


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "runs"


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams
    packet: WavepacketSpec
    evolution: EvolutionParams = EvolutionParams()
    sweep: SweepGrid = SweepGrid()
    outputs: OutputSpec = OutputSpec()
    preset: str = None


# Parameter sets for the published figures plus a laptop-scale variant.
# Chains of 480 cavities with the scatterer at 240 and launch at 160
# (inset geometry: wall 20 sites past the scatterer at 460, launch at 380);
# sigma=2 packets are momentum-broad for spectra, sigma=20 momentum-sharp
# for dynamics.  Each preset sets only t_final of the stepper; the other
# settings are `EvolutionParams`' defaults.
PRESETS = {
    "desk": {
        "model": {"L": 120, "g": 0.7, "j0": 60, "n_max": 4},
        "packet": {"sigma": 10.0, "x0": 30.0, "omega": 0.85},
        "evolution": {"t_final": 110.0},
    },
    "paper-fig3": {
        "model": {"L": 480, "g": 0.7, "j0": 240, "n_max": 4},
        "packet": {"sigma": 20.0, "x0": 160.0, "omega": 0.85},
        "evolution": {"t_final": 420.0},
        "sweep": {"omega_in": [0.70, 0.85]},
    },
    "paper-fig4": {
        "model": {"L": 480, "g": 0.7, "j0": 240, "n_max": 4},
        "packet": {"sigma": 2.0, "x0": 160.0, "omega": 1.0},
        "evolution": {"t_final": 420.0},
        "sweep": {"g": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]},
    },
    "paper-fig5": {
        "model": {"L": 480, "g": 0.7, "j0": 240, "n_max": 4},
        "packet": {"sigma": 2.0, "x0": 160.0, "omega": 1.0},
        "evolution": {"t_final": 420.0},
        "sweep": {"g": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]},
    },
    "paper-fig5-inset": {
        "model": {"L": 481, "g": 0.8, "j0": 460, "n_max": 4,
                  "boundary": "mirror"},
        "packet": {"sigma": 2.0, "x0": 380.0, "omega": 1.0},
        "evolution": {"t_final": 800.0},
    },
    "paper-fig6": {
        "model": {"L": 480, "g": 0.3, "j0": 240, "n_max": 4},
        "packet": {"sigma": 20.0, "x0": 160.0, "omega": 0.90},
        "evolution": {"t_final": 420.0},
        "sweep": {"g": [0.30, 0.40, 0.45, 0.55]},
    },
}

# The config sections: each key of a section is a field of its class.
_SECTIONS = {"model": ModelParams, "packet": WavepacketSpec,
             "evolution": EvolutionParams, "sweep": SweepGrid,
             "outputs": OutputSpec}


def _check_keys(data: dict, cls, section):
    prefix = f"{section}." if section else ""
    allowed = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key {prefix}{key}")


def _merge(base: dict, override: dict) -> dict:
    out = {k: dict(v) if isinstance(v, dict) else v for k, v in base.items()}
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k].update(v)
        else:
            out[k] = v
    return out


def _build(cls, section: str, values: dict):
    try:
        return cls(**values)
    except TypeError as exc:
        # surface missing/duplicate fields with the config path, not a traceback
        raise ConfigError(f"{section}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def from_dict(data: dict) -> RunConfig:
    """Validate a plain dict (parsed JSON) into a RunConfig."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    _check_keys(data, RunConfig, None)
    preset = data.get("preset")
    merged = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        merged = _merge(merged, PRESETS[preset])
    merged = _merge(merged, {k: v for k, v in data.items() if k != "preset"})
    for section, cls in _SECTIONS.items():
        part = merged.get(section, {})
        if not isinstance(part, dict):
            raise ConfigError(f"{section} must be an object")
        _check_keys(part, cls, section)
    config = RunConfig(**{section: _build(cls, section,
                                          merged.get(section, {}))
                          for section, cls in _SECTIONS.items()},
                       preset=preset)
    _check_grid(config)
    return config


def carriers(config: RunConfig) -> list:
    """Carriers in grid order: ``sweep.omega_in``, else the packet's."""
    return list(config.sweep.omega_in or (config.packet.omega,))


def couplings(config: RunConfig) -> list:
    """Couplings in grid order: ``sweep.g``, else the model's."""
    return list(config.sweep.g or (config.model.g,))


def grid(config: RunConfig) -> list:
    """``(g, omega)`` points in grid order, g-major."""
    omegas = carriers(config)
    return [(g, omega) for g in couplings(config) for omega in omegas]


def _check_grid(config: RunConfig) -> None:
    """Reject, before any solve, every grid point the run cannot execute.

    Checks the model at each coupling, and the packet (band, launch site,
    overlap with the scatterer) at each carrier.
    """
    for g in couplings(config):
        try:
            dataclasses.replace(config.model, g=g)
        except ConfigError as exc:
            raise ConfigError(f"coupling g={g:g}: {exc}") from exc
    try:
        check_packet(config.model, config.packet)
    except ValueError as exc:
        raise ConfigError(f"packet: {exc}") from exc
    for omega in carriers(config):
        try:
            check_packet(config.model,
                         dataclasses.replace(config.packet, omega=omega))
        except ValueError as exc:
            raise ConfigError(f"carrier omega={omega:g}: {exc}") from exc


def parse_config(path=None, preset: str = None, out: str = None) -> RunConfig:
    """Config from an optional JSON file, a preset and an output directory.

    ``preset`` and ``out`` override the file's; a file or a preset is
    required.
    """
    data = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except OSError as exc:
            raise ConfigError(f"cannot open {path}: {exc.strerror}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8: {exc.reason}")
        if not isinstance(data, dict):
            raise ConfigError("config root must be an object")
    if preset:
        data["preset"] = preset
    if not data:
        raise ConfigError("provide --config and/or --preset")
    if out:
        data.setdefault("outputs", {})
        if not isinstance(data["outputs"], dict):
            raise ConfigError("outputs must be an object")
        data["outputs"]["directory"] = out
    return from_dict(data)


def to_dict(config: RunConfig) -> dict:
    """Plain-type mirror of the config (JSON-ready, tuples as lists)."""
    out = dataclasses.asdict(config)

    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [plain(x) for x in v]
        if isinstance(v, numbers.Integral):
            return int(v)
        if isinstance(v, numbers.Real):
            return float(v)
        return v

    return plain(out)


def config_hash(config: RunConfig) -> str:
    """Short identity of the physics content (outputs and preset excluded).

    The hash covers model, packet, evolution, and sweep after preset
    expansion, so relocating outputs or spelling a preset out by hand does
    not orphan previously completed sweep rows.
    """
    d = to_dict(config)
    d.pop("outputs", None)
    d.pop("preset", None)
    blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
