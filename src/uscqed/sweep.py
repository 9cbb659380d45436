"""Sweep orchestration: grids of scattering runs with resumable CSV output.

One row per (g, omega_in) point, run one after another in grid order.
The gap's two even bound states and the embedded ground state are solved
once per coupling, by `bound_data` from the model alone, and shared
read-only by that coupling's runs; each run appends its row atomically, so
an interrupted sweep resumes by skipping every coordinate already present
for the same config hash.  Run failures become rows with an error flag
instead of aborting the sweep.  Every file a command writes is named and
formatted here: tables and metadata by `output_path` and `write_table`,
run sidecars by `run_point`.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from . import scattering as sc
from .config import RunConfig, config_hash, grid
from .errors import ConfigError
from .evolution import embedded_ground_state, raman_states
from .model import ModelParams

# |T + R + P_ine - 1| beyond this marks a row as violating flux balance.
BALANCE_TOLERANCE = 0.05

@dataclass
class ResultRow:
    run_id: str
    g: float
    omega_in: float
    k_in: float
    T: float
    R: float
    p_elastic: float
    p_inelastic: float
    p_inelastic_t: float
    p_inelastic_r: float
    omega_out: float
    omega_out_expected: float
    gap: float
    raman_threshold: float
    gs_energy: float
    D: int
    n_max: int
    dt: float
    total_discarded: float
    flags: str
    wall_time: float
    config_hash: str
    sidecar: str = ""


COLUMNS = [f.name for f in dataclasses.fields(ResultRow)]


def fmt(value) -> str:
    """Canonical cell text; floats at 17 significant digits round-trip."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_table(path: str, columns, rows) -> None:
    """CSV at ``path``: the ``columns`` header, then one line per row.

    Every cell goes through `fmt`.  Every table a command writes whole
    comes from here; `_append_row` adds the sweep rows one at a time.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(columns)
        w.writerows([fmt(v) for v in r] for r in rows)


def output_path(config: RunConfig, stem: str, ext: str) -> str:
    """``<directory>/<stem>_<config hash>.<ext>``, the directory made.

    Every table and metadata file a command writes is named here; the
    per-run sidecars are named by `run_point`.
    """
    os.makedirs(config.outputs.directory, exist_ok=True)
    return os.path.join(config.outputs.directory,
                        f"{stem}_{config_hash(config)}.{ext}")


def _append_row(path: str, row: ResultRow) -> None:
    with open(path, "a", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(
            [fmt(getattr(row, c)) for c in COLUMNS])
        fh.flush()
        os.fsync(fh.fileno())


def _ensure_header(path: str) -> None:
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        write_table(path, COLUMNS, ())


def read_rows(path: str) -> list:
    """Rows from a sweep CSV, numeric fields coerced back."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for rec in csv.DictReader(fh):
            kw = {}
            for f in dataclasses.fields(ResultRow):
                raw = rec[f.name]
                if f.type == "float":
                    kw[f.name] = float(raw)
                elif f.type == "int":
                    kw[f.name] = int(raw)
                else:
                    kw[f.name] = raw
            rows.append(ResultRow(**kw))
    return rows


def sweep_path(config: RunConfig) -> str:
    return output_path(config, "sweep", "csv")


def bound_data(params: ModelParams):
    """(gap, gs, gs_energy) for one coupling; gap from a reduced chain.

    The Raman gap E2 - E_GS, the bound-state table's, comes from the two
    even solves of `raman_states` on the scatterer window; no odd state is
    solved.  The window's ground state, embedded in the full chain and
    polished there, is what scattering runs build packets on, so each
    coupling solves its ground state once; when the window is the whole
    chain, it is that state and its energy.
    """
    ground, excited = raman_states(params)
    e_gs, gs, _ = embedded_ground_state(params, core=ground)
    return float(excited[0] - ground[0]), gs, float(e_gs)


def _interp_at(x0: float, x: np.ndarray, y: np.ndarray) -> float:
    """``y`` interpolated at ``x0``; NaN on an empty grid."""
    if x.size == 0:
        return float("nan")
    order = np.argsort(x)
    return float(np.interp(x0, x[order], y[order]))


def _sidecar_payload(row: ResultRow, result, ts, ine, extra) -> dict:
    payload = {
        "run_id": row.run_id, "config_hash": row.config_hash,
        "g": row.g, "omega_in": row.omega_in, "k_in": row.k_in,
        "gap": row.gap, "flags": result.flags,
        "times": [float(t) for t in result.times],
        "delta_p": list(map(float, sc.qubit_dynamics(result)[1])),
        "n_x": [list(map(float, s.n_x)) for s in result.snapshots],
        "k": list(map(float, result.k_grid)),
        "n_k_initial": list(map(float, result.n_k_initial)),
        "n_k_final": list(map(float, result.n_k_final)),
        "gs_n_k": list(map(float, result.gs_n_k)),
        "gs_n_x": list(map(float, result.gs_n_x)),
    }
    if all(s.n_k is not None for s in result.snapshots):
        payload["n_k_t"] = [list(map(float, s.n_k))
                            for s in result.snapshots]
    if ts is not None:
        payload["omega"] = list(map(float, ts.omega))
        payload["T"] = list(map(float, ts.T))
        payload["R"] = list(map(float, ts.R))
    if ine is not None:
        payload["p_inelastic"] = ine.p_inelastic
        payload["omega_out"] = ine.omega_out
    payload.update(extra)
    return payload


def _run_id(config: RunConfig, i: int) -> str:
    return f"{config_hash(config)[:8]}-{i:03d}"


def run_point(config: RunConfig, i: int, g: float, omega: float, gap: float,
              gs, gs_energy: float, measure_nk: bool = False,
              strict: bool = False) -> ResultRow:
    """Grid point ``i`` of `config.grid`, run and reduced to a row.

    The row's run id is ``<hash[:8]>-<i:03d>``, and a successful run also
    writes its sidecar JSON ``run_<hash>_<i:03d>.json`` beside the tables,
    named in the row's ``sidecar`` column; a run that measured the n_k
    series writes ``run_<hash>_<i:03d>_nk.json`` instead, so a sweep of the
    same config never overwrites the series.  Exceptions become error rows
    unless ``strict``; single-run callers set ``strict`` so failures
    surface with their own type.
    """
    t0 = time.perf_counter()
    evo = config.evolution
    params = dataclasses.replace(config.model, g=g)
    chash = config_hash(config)
    try:
        spec = dataclasses.replace(config.packet, omega=omega)
        result = sc.run_scattering(params, spec, evo.t_final,
                                   gs=gs, gs_energy=gs_energy,
                                   measure_nk=measure_nk,
                                   **evo.run_kwargs())
        omega_in = result.info.omega
        k_in = result.info.momentum
        ine = sc.inelastic_spectrum(result, gap=gap)
        om_b, r_b, p_b = sc.broadband_spectrum(result, gap)
        flags = list(result.flags)
        extra = {"broadband_omega": list(map(float, om_b))}
        if params.boundary == "mirror":
            # no transmitted side; R is the elastic return at the carrier
            ts, T = None, float("nan")
            R = _interp_at(omega_in, om_b, np.nan_to_num(r_b, nan=0.0))
            extra["broadband_r_el"] = list(map(float, r_b))
            balance = R + ine.p_inelastic
        else:
            ts = sc.transmission_spectrum(result)
            T = _interp_at(omega_in, ts.omega, ts.T)
            R = _interp_at(omega_in, ts.omega, ts.R)
            balance = T + R + ine.p_inelastic
        extra["broadband_p_ine"] = list(map(float, p_b))
        for name, value in (("T", T), ("R", R)):
            if value > 1.01:
                flags.append(f"unphysical {name}={value:.4f}")
        if abs(balance - 1.0) > BALANCE_TOLERANCE:
            flags.append(f"flux balance off by {balance - 1.0:+.3f}")
        suffix = "_nk" if measure_nk else ""
        row = ResultRow(
            run_id=_run_id(config, i), g=g, omega_in=omega_in, k_in=k_in,
            T=T, R=R, p_elastic=ine.p_elastic, p_inelastic=ine.p_inelastic,
            p_inelastic_t=ine.p_inelastic_t, p_inelastic_r=ine.p_inelastic_r,
            omega_out=ine.omega_out,
            omega_out_expected=ine.omega_out_expected, gap=gap,
            raman_threshold=sc.raman_threshold(gap, params),
            gs_energy=gs_energy, D=evo.max_rank, n_max=params.n_max,
            dt=evo.dt, total_discarded=result.snapshots[-1].discarded,
            flags="; ".join(flags), wall_time=time.perf_counter() - t0,
            config_hash=chash, sidecar=f"run_{chash}_{i:03d}{suffix}.json")
        os.makedirs(config.outputs.directory, exist_ok=True)
        with open(os.path.join(config.outputs.directory, row.sidecar), "w",
                  encoding="utf-8") as fh:
            json.dump(_sidecar_payload(row, result, ts, ine, extra), fh)
        return row
    except Exception as exc:  # record the failure, keep sweeping
        if strict:
            raise
        return _error_row(config, i, g, omega,
                          f"error: {type(exc).__name__}: {exc}",
                          gap=gap, gs_energy=gs_energy,
                          wall_time=time.perf_counter() - t0)


def _error_row(config: RunConfig, i: int, g: float, omega: float,
               flags: str, gap: float = None, gs_energy: float = None,
               wall_time: float = 0.0) -> ResultRow:
    """Row of grid point ``i`` that produced no result; ``flags`` says why."""
    nan = float("nan")
    row = {f.name: nan for f in dataclasses.fields(ResultRow)
           if f.type == "float"}
    row.update(run_id=_run_id(config, i), g=g, omega_in=omega,
               gap=nan if gap is None else gap,
               gs_energy=nan if gs_energy is None else gs_energy,
               D=config.evolution.max_rank, n_max=config.model.n_max,
               dt=config.evolution.dt, flags=flags, wall_time=wall_time,
               config_hash=config_hash(config))
    return ResultRow(**row)


def sweep(config: RunConfig, progress=None) -> list:
    """Run every grid point not already present in the sweep CSV.

    Points run one after another in grid order, and each row is appended
    as soon as its run ends, so new rows are written in grid order.
    Returns the full table (previous rows first, then new ones).  On
    resume every coordinate with a row under the same config hash counts
    as done, error rows included: a failed point is not retried until its
    row is deleted from the CSV.
    """
    say = progress or (lambda s: None)
    path = sweep_path(config)
    _ensure_header(path)
    chash = config_hash(config)
    done_rows = [r for r in read_rows(path) if r.config_hash == chash]
    done = {(fmt(r.g), fmt(r.omega_in)) for r in done_rows}
    points = grid(config)
    todo = [(i, g, omega) for i, (g, omega) in enumerate(points)
            if (fmt(g), fmt(float(omega))) not in done]
    say(f"{len(points)} grid points, {len(points) - len(todo)} already done")
    if not todo:
        return done_rows

    new_rows = []
    for g, items in itertools.groupby(todo, key=lambda item: item[1]):
        say(f"g={g:g}: solving bound states and ground state")
        try:
            gap, gs, e_gs = bound_data(dataclasses.replace(config.model,
                                                           g=g))
            failure = None
        except Exception as exc:
            failure = f"error: bound states failed: {exc}"
        for i, _, omega in items:
            if failure is not None:
                row = _error_row(config, i, g, omega, failure)
            else:
                row = run_point(config, i, g, omega, gap, gs, e_gs)
            _append_row(path, row)
            new_rows.append(row)
            say(f"  row {row.run_id}: omega={row.omega_in:.4g} "
                f"T={row.T:.4f} P_ine={row.p_inelastic:.4f} "
                f"[{row.flags or 'ok'}]")
    return done_rows + new_rows


# ---------------------------------------------------------------------------
# convergence studies

@dataclass
class ConvergenceRow:
    D: int
    n_max: int
    T_max: float               # peak of T(omega) over the packet band;
                               # NaN when the spectrum is empty
    max_dev_prev: float        # vs the previous D at the same n_max; NaN
                               # on the first D of each n_max block
    unphysical: bool           # any T beyond 1.01
    flags: str
    wall_time: float


@dataclass
class ConvergenceStudy:
    rows: list
    spectra: dict              # (D, n_max) -> (omega, T, R)
    config_hash: str


def convergence_study(config: RunConfig, D_list, nmax_list,
                      progress=None) -> ConvergenceStudy:
    """T(omega) at the config's base point across refinement settings.

    Runs every (n_max, D) combination, reports per-step divergence against
    the previous bond dimension on a common frequency grid, and flags
    spectra that poke beyond T = 1.01, the telltale of an underresolved
    run.  The first D of each n_max block has no previous bond dimension
    to compare with, so its ``max_dev_prev`` is NaN, as on error rows:
    a deviation never measured is not reported as zero.  The sweep grids
    in ``config`` are ignored; the base model and packet define the single
    scattering geometry studied.  The ground state is solved once per
    n_max, with the solver's own defaults, and shared by every D; no gap
    is needed, so no bound states are solved.
    """
    D_list = list(D_list)
    nmax_list = list(nmax_list)
    if not D_list or not nmax_list:
        raise ConfigError("convergence study needs nonempty D and n_max lists")
    say = progress or (lambda s: None)
    chash = config_hash(config)
    rows, spectra = [], {}
    for n_max in nmax_list:
        params = dataclasses.replace(config.model, n_max=n_max)
        prev = None
        ground = None
        for D in D_list:
            t0 = time.perf_counter()
            say(f"n_max={n_max} D={D}")
            evo = dataclasses.replace(config.evolution, max_rank=D)
            try:
                if ground is None:
                    e_gs, gs, _ = embedded_ground_state(params)
                    ground = (gs, float(e_gs))
                gs, e_gs = ground
                result = sc.run_scattering(params, config.packet, evo.t_final,
                                           gs=gs, gs_energy=e_gs,
                                           **evo.run_kwargs())
                ts = sc.transmission_spectrum(result)
            except Exception as exc:
                rows.append(ConvergenceRow(
                    D, n_max, float("nan"), float("nan"), False,
                    f"error: {type(exc).__name__}: {exc}",
                    time.perf_counter() - t0))
                continue
            flags = list(result.flags)
            order = np.argsort(ts.omega)
            om, T, R = ts.omega[order], ts.T[order], ts.R[order]
            spectra[(D, n_max)] = (om, T, R)
            # an empty spectrum (the packet missed the window) has no peak
            T_max = float(np.max(T)) if T.size else float("nan")
            dev = float("nan")
            if prev is not None and T.size and prev[0].size:
                p_om, p_T = prev
                both = (om >= p_om.min()) & (om <= p_om.max())
                dev = float(np.max(np.abs(
                    T[both] - np.interp(om[both], p_om, p_T))))
            unphysical = T_max > 1.01
            if unphysical:
                flags.append(f"unphysical T up to {T_max:.4f}")
            rows.append(ConvergenceRow(D, n_max, T_max, dev, unphysical,
                                       "; ".join(flags),
                                       time.perf_counter() - t0))
            prev = (om, T)
    return ConvergenceStudy(rows=rows, spectra=spectra, config_hash=chash)


def write_convergence_csv(study: ConvergenceStudy, path: str) -> None:
    fields = [f.name for f in dataclasses.fields(ConvergenceRow)]
    write_table(path, fields + ["config_hash"],
                ([getattr(r, f) for f in fields] + [study.config_hash]
                 for r in study.rows))
