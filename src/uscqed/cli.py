"""Command-line surface: configured runs, sweeps, studies, and plots.

Every subcommand takes ``--config`` (a strict JSON file), ``--preset``, or
both (the flag overrides the file's preset).  Heavy modules load inside the
handlers so ``--help`` stays instant.  Exit codes: 0 success, 2 config
error, 3 resource error, 4 results carrying validity flags or an invalid
run (non-finite data, a solve that did not converge).

The configured commands write into the output directory: tables and
metadata named ``<stem>_<hash>.<ext>`` by `sweep.output_path` from the
config hash, each command a ``<command>_<hash>.meta.json`` with the
expanded config, and run sidecars named by `sweep.run_point`:

* ``ground-state``: ``gs`` CSV, the photon density n_x per site; E_GS and
  the parity go in the meta JSON;
* ``bound-states``: ``bound_states`` CSV, one row per coupling, repeated in
  the meta JSON;
* ``scatter``: the ``scatter`` CSV, written whole with the one row of its
  run, repeated in the meta JSON, and the run sidecar
  ``run_<hash>_000.json`` (``run_<hash>_000_nk.json`` with ``--nk-series``,
  so a later sweep keeps the series);
* ``sweep``: the resumable ``sweep`` CSV and one sidecar
  ``run_<hash>_<i>.json`` per grid point that ran without error;
* ``converge``: ``convergence`` CSV, one row per (D, n_max), and
  ``convergence`` JSON, the T(omega) and R(omega) spectra.

``oracle`` writes nothing; ``plot`` writes gnuplot scripts and their data.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import (BandEdgeError, ConfigError, ConvergenceError,
                     NumericError, ResourceError)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_FLAGGED = 4


def _load_config(args):
    from .config import parse_config

    return parse_config(args.config, preset=args.preset, out=args.out)


def _say(args):
    if getattr(args, "quiet", False):
        return lambda s: None
    return lambda s: print(s, flush=True)


def _write_metadata(cfg, name: str, extra: dict) -> None:
    from .config import config_hash, to_dict
    from .sweep import output_path

    payload = {"command": name, "preset": cfg.preset,
               "config": to_dict(cfg), "config_hash": config_hash(cfg)}
    payload.update(extra)
    with open(output_path(cfg, name, "meta.json"), "w",
              encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


def cmd_ground_state(args) -> int:
    from .evolution import embedded_ground_state
    from .model import parity_expectation, photon_number_ops
    from .mps import site_expectations
    from .sweep import output_path, write_table

    cfg = _load_config(args)
    say = _say(args)
    t0 = time.perf_counter()
    say(f"solving ground state on L={cfg.model.L} (g={cfg.model.g:g})")
    e, gs, _ = embedded_ground_state(cfg.model)
    n_x = site_expectations(gs, photon_number_ops(cfg.model)).real
    parity = parity_expectation(gs, cfg.model)
    wall = time.perf_counter() - t0
    print(f"E_GS = {e:.12g}   parity = {parity:+.6f}   "
          f"cloud photons = {float(n_x.sum()):.6g}   ({wall:.1f} s)")
    path = output_path(cfg, "gs", "csv")
    write_table(path, ["x", "n_x"], enumerate(n_x))
    say(f"wrote {path}")
    _write_metadata(cfg, "ground-state",
                    {"E_GS": e, "parity": parity, "wall_time": wall})
    return EXIT_OK


def cmd_bound_states(args) -> int:
    import dataclasses

    from .config import couplings
    from .evolution import bound_states
    from .model import band_edges
    from .sweep import output_path, write_table

    cfg = _load_config(args)
    say = _say(args)
    rows = []
    for g in couplings(cfg):
        t0 = time.perf_counter()
        bs = bound_states(dataclasses.replace(cfg.model, g=g))
        e0, e1, e2 = (float(x) for x in bs.energies)
        rows.append({"g": g, "E_GS": e0, "E1": e1, "E2": e2,
                     "parity_GS": float(bs.parities[0]),
                     "parity_E1": float(bs.parities[1]),
                     "parity_E2": float(bs.parities[2]),
                     "gap": bs.raman_gap})
        say(f"g={g:g}: E_GS={e0:.8f} E1={e1:.8f} E2={e2:.8f} "
            f"gap={bs.raman_gap:.8f} ({time.perf_counter() - t0:.1f} s)")
    band = band_edges(cfg.model)
    print(f"band: [{band[0]:.6f}, {band[1]:.6f}]")
    path = output_path(cfg, "bound_states", "csv")
    write_table(path, list(rows[0]), (r.values() for r in rows))
    say(f"wrote {path}")
    _write_metadata(cfg, "bound-states", {"rows": rows})
    return EXIT_OK


def cmd_scatter(args) -> int:
    import dataclasses

    from .config import grid
    from .sweep import COLUMNS, bound_data, output_path, run_point, write_table

    cfg = _load_config(args)
    say = _say(args)
    g, omega = grid(cfg)[0]
    say(f"g={g:g}: solving bound states and ground state")
    gap, gs, e_gs = bound_data(dataclasses.replace(cfg.model, g=g))
    say(f"gap = {gap:.6f}; launching packet")
    row = run_point(cfg, 0, g, omega, gap, gs, e_gs,
                    measure_nk=args.nk_series, strict=True)
    path = output_path(cfg, "scatter", "csv")
    write_table(path, COLUMNS, [[getattr(row, c) for c in COLUMNS]])
    say(f"wrote {path}")
    _write_metadata(cfg, "scatter", {"row": dataclasses.asdict(row)})
    print(f"omega_in={row.omega_in:.6g}  T={row.T:.6g}  R={row.R:.6g}  "
          f"P_ine={row.p_inelastic:.6g}  omega_out={row.omega_out:.6g}  "
          f"flags=[{row.flags or 'none'}]")
    return EXIT_FLAGGED if row.flags else EXIT_OK


def cmd_sweep(args) -> int:
    from .sweep import sweep, sweep_path

    cfg = _load_config(args)
    rows = sweep(cfg, progress=_say(args))
    flagged = sum(1 for r in rows if r.flags)
    print(f"{len(rows)} rows in {sweep_path(cfg)} ({flagged} flagged)")
    _write_metadata(cfg, "sweep", {"rows": len(rows), "flagged": flagged})
    return EXIT_FLAGGED if flagged else EXIT_OK


def _int_list(flag: str, text: str) -> list:
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated integers, got "
                          f"{text!r}") from None


def _study_lists(cfg, args):
    """``(D_list, nmax_list)`` of ``converge``, each entry checked against
    the config before any solve; no ``--nmax-list`` means the model's."""
    import dataclasses

    D_list = _int_list("--bond-dims", args.bond_dims)
    nmax_list = _int_list("--nmax-list", args.nmax_list) \
        if args.nmax_list else [cfg.model.n_max]
    try:
        for D in D_list:
            dataclasses.replace(cfg.evolution, max_rank=D)
    except ValueError as exc:
        raise ConfigError(f"--bond-dims: D={D}: {exc}") from exc
    try:
        for n_max in nmax_list:
            dataclasses.replace(cfg.model, n_max=n_max)
    except ConfigError as exc:
        raise ConfigError(f"--nmax-list: n_max={n_max}: {exc}") from exc
    return D_list, nmax_list


def cmd_converge(args) -> int:
    from .sweep import convergence_study, output_path, write_convergence_csv

    cfg = _load_config(args)
    D_list, nmax_list = _study_lists(cfg, args)
    study = convergence_study(cfg, D_list, nmax_list, progress=_say(args))
    for r in study.rows:
        print(f"D={r.D:<3d} n_max={r.n_max}  T_max={r.T_max:.4f}  "
              f"dev_prev={r.max_dev_prev:.4f}  "
              f"{'UNPHYSICAL' if r.unphysical else 'ok'}")
    path = output_path(cfg, "convergence", "csv")
    write_convergence_csv(study, path)
    print(f"wrote {path}")
    path = output_path(cfg, "convergence", "json")
    payload = {f"D{d}_n{n}": {"omega": list(map(float, om)),
                              "T": list(map(float, T)),
                              "R": list(map(float, R))}
               for (d, n), (om, T, R) in study.spectra.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    print(f"wrote {path}")
    _write_metadata(cfg, "converge", {"D_list": D_list,
                                      "nmax_list": nmax_list})
    return EXIT_FLAGGED if any(r.unphysical or r.flags.startswith("error")
                               for r in study.rows) else EXIT_OK


def cmd_oracle(args) -> int:
    checks = [args.which] if args.which != "all" else \
        ["free-packet", "dense-spectrum", "rwa-transmission"]
    failed = False
    for which in checks:
        ok, detail = _oracle_check(which, _say(args))
        print(f"[{'ok' if ok else 'FAIL'}] {which}: {detail}")
        failed = failed or not ok
    return EXIT_FLAGGED if failed else EXIT_OK


def _oracle_check(which: str, say):
    import numpy as np

    from . import scattering as sc
    from .model import ModelParams

    if which == "free-packet":
        # exact standing-wave propagation vs dense matrix exponential
        p = ModelParams(L=48, g=0.0, j0=24, n_max=1)
        spec = sc.WavepacketSpec(omega=1.0, sigma=4.0, x0=12.0)
        h = np.diag(np.ones(p.L)) + p.J * (np.diag(np.ones(p.L - 1), 1)
                                           + np.diag(np.ones(p.L - 1), -1))
        w, v = np.linalg.eigh(h)
        phi0 = sc.packet_profile(p, spec)
        want = v @ (np.exp(-1j * w * 90.0) * (v.conj().T @ phi0))
        dev = float(np.max(np.abs(sc.free_reference(p, spec, 90.0) - want)))
        return dev < 1e-10, f"max deviation {dev:.2e} (tol 1e-10)"
    if which == "dense-spectrum":
        from .evolution import bound_states
        from .oracles import exact_diagonalize

        p = ModelParams(L=7, g=0.5, j0=3, n_max=3)
        say("dense spectrum on 7 sites")
        ed = exact_diagonalize(p)
        bs = bound_states(p)
        dev = max(abs(float(bs.energies[i]) - float(ed.bound[k]))
                  for i, k in enumerate(("gs", "e1", "e2")))
        return dev < 1e-5, f"max energy deviation {dev:.2e} (tol 1e-5)"
    if which == "rwa-transmission":
        from .mps import product_state
        from .oracles import rwa_single_excitation_scattering

        p = ModelParams(L=100, g=0.5, j0=50, n_max=1, coupling_mode="rwa")
        spec = sc.WavepacketSpec(omega=1.0, sigma=4.0, x0=30.0)
        say("rwa packet run on 100 sites")
        vac = product_state(p.local_dims(), [0] * p.L)
        res = sc.run_scattering(p, spec, t_final=78.0, dt=0.1, order=3,
                                max_rank=8, cutoff=1e-12, n_snapshots=6,
                                gs=vac, gs_energy=0.0)
        ts = sc.transmission_spectrum(res, window=6, taper=8)
        dev = float(np.median(np.abs(
            [ts.T[i] - abs(rwa_single_excitation_scattering(p, float(om))[0]) ** 2
             for i, om in enumerate(ts.omega)])))
        return dev < 0.02, f"median |T - T_exact| {dev:.4f} (tol 0.02)"
    raise ConfigError(f"unknown oracle check {which!r}")


def cmd_plot(args) -> int:
    import csv

    from .plots import emit_plots

    try:
        with open(args.table, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot open {args.table}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{args.table} is not UTF-8: {exc.reason}")
    sidecar_dir = args.sidecar_dir or os.path.dirname(os.path.abspath(
        args.table))
    out = args.out or os.path.dirname(os.path.abspath(args.table))
    paths, gaps = emit_plots(rows, args.figure, out_dir=out,
                             sidecar_dir=sidecar_dir)
    for p in paths:
        print(f"wrote {p}")
    for gap in gaps:
        print(f"gap: {gap}", file=sys.stderr)
    if not any(p.endswith(".gp") for p in paths):
        raise ConfigError(f"{args.figure}: table cannot support the figure "
                          "(see gap report)")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uscqed",
        description="Single-photon scattering on an ultrastrongly coupled "
                    "emitter in a cavity array: ground states, packet runs, "
                    "sweeps, convergence studies, and plot emission.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--preset", help="named parameter set "
                       "(desk, paper-fig3..paper-fig6, paper-fig5-inset)")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress lines")

    p = sub.add_parser("ground-state",
                       help="solve the interacting ground state")
    common(p)
    p.set_defaults(func=cmd_ground_state)

    p = sub.add_parser("bound-states",
                       help="bound-state energies per coupling")
    common(p)
    p.set_defaults(func=cmd_bound_states)

    p = sub.add_parser("scatter", help="one packet-scattering run")
    common(p)
    p.add_argument("--nk-series", action="store_true",
                   help="record momentum occupations at every snapshot")
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("sweep", help="grid of runs with resumable output")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("converge",
                       help="transmission spectra across D and n_max")
    common(p)
    p.add_argument("--bond-dims", default="6,10,14",
                   help="comma-separated D values (default 6,10,14)")
    p.add_argument("--nmax-list", default="",
                   help="comma-separated n_max values (default: config's)")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("oracle",
                       help="compare the pipeline against exact references")
    p.add_argument("--which", default="all",
                   choices=["all", "free-packet", "dense-spectrum",
                            "rwa-transmission"])
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("plot", help="emit gnuplot scripts for a figure")
    p.add_argument("--figure", required=True,
                   choices=["fig2", "fig3", "fig4", "fig5", "fig6"])
    p.add_argument("--table", required=True,
                   help="result CSV (sweep, scatter, or bound-states)")
    p.add_argument("--sidecar-dir",
                   help="directory holding run sidecar JSON files")
    p.add_argument("--out", help="output directory for scripts and data")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, BandEdgeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ResourceError, MemoryError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (NumericError, ConvergenceError) as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return EXIT_FLAGGED
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
