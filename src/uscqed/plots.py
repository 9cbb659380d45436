"""Gnuplot script emission for the standard figures.

Each figure id turns a result table into plain CSV data files plus a
self-contained gnuplot script referencing only those files.  Anything the
table cannot support is collected into a gap report instead of an error,
so a partially filled sweep still renders what it can.

Figure ids: ``fig2`` bound-state energies vs g; ``fig3`` density evolution
heatmaps of a single run; ``fig4`` elastic transmission over (omega, g)
with the polariton resonance overlay; ``fig5`` conversion probability over
(omega, g) with the threshold boundary; ``fig6`` scatterer excitation
histories per g.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from .errors import ConfigError, ConvergenceError
from .model import ModelParams, band_edges
from .oracles import resonance_frequency

FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6")


def _as_dicts(table) -> list:
    rows = []
    for r in table:
        if dataclasses.is_dataclass(r):
            rows.append(dataclasses.asdict(r))
        else:
            rows.append(dict(r))
    return rows


def _load_sidecars(rows, sidecar_dir):
    """(row, payload) pairs for rows whose sidecar file loads; gaps for the rest."""
    loaded, gaps = [], []
    for r in rows:
        name = r.get("sidecar") or ""
        if str(r.get("flags", "")).startswith("error:"):
            gaps.append(f"run {r.get('run_id')}: failed ({r.get('flags')})")
            continue
        if not name:
            gaps.append(f"run {r.get('run_id')}: no sidecar "
                        "(delete its row and rerun)")
            continue
        path = os.path.join(sidecar_dir, name)
        if not os.path.exists(path):
            gaps.append(f"run {r.get('run_id')}: sidecar {name} missing")
            continue
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded.append((r, json.load(fh)))
        except (OSError, ValueError) as exc:  # JSON and UTF-8 errors too
            gaps.append(f"run {r.get('run_id')}: sidecar {name} "
                        f"unreadable ({exc})")
    return loaded, gaps


def _heatmap_csv(path, header, xs, ys, grid):
    """``header``, then blocks of (x, y, value) lines, one block per y, for
    pm3d/image; ``grid[j, i]`` is the value at ``(xs[i], ys[j])``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        for j, y in enumerate(ys):
            for i, x in enumerate(xs):
                fh.write(f"{x:.10g} {y:.10g} {grid[j, i]:.10g}\n")
            fh.write("\n")


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _png_header(name, title, size="900,600"):
    return (f"set terminal pngcairo size {size}\n"
            f"set output '{name}.png'\n"
            f"set title \"{title}\"\n")


def _fig2(rows, out_dir, sidecar_dir):
    gaps = []
    needed = ("g", "E_GS", "E1", "E2")
    usable = [r for r in rows if all(c in r for c in needed)]
    if not usable:
        return [], ["fig2 needs a bound-state table with columns "
                    + ", ".join(needed)]
    usable.sort(key=lambda r: float(r["g"]))
    if len(usable) < 2:
        gaps.append("fig2: only one coupling present; energies plot "
                    "needs a g scan")
    data = os.path.join(out_dir, "fig2_data.csv")
    with open(data, "w", encoding="utf-8") as fh:
        fh.write("# g E_GS E1 E2\n")
        for r in usable:
            fh.write(f"{float(r['g']):.10g} {float(r['E_GS']):.17g} "
                     f"{float(r['E1']):.17g} {float(r['E2']):.17g}\n")
    lo, hi = band_edges(ModelParams(L=3, g=0.0, j0=1, n_max=1))
    script = os.path.join(out_dir, "fig2.gp")
    _write(script, _png_header("fig2", "Bound-state energies vs coupling") + f"""\
set xlabel "g"
set ylabel "energy"
set key left
plot [][*:*] \\
  'fig2_data.csv' using 1:2 with linespoints title "E_{{GS}}", \\
  '' using 1:3 with linespoints title "E_1", \\
  '' using 1:4 with linespoints title "E_2", \\
  '' using 1:($2+{lo:.10g}) with lines dt 2 lc 'gray' title "E_{{GS}}+band", \\
  '' using 1:($2+{hi:.10g}) with lines dt 2 lc 'gray' notitle
""")
    return [script, data], gaps


def _fig3(rows, out_dir, sidecar_dir):
    loaded, gaps = _load_sidecars(rows, sidecar_dir)
    loaded = [(r, p) for r, p in loaded if "n_x" in p]
    if not loaded:
        return [], gaps + ["fig3 needs one run sidecar with density "
                           "snapshots (scatter subcommand)"]
    row, payload = loaded[0]
    times = payload["times"]
    n_x = np.array(payload["n_x"])
    data = os.path.join(out_dir, "fig3_nx.csv")
    _heatmap_csv(data, "x t n_x", range(n_x.shape[1]), times, n_x)
    paths = [data]
    have_nk = "n_k_t" in payload
    if have_nk:
        data_k = os.path.join(out_dir, "fig3_nk.csv")
        _heatmap_csv(data_k, "k t n_k", payload["k"], times,
                     np.array(payload["n_k_t"]))
        paths.append(data_k)
    else:
        gaps.append("fig3: momentum-resolved panel skipped; rerun scatter "
                    "with the n_k series enabled")
    script = os.path.join(out_dir, "fig3.gp")
    title = f"Photon density evolution (g={row.get('g')}, " \
            f"omega_in={float(row.get('omega_in', 0)):.3g})"
    body = _png_header("fig3", title, size="1200,500")
    if have_nk:
        body += """\
set multiplot layout 1,2
set xlabel "x"; set ylabel "t"
plot 'fig3_nx.csv' using 1:2:3 with image pixels notitle
set xlabel "k"
plot 'fig3_nk.csv' using 1:2:3 with image pixels notitle
unset multiplot
"""
    else:
        body += """\
set xlabel "x"; set ylabel "t"
plot 'fig3_nx.csv' using 1:2:3 with image pixels notitle
"""
    _write(script, body)
    return [script] + paths, gaps


def _spectral_heatmap(rows, out_dir, sidecar_dir, value_key, name, title,
                      overlay):
    """Shared machinery of fig4/fig5: per-g broadband curves to a heatmap."""
    loaded, gaps = _load_sidecars(rows, sidecar_dir)
    key = "omega" if value_key == "T" else "broadband_omega"
    val = value_key if value_key == "T" else "broadband_p_ine"
    by_g = {}
    for r, p in loaded:
        if key in p and val in p:
            by_g[float(r["g"])] = (np.array(p[key]), np.array(p[val]), r)
        else:
            gaps.append(f"run {r.get('run_id')}: sidecar lacks {val}")
    if not by_g:
        return [], gaps + [f"{name} needs sidecars carrying {val}(omega)"]
    if len(by_g) < 2:
        gaps.append(f"{name}: single coupling only; heatmap needs a g grid")
    for g in sorted(by_g):
        om, v, r = by_g[g]
        if np.count_nonzero(np.isfinite(v)) < 2:
            gaps.append(f"run {r.get('run_id')}: no finite {val} values")
            del by_g[g]
    if not by_g:
        return [], gaps + [f"{name}: no rows with finite {val}(omega)"]
    gs = sorted(by_g)
    lo = max(np.nanmin(by_g[g][0]) for g in gs)
    hi = min(np.nanmax(by_g[g][0]) for g in gs)
    omega = np.linspace(lo, hi, 241)
    grid = np.empty((len(gs), omega.size))
    for j, g in enumerate(gs):
        om, v, _ = by_g[g]
        order = np.argsort(om)
        ok = np.isfinite(v[order])
        grid[j] = np.interp(omega, om[order][ok], v[order][ok])
    data = os.path.join(out_dir, f"{name}_data.csv")
    _heatmap_csv(data, "omega g value", omega, gs, grid)
    over_path, over_plot = overlay(by_g, gs, out_dir, gaps)
    script = os.path.join(out_dir, f"{name}.gp")
    _write(script, _png_header(name, title) + f"""\
set xlabel "omega_in"
set ylabel "g"
set view map
splot '{os.path.basename(data)}' using 1:2:3 with pm3d notitle{over_plot}
""")
    paths = [script, data] + ([over_path] if over_path else [])
    return paths, gaps


def _fig4(rows, out_dir, sidecar_dir):
    def overlay(by_g, gs, out, gaps):
        line = os.path.join(out, "fig4_resonance.csv")
        with open(line, "w", encoding="utf-8") as fh:
            fh.write("# g omega_R\n")
            for g in gs:
                r = by_g[g][2]
                try:    # ValueError: a bad n_max, or DegenerateError at g=0
                    p = ModelParams(L=3, g=g, j0=1,
                                    n_max=int(r.get("n_max", 4)))
                    fh.write(f"{g:.10g} {resonance_frequency(p):.10g}\n")
                except (ValueError, ConvergenceError) as exc:
                    gaps.append(f"run {r.get('run_id')}: no omega_R at "
                                f"g={g:g} ({type(exc).__name__}: {exc})")
        return line, (", \\\n  'fig4_resonance.csv' using 2:1:(0) "
                      "with lines lw 2 lc 'white' title 'omega_R'")

    return _spectral_heatmap(rows, out_dir, sidecar_dir, "T", "fig4",
                             "Elastic transmission T(omega_in, g)", overlay)


def _fig5(rows, out_dir, sidecar_dir):
    def overlay(by_g, gs, out, gaps):
        line = os.path.join(out, "fig5_threshold.csv")
        wrote = False
        with open(line, "w", encoding="utf-8") as fh:
            fh.write("# g threshold\n")
            for g in gs:
                r = by_g[g][2]
                thr = float(r.get("raman_threshold", float("nan")))
                if np.isfinite(thr):
                    fh.write(f"{g:.10g} {thr:.10g}\n")
                    wrote = True
        if not wrote:
            return None, ""
        return line, (", \\\n  'fig5_threshold.csv' using 2:1:(0) "
                      "with lines lw 2 lc 'white' title 'threshold'")

    return _spectral_heatmap(rows, out_dir, sidecar_dir, "P_ine", "fig5",
                             "Conversion probability P_ine(omega_in, g)",
                             overlay)


def _fig6(rows, out_dir, sidecar_dir):
    loaded, gaps = _load_sidecars(rows, sidecar_dir)
    series = []
    for r, p in loaded:
        if "times" in p and "delta_p" in p:
            series.append((float(r["g"]), p["times"], p["delta_p"]))
        else:
            gaps.append(f"run {r.get('run_id')}: sidecar lacks delta_p")
    if not series:
        return [], gaps + ["fig6 needs run sidecars with the scatterer "
                           "excitation history"]
    series.sort(key=lambda s: s[0])
    data = os.path.join(out_dir, "fig6_data.csv")
    with open(data, "w", encoding="utf-8") as fh:
        for g, t, dp in series:
            fh.write(f"# g={g:g}\n")
            for ti, pi in zip(t, dp):
                fh.write(f"{ti:.10g} {pi:.10g}\n")
            fh.write("\n\n")
    glist = " ".join(f"{g:g}" for g, _, _ in series)
    script = os.path.join(out_dir, "fig6.gp")
    _write(script, _png_header("fig6", "Scatterer excitation vs time") + f"""\
set xlabel "t"
set ylabel "delta P"
GLIST = "{glist}"
plot for [i=0:{len(series) - 1}] 'fig6_data.csv' index i using 1:2 \\
  with lines title sprintf("g=%s", word(GLIST, i+1))
""")
    return [script, data], gaps


def emit_plots(table, figure_id: str, out_dir: str = ".",
               sidecar_dir: str = None):
    """Write data files and a gnuplot script for one figure.

    Returns ``(paths, gaps)``: the emitted files and a list of human-readable
    notes about rows or panels the table could not cover.  An empty ``paths``
    means the figure could not be drawn at all.
    """
    if figure_id not in FIGURES:
        raise ConfigError(
            f"unknown figure {figure_id!r}; choose from {list(FIGURES)}")
    os.makedirs(out_dir, exist_ok=True)
    rows = _as_dicts(table)
    builder = {"fig2": _fig2, "fig3": _fig3, "fig4": _fig4,
               "fig5": _fig5, "fig6": _fig6}[figure_id]
    paths, gaps = builder(rows, out_dir, sidecar_dir or out_dir)
    if gaps:
        report = os.path.join(out_dir, f"{figure_id}_gaps.txt")
        _write(report, "".join(line + "\n" for line in gaps))
        paths = paths + [report]
    return paths, gaps
