"""File emitters and readers: records CSV, report JSON, SVG plots, PGM renders.

Every emitter embeds the resolved run configuration and tool version so two
runs with identical configs produce byte-identical files.  The CSV is
lossless for every field the analyze pipeline consumes.
"""

from __future__ import annotations

import csv
import json
import os
from typing import TYPE_CHECKING

from . import __version__
from .variants import Variant

if TYPE_CHECKING:
    from .ensemble import EnsembleReport, ExecutionRecord

CSV_COLUMNS = [
    "variant", "w_o", "w_e", "mu", "seed", "init_rule_o", "rule_e",
    "init_state_o", "init_state_e", "t_P", "t_r", "t_r_rule", "t_a",
    "inn", "ue", "oee", "attractor_ue", "n_rule_transitions", "innovation_I",
    "compressed_bits", "norm_bits", "C", "k", "censored",
]

ERRATA_NOTES = [
    "sample-space size implemented as 88^2 * 2^w_o * 2^w_e "
    "(published closed form uses exponents 8w, inconsistent with the "
    "published per-width totals)",
    "compressibility normalized by the ensemble-maximum compressed size, "
    "per the described procedure rather than the printed formula",
]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, Variant):
        return value.value
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_state(bits, width) -> str:
    if bits is None:
        return ""
    return format(bits, f"0{(width + 3) // 4}x")


def write_records_csv(records: list[ExecutionRecord], path: str,
                      config_echo: dict | None = None) -> None:
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(f"# oee-ca {__version__}\n")
            for key, value in sorted((config_echo or {}).items()):
                fh.write(f"# {key} = {value}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for rec in records:
                writer.writerow([
                    _fmt(rec.variant), rec.w_o, _fmt(rec.w_e), _fmt(rec.mu),
                    _fmt(rec.seed), rec.init_rule_o, _fmt(rec.rule_e),
                    _fmt_state(rec.init_state_o, rec.w_o),
                    _fmt_state(rec.init_state_e, rec.w_e or 0),
                    rec.t_P, _fmt(rec.t_r), _fmt(rec.t_r_rule), _fmt(rec.t_a),
                    _fmt(rec.inn), _fmt(rec.ue), _fmt(rec.oee),
                    _fmt(rec.attractor_ue), _fmt(rec.n_rule_transitions),
                    _fmt(rec.innovation_I), _fmt(rec.compressed_bits),
                    _fmt(rec.norm_bits), _fmt(rec.C), _fmt(rec.k),
                    _fmt(rec.censored),
                ])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _parse(value: str, kind):
    return None if value == "" else kind(value)


def _parse_flag(value: str) -> bool | None:
    return None if value == "" else value == "1"


def read_records_csv(path: str) -> list[ExecutionRecord]:
    # imported here: ``ensemble`` loads scipy, which writing a PGM or reading
    # a config file does not need
    from .ensemble import ExecutionRecord

    records = []
    with open(path, newline="") as fh:
        rows = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(rows)
        if header != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected CSV columns")
        for row in rows:
            d = dict(zip(CSV_COLUMNS, row))
            w_e = _parse(d["w_e"], int)
            k_raw = d["k"]
            k = None if k_raw == "" else (k_raw if k_raw == "extinct" else float(k_raw))
            records.append(ExecutionRecord(
                variant=Variant(d["variant"]),
                w_o=int(d["w_o"]), w_e=w_e,
                mu=_parse(d["mu"], float), seed=_parse(d["seed"], int),
                init_rule_o=int(d["init_rule_o"]),
                rule_e=_parse(d["rule_e"], int),
                init_state_o=int(d["init_state_o"], 16),
                init_state_e=None if d["init_state_e"] == "" else int(d["init_state_e"], 16),
                t_P=int(d["t_P"]), t_r=_parse(d["t_r"], int),
                t_r_rule=_parse(d["t_r_rule"], int), t_a=_parse(d["t_a"], int),
                inn=_parse_flag(d["inn"]), ue=_parse_flag(d["ue"]),
                oee=_parse_flag(d["oee"]), attractor_ue=_parse_flag(d["attractor_ue"]),
                n_rule_transitions=_parse(d["n_rule_transitions"], int),
                innovation_I=_parse(d["innovation_I"], float),
                compressed_bits=_parse(d["compressed_bits"], int),
                norm_bits=_parse(d["norm_bits"], int),
                C=_parse(d["C"], float), k=k,
                censored=_parse_flag(d["censored"]) or False,
            ))
    return records


def write_report_json(report: EnsembleReport, path: str,
                      config_echo: dict | None = None) -> None:
    doc = {
        "metadata": {
            "tool": "oee-ca",
            "version": __version__,
            "config": dict(sorted((config_echo or {}).items())),
            "errata_notes": ERRATA_NOTES,
        },
        "report": report.to_dict(),
    }
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# --- SVG --------------------------------------------------------------------

_SVG_HEAD = ('<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
             'viewBox="0 0 {w} {h}">\n<rect width="{w}" height="{h}" fill="white"/>\n')


def svg_histogram(hist: dict[str, int], title: str = "") -> str:
    w, h, pad = 480, 320, 40
    parts = [_SVG_HEAD.format(w=w, h=h)]
    parts.append(f'<text x="{w/2}" y="16" text-anchor="middle" font-size="12">{title}</text>\n')
    labels = list(hist.keys())
    if labels:
        top = max(hist.values())
        bw = (w - 2 * pad) / len(labels)
        for i, label in enumerate(labels):
            bh = (h - 2 * pad) * hist[label] / top
            x = pad + i * bw
            parts.append(f'<rect x="{x:.1f}" y="{h - pad - bh:.1f}" width="{bw * 0.9:.1f}" '
                         f'height="{bh:.1f}" fill="steelblue"/>\n')
            parts.append(f'<text x="{x + bw / 2:.1f}" y="{h - pad + 14}" '
                         f'text-anchor="middle" font-size="9">{label}</text>\n')
    parts.append(f'<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" y2="{h - pad}" stroke="black"/>\n')
    parts.append(f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h - pad}" stroke="black"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def svg_box(box, title: str = "") -> str:
    w, h, pad = 200, 320, 40
    parts = [_SVG_HEAD.format(w=w, h=h)]
    parts.append(f'<text x="{w/2}" y="16" text-anchor="middle" font-size="12">{title}</text>\n')
    if box is not None:
        lo, hi = box.minimum, box.maximum
        span = (hi - lo) or 1.0
        y = lambda v: h - pad - (h - 2 * pad) * (v - lo) / span
        cx, bw = w / 2, 60
        parts.append(f'<line x1="{cx}" y1="{y(box.whisker_lo):.1f}" x2="{cx}" '
                     f'y2="{y(box.whisker_hi):.1f}" stroke="black"/>\n')
        parts.append(f'<rect x="{cx - bw / 2}" y="{y(box.q3):.1f}" width="{bw}" '
                     f'height="{abs(y(box.q1) - y(box.q3)):.1f}" fill="lightsteelblue" stroke="black"/>\n')
        for v in (box.median, box.whisker_lo, box.whisker_hi):
            half = bw / 2 if v == box.median else bw / 4
            parts.append(f'<line x1="{cx - half}" y1="{y(v):.1f}" x2="{cx + half}" '
                         f'y2="{y(v):.1f}" stroke="black"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def svg_scatter(points: list[tuple[float, float]], title: str = "",
                xlabel: str = "", ylabel: str = "") -> str:
    w, h, pad = 480, 320, 40
    parts = [_SVG_HEAD.format(w=w, h=h)]
    parts.append(f'<text x="{w/2}" y="16" text-anchor="middle" font-size="12">{title}</text>\n')
    if points:
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        sx = (x1 - x0) or 1.0
        sy = (y1 - y0) or 1.0
        for px, py in points:
            x = pad + (w - 2 * pad) * (px - x0) / sx
            y = h - pad - (h - 2 * pad) * (py - y0) / sy
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2" fill="steelblue" fill-opacity="0.5"/>\n')
    parts.append(f'<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" y2="{h - pad}" stroke="black"/>\n')
    parts.append(f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h - pad}" stroke="black"/>\n')
    parts.append(f'<text x="{w/2}" y="{h - 8}" text-anchor="middle" font-size="10">{xlabel}</text>\n')
    parts.append(f'<text x="12" y="{h/2}" text-anchor="middle" font-size="10" '
                 f'transform="rotate(-90 12 {h/2})">{ylabel}</text>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def write_svg(content: str, path: str) -> None:
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# --- PGM --------------------------------------------------------------------

def write_pgm(rows: list[tuple[int, int]], path: str) -> None:
    """Binary P5 render of a state trajectory: one row per time step, one
    pixel per cell, byte 0 for 0-cells (white), 255 for 1-cells (black).
    ``rows`` is a list of (bits, width) pairs sharing one width."""
    if not rows:
        raise ValueError("no rows to render")
    width = rows[0][1]
    if any(w != width for _, w in rows):
        raise ValueError("rows must share one width")
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(f"P5\n# oee-ca {__version__}\n{width} {len(rows)}\n255\n".encode())
            for bits, w in rows:
                fh.write(bytes(255 if (bits >> (w - 1 - p)) & 1 else 0 for p in range(w)))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# --- flat config files ------------------------------------------------------

def read_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` text mirroring CLI flags."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out
