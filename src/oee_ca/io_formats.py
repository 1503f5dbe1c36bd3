"""File emitters and readers: records CSV, report JSON, SVG plots, PGM renders.

Every emitter embeds the resolved run configuration and tool version, so
identical configs give byte-identical files, and publishes through
``replacing``, so a file appears whole or not at all.  The records CSV holds
every ``ExecutionRecord`` field but ``attractor_rules``, the attractor cycle
kept in memory only, one byte per rule: ``analyze`` rebuilds the
``ensemble`` report from the CSV with an empty metagenome.  It is written and
read a column of 512 records at a time: each distinct value of a column is
formatted once, and each distinct text of a column parsed once.

``ExecutionRecord`` is a slotted dataclass that nothing mutates after
construction; it is not frozen, so it is not hashable.  It pickles as its
field tuple, so pool workers send rows and the parent rebuilds the records.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import compress, islice, repeat
from typing import TYPE_CHECKING

from . import __version__
from .complexity import EXTINCT
from .variants import Variant, gc_paused

if TYPE_CHECKING:
    from .ensemble import EnsembleReport


def _or_none(parse):
    """``parse``, reading an empty field as None."""
    return lambda text: None if text == "" else parse(text)


def _column(read, write=str, *widths: str):
    """A CSV column: ``read`` parses its text; ``write(value, *widths)`` formats a value."""
    return field(metadata={"read": read, "write": write, "widths": widths})


def _flag(read):
    """A flag column, written as 1 or 0."""
    return _column(read, lambda flag: str(int(flag)))


def _state(read, ring: str):
    """A packed state, in hex digits enough for the width field ``ring``."""
    return _column(read, lambda bits, width: format(bits, f"0{(width + 3) // 4}x"), ring)


_hex = partial(int, base=16)
_one = lambda text: text == "1"


@dataclass(slots=True)
class ExecutionRecord:
    """One execution of a plan.  Every field but ``attractor_rules`` is a
    records-CSV column, in field order."""

    variant: Variant = _column(Variant, operator.attrgetter("value"))
    w_o: int = _column(int)
    w_e: int | None = _column(_or_none(int))
    mu: float | None = _column(_or_none(float))
    seed: int | None = _column(_or_none(int))   # per-execution stream seed (Case III only)
    init_rule_o: int = _column(int)
    rule_e: int | None = _column(_or_none(int))
    init_state_o: int = _state(_hex, "w_o")
    init_state_e: int | None = _state(_or_none(_hex), "w_e")
    t_P: int = _column(int)
    t_r: int | None = _column(_or_none(int))
    t_r_rule: int | None = _column(_or_none(int))
    t_a: int | None = _column(_or_none(int))
    inn: bool | None = _flag(_or_none(_one))
    ue: bool | None = _flag(_or_none(_one))
    oee: bool | None = _flag(_or_none(_one))
    attractor_ue: bool | None = _flag(_or_none(_one))
    n_rule_transitions: int | None = _column(_or_none(int))
    innovation_I: float | None = _column(_or_none(float))
    compressed_bits: int | None = _column(_or_none(int))
    norm_bits: int | None = _column(_or_none(int))
    C: float | None = _column(_or_none(float))
    k: float | str | None = _column(_or_none(lambda text: text if text == EXTINCT
                                             else float(text)))
    censored: bool = _flag(_one)
    # in memory only: the rule sequence over one attractor cycle, a byte per rule
    attractor_rules: bytes | None = None

    def __reduce__(self):
        """Pickle as the field tuple, rebuilt by one constructor call."""
        return ExecutionRecord, _FIELDS(self)


_FIELDS = operator.attrgetter(*[f.name for f in fields(ExecutionRecord)])
_COLUMNS = [f for f in fields(ExecutionRecord) if "read" in f.metadata]
CSV_COLUMNS = [f.name for f in _COLUMNS]
_READERS = [f.metadata["read"] for f in _COLUMNS]
_GETTERS = [operator.attrgetter(name) for name in CSV_COLUMNS]
_FORMATS = [(f.metadata["write"], i, [CSV_COLUMNS.index(w) for w in f.metadata["widths"]])
            for i, f in enumerate(_COLUMNS)]
_BLOCK = 512   # records formatted, or parsed, a column at a time

ERRATA_NOTES = [
    "sample-space size implemented as 88^2 * 2^w_o * 2^w_e "
    "(published closed form uses exponents 8w, inconsistent with the "
    "published per-width totals)",
    "compressibility normalized by the ensemble-maximum compressed size, "
    "per the described procedure rather than the printed formula",
]


@contextmanager
def replacing(path: str, mode: str = "w", **open_kwargs):
    """Write ``path`` whole or not at all: the body writes to ``path + ".tmp"``,
    which is moved over ``path`` when the body returns and removed when the
    body or the move raises."""
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_echo(fh, config_echo: dict | None) -> None:
    """A CSV's ``#`` header: the tool version, then one ``key = value`` line
    per config entry, sorted by key."""
    fh.write(f"# oee-ca {__version__}\n")
    for key, value in sorted((config_echo or {}).items()):
        fh.write(f"# {key} = {value}\n")


def _texts(write, column, *widths) -> list[str]:
    """``column``'s CSV texts: empty for None, else ``write(value, *widths)``
    once per distinct value, or per value in a column whose widths change or
    that holds equal values printed differently (``1 == 1.0``, ``0.0 == -0.0``)."""
    same = lambda items: all(map(operator.is_, items, repeat(items[0])))
    if not all(map(same, widths)):
        return ["" if v is None else write(v, *w) for v, *w in zip(column, *widths)]
    text = lambda v, fixed=[w[0] for w in widths]: "" if v is None else write(v, *fixed)
    if same(column):   # one object, formatted once (an enum member also hashes slowly)
        return [text(column[0])] * len(column)
    kinds = set(map(type, column)) - {type(None), str}   # None and str equal no number
    zeros = compress(column, map(operator.eq, column, repeat(0)))   # read for floats only
    if len(kinds) > 1 or kinds and issubclass(*kinds, float) and len(
            set(map(math.copysign, repeat(1.0), zeros))) > 1:
        return list(map(text, column))
    memo = {v: text(v) for v in dict.fromkeys(column)}
    return list(map(memo.__getitem__, column))


@gc_paused()
def write_records_csv(records: list[ExecutionRecord], path: str,
                      config_echo: dict | None = None) -> None:
    """The ``#`` echo header, then the records, formatted a column of a block at
    a time.  No text holds a comma, quote or newline: the rows are csv's."""
    with replacing(path, newline="") as fh:
        write_echo(fh, config_echo)
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for start in range(0, len(records), _BLOCK):
            columns = [list(map(get, records[start:start + _BLOCK])) for get in _GETTERS]
            texts = [_texts(write, columns[i], *[columns[j] for j in widths])
                     for write, i, widths in _FORMATS]
            fh.writelines(("\n".join(map(",".join, zip(*texts))), "\n"))


@gc_paused()
def read_records_csv(path: str) -> list[ExecutionRecord]:
    """The records of a records CSV, parsed a column of a block of records at
    a time, each distinct text of a column once."""
    records = []
    with open(path, newline="") as fh:
        rows = csv.reader(line for line in fh if not line.startswith("#"))
        if next(rows, None) != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected CSV columns")
        while block := list(islice(rows, _BLOCK)):
            try:   # the strict zips raise ValueError on a row of the wrong length
                columns = [list(map({t: read(t) for t in set(column)}.__getitem__, column))
                           for read, column in zip(_READERS, zip(*block, strict=True), strict=True)]
            except ValueError:   # name the first bad record, and its first bad field
                for number, row in enumerate(block, len(records) + 1):
                    if len(row) != len(CSV_COLUMNS):
                        raise ValueError(f"{path}: record {number} has {len(row)} fields, "
                                         f"expected {len(CSV_COLUMNS)}") from None
                    for name, read, text in zip(CSV_COLUMNS, _READERS, row):
                        try:
                            read(text)
                        except ValueError:
                            raise ValueError(f"{path}: record {number}: {name} = {text!r} "
                                             "does not parse") from None
                raise
            records += map(ExecutionRecord, *columns)
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
    with replacing(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


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
    with replacing(path) as fh:
        fh.write(content)


# --- PGM --------------------------------------------------------------------

_PIXELS = bytes.maketrans(b"01", b"\x00\xff")


def write_pgm(states: list[int], width: int, path: str) -> None:
    """Binary P5 render of a state trajectory: one row per ``width``-cell
    packed state, one pixel per cell, byte 0 for 0-cells (white), 255 for
    1-cells (black)."""
    if not states:
        raise ValueError("no rows to render")
    with replacing(path, "wb") as fh:
        fh.write(f"P5\n# oee-ca {__version__}\n{width} {len(states)}\n255\n".encode())
        for bits in states:
            fh.write(format(bits, f"0{width}b").encode().translate(_PIXELS))


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
