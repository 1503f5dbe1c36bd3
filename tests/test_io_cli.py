"""File formats (CSV, JSON, SVG, PGM, config) and the command-line interface."""

import argparse
import dataclasses
import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from helpers import SystemSnapshot, cell, render_rows, system_step
import oee_ca
from oee_ca import __version__
from oee_ca import complexity as cx
from oee_ca import io_formats as iof
from oee_ca.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, build_parser, main, render_start
from oee_ca.ensemble import SamplePlan, aggregate, run_ensemble
from oee_ca.eca import canonical_rules, load_class_table
from oee_ca.io_formats import (
    CSV_COLUMNS,
    read_config_file,
    read_records_csv,
    svg_box,
    svg_histogram,
    svg_scatter,
    write_pgm,
    write_records_csv,
    write_report_json,
    write_svg,
)
from oee_ca.variants import Variant, VariantConfig, execution_rng, run_trajectory


@pytest.fixture(scope="module")
def sample_records():
    plan = SamplePlan(Variant.CASE_I, 3, 3, sample_count=120, master_seed=5)
    return run_ensemble(plan)


# --- records CSV ------------------------------------------------------------

def test_csv_round_trip(sample_records, tmp_path):
    path = str(tmp_path / "records.csv")
    # a 64-cell organism state takes 16 hex digits, its leading zero kept
    wide = dataclasses.replace(sample_records[0], w_o=64, init_state_o=0x0123456789ABCDEF)
    write_records_csv([*sample_records, wide], path, config_echo={"wo": 3})
    loaded = read_records_csv(path)
    # attractor rule sequences are in-memory only; everything else survives
    stripped = [dataclasses.replace(r, attractor_rules=None) for r in [*sample_records, wide]]
    assert loaded == stripped
    assert ",0123456789abcdef," in Path(path).read_text().splitlines()[-1]


def test_csv_columns_pinned(sample_records, tmp_path):
    path = str(tmp_path / "records.csv")
    write_records_csv(sample_records, path)
    with open(path) as fh:
        lines = [l for l in fh if not l.startswith("#")]
    assert lines[0].rstrip("\n").split(",") == CSV_COLUMNS == [
        "variant", "w_o", "w_e", "mu", "seed", "init_rule_o", "rule_e",
        "init_state_o", "init_state_e", "t_P", "t_r", "t_r_rule", "t_a",
        "inn", "ue", "oee", "attractor_ue", "n_rule_transitions", "innovation_I",
        "compressed_bits", "norm_bits", "C", "k", "censored",
    ]


def test_csv_empty_records(tmp_path):
    path = str(tmp_path / "empty.csv")
    write_records_csv([], path)
    assert read_records_csv(path) == []
    with open(path) as fh:
        lines = [l for l in fh if not l.startswith("#")]
    assert len(lines) == 1  # header only


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_records_csv(str(path))
    path.write_text("")   # no header at all
    with pytest.raises(ValueError, match="unexpected CSV columns"):
        read_records_csv(str(path))


def test_csv_analyze_reproduces_aggregate(sample_records, tmp_path):
    """The CSV is lossless for every aggregate except the metagenome."""
    path = str(tmp_path / "records.csv")
    write_records_csv(sample_records, path)
    direct = aggregate(sample_records)
    from_csv = aggregate(read_records_csv(path))
    fix = lambda r: dataclasses.replace(r, metagenome_all=[], metagenome_oee=[])
    assert fix(from_csv) == fix(direct)


def test_csv_byte_identical_reruns(sample_records, tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_records_csv(sample_records, a, config_echo={"seed": 5})
    write_records_csv(sample_records, b, config_echo={"seed": 5})
    assert Path(a).read_bytes() == Path(b).read_bytes()


# --- report JSON ------------------------------------------------------------

def test_report_json_structure(sample_records, tmp_path):
    path = str(tmp_path / "report.json")
    write_report_json(aggregate(sample_records), path, config_echo={"wo": 3})
    doc = json.loads(Path(path).read_text())
    assert doc["metadata"]["tool"] == "oee-ca"
    assert doc["metadata"]["config"] == {"wo": 3}
    assert len(doc["metadata"]["errata_notes"]) == 2
    rep = doc["report"]
    assert 0 <= rep["oee_percent"] <= 100
    assert rep["n_records"] == len(sample_records)


# --- SVG --------------------------------------------------------------------

def test_svg_outputs_are_well_formed():
    for content in (
        svg_histogram({"0": 3, "1": 5}, "h"),
        svg_histogram({}, "empty"),
        svg_box(aggregate_box(), "b"),
        svg_box(None, "none"),
        svg_scatter([(0.0, 1.0), (1.0, 4.0)], "s", "x", "y"),
        svg_scatter([], "empty"),
    ):
        root = ET.fromstring(content)
        assert root.tag.endswith("svg")


def aggregate_box():
    from oee_ca.ensemble import box_stats
    return box_stats([1.0, 2.0, 3.0, 4.0, 10.0])


# --- PGM --------------------------------------------------------------------

def test_pgm_identity_rule_rows(tmp_path):
    path = str(tmp_path / "out.pgm")
    write_pgm([0b0110] * 3, 4, path)
    data = Path(path).read_bytes()
    header, pixels = data.rsplit(b"\n", 1)[0], data[-12:]
    assert data.startswith(b"P5\n")
    assert b"4 3" in header and b"255" in header
    assert pixels == bytes([0, 255, 255, 0] * 3)


@pytest.mark.parametrize("width", [1, 3, 64, 65, 1000])
def test_pgm_rows_match_per_cell_oracle(width, tmp_path):
    """Each row is one byte per cell, 255 for a 1-cell, read one cell at a
    time from the MSB: all-zero rows and rows that start with 0-cells keep
    their full width."""
    full = (1 << width) - 1
    rng = random.Random(width)
    states = [0, full, 1, full >> 1, *(rng.getrandbits(width) for _ in range(4))]
    path = str(tmp_path / "rows.pgm")
    write_pgm(states, width, path)
    data = Path(path).read_bytes()
    head = f"P5\n# oee-ca {__version__}\n{width} {len(states)}\n255\n".encode()
    assert data[:len(head)] == head
    assert data[len(head):] == b"".join(
        bytes(255 if cell(bits, p, width) else 0 for p in range(width)) for bits in states)


def test_pgm_validation(tmp_path):
    with pytest.raises(ValueError):
        write_pgm([], 3, str(tmp_path / "x.pgm"))


WRITERS = {
    "records_csv": lambda records, out: write_records_csv(records, out),
    "report_json": lambda records, out: write_report_json(aggregate(records), out),
    "svg": lambda records, out: write_svg(svg_histogram({"a": 1}), out),
    "pgm": lambda records, out: write_pgm([0b0110], 4, out),
    "run_csv": lambda records, out: main(["run", "--variant", "eca", "--wo", "4",
                                          "--out", out]),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_writers_leave_no_temporary_file(writer, sample_records, tmp_path):
    """A target that cannot be replaced (an existing directory) fails the
    write, exit 3 through main, and the ``.tmp`` file is removed."""
    target = tmp_path / "taken"
    target.mkdir()
    if writer == "run_csv":
        assert WRITERS[writer](sample_records, str(target)) == EXIT_DATA
    else:
        with pytest.raises(OSError):
            WRITERS[writer](sample_records, str(target))
    assert target.is_dir()
    assert sorted(os.listdir(tmp_path)) == ["taken"]


# --- config files -----------------------------------------------------------

def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("# comment\nwo = 4\nsamples=250\n\nvariant = eca\n")
    assert read_config_file(str(path)) == {"wo": "4", "samples": "250",
                                           "variant": "eca"}


def test_config_file_rejects_bad_line(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("just words\n")
    with pytest.raises(ValueError):
        read_config_file(str(path))


# --- CLI --------------------------------------------------------------------

def test_cli_run_writes_trajectory(tmp_path):
    out = str(tmp_path / "traj.csv")
    pgm = str(tmp_path / "traj.pgm")
    code = main(["run", "--variant", "eca", "--wo", "4", "--rule-o", "204",
                 "--state-o", "0110", "--out", out, "--pgm", pgm])
    assert code == EXIT_OK
    lines = [l for l in Path(out).read_text().splitlines() if not l.startswith("#")]
    assert lines[0].strip() == "t,s_o,r_o,s_e"
    assert lines[1].strip() == "0,0110,204,"
    assert Path(pgm).read_bytes().startswith(b"P5\n")


def test_cli_ensemble_eca_control(tmp_path):
    out = str(tmp_path / "records.csv")
    report = str(tmp_path / "report.json")
    code = main(["ensemble", "--variant", "eca", "--wo", "4",
                 "--samples", "200", "--seed", "1",
                 "--out", out, "--report", report])
    assert code == EXIT_OK
    doc = json.loads(Path(report).read_text())
    assert doc["report"]["oee_percent"] == 0.0


def test_cli_ensemble_case1_ratio(tmp_path):
    out = str(tmp_path / "records.csv")
    report = str(tmp_path / "report.json")
    code = main(["ensemble", "--variant", "case1", "--wo", "4", "--ratio", "1/2",
                 "--samples", "50", "--out", out, "--report", report])
    assert code == EXIT_OK
    recs = read_records_csv(out)
    assert all(r.w_e == 2 for r in recs)


def test_cli_analyze_round_trip(tmp_path):
    out = str(tmp_path / "records.csv")
    rep1 = str(tmp_path / "report1.json")
    rep2 = str(tmp_path / "report2.json")
    svg_dir = str(tmp_path / "plots")
    assert main(["ensemble", "--variant", "case1", "--wo", "3", "--we", "3",
                 "--samples", "100", "--out", out, "--report", rep1]) == EXIT_OK
    assert main(["analyze", "--records", out, "--report", rep2,
                 "--svg-dir", svg_dir]) == EXIT_OK
    a = json.loads(Path(rep1).read_text())["report"]
    b = json.loads(Path(rep2).read_text())["report"]
    for key in ("oee_percent", "inn_percent", "ue_percent", "t_r_ratio_hist"):
        assert a[key] == b[key]
    import os
    assert os.path.exists(os.path.join(svg_dir, "inn_vs_t_r.svg"))


@pytest.mark.parametrize("row, fields", [("case1,3,3", 3), (",".join(["1"] * 25), 25)],
                         ids=["short", "long"])
def test_cli_analyze_row_of_wrong_length_exits_3(row, fields, sample_records, tmp_path,
                                                 capsys):
    """A short row, or one with a field too many, is refused with its place
    instead of a traceback or a silently dropped field."""
    records = str(tmp_path / "records.csv")
    write_records_csv(sample_records[:2], records)
    with open(records, "a") as fh:
        fh.write(row + "\n")
    report = tmp_path / "report.json"
    assert main(["analyze", "--records", records, "--report", str(report)]) == EXIT_DATA
    assert f"{records}: record 3 has {fields} fields, expected 24" in capsys.readouterr().err
    assert not report.exists()


def test_cli_analyze_unparsable_field_exits_3(sample_records, tmp_path, capsys):
    """A field its column cannot read is refused with the file, the record
    and the column named."""
    records = str(tmp_path / "records.csv")
    write_records_csv(sample_records[:2], records)
    lines = Path(records).read_text().splitlines(keepends=True)
    variant, _, rest = lines[-1].split(",", 2)
    lines[-1] = f"{variant},abc,{rest}"
    Path(records).write_text("".join(lines))
    report = tmp_path / "report.json"
    assert main(["analyze", "--records", records, "--report", str(report)]) == EXIT_DATA
    assert f"{records}: record 2: w_o = 'abc' does not parse" in capsys.readouterr().err
    assert not report.exists()


def test_readme_command_lines_parse():
    """Every ``oee-ca`` example in README's "Command line" block, its
    ``\\``-continued lines joined, parses with the CLI's parser."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("oee-ca ")]
    assert len(commands) == 6
    for line in commands:
        argv = shlex.split(line)[1:]
        assert build_parser().parse_args(argv).command == argv[0]


def test_cli_subcommand_option_strings():
    """Each subcommand takes exactly its own flags: the flags run and
    ensemble share are declared once, and no other subcommand gains them."""
    common = {"-h", "--help"}
    one_run = {"--variant", "--wo", "--we", "--mu", "--seed", "--cap"}
    want = {
        "run": common | one_run | {"--rule-o", "--rule-e", "--state-o", "--state-e",
                                   "--out", "--pgm"},
        "ensemble": common | one_run | {"--ratio", "--samples", "--workers",
                                        "--norm-samples", "--norm-steps", "--norm-seed",
                                        "--norm-cache", "--out", "--report"},
        "norm": common | {"--width", "--samples", "--steps", "--seed", "--cache"},
        "analyze": common | {"--records", "--report", "--svg-dir"},
        "render": common | {"--variant", "--wo", "--we", "--steps", "--seed", "--out"},
    }
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert {name: {option for action in sub._actions for option in action.option_strings}
            for name, sub in subparsers.choices.items()} == want


@pytest.mark.parametrize("seed, w_o, w_e",
                         [(1, 5, 5), (2, 62, 63), (7, 63, 64), (3, 101, 101), (9, 200, 8)])
def test_render_start_is_the_scalar_draw_sequence(seed, w_o, w_e):
    """render_start draws r_o, r_e, s_o and s_e, one ``rng.integers`` each
    (a ring wider than 62 cells from 2^63), then widens the organism's and
    the environment's state, in that order, with 48-bit draws."""
    rng = execution_rng(seed)
    r_o, r_e = (canonical_rules()[int(rng.integers(0, 88))] for _ in range(2))
    states = [int(rng.integers(0, 2**63 if w > 62 else 1 << w)) for w in (w_o, w_e)]
    for i, w in enumerate((w_o, w_e)):
        if w > 62:
            for _ in range(w // 48):
                states[i] = (states[i] << 48) | int(rng.integers(0, 1 << 48))
            states[i] %= 1 << w
    assert render_start(seed, w_o, w_e) == (r_o, r_e, *states)


def test_cli_norm(tmp_path):
    cache = str(tmp_path / "norm.txt")
    assert main(["norm", "--width", "4", "--samples", "5", "--steps", "16",
                 "--cache", cache]) == EXIT_OK
    assert Path(cache).read_text().startswith("4 5 16 0 ")


def test_cli_norm_defaults_are_the_ensemble_defaults(tmp_path):
    """A default `norm --cache` line is the one a default `ensemble
    --norm-cache` reads: the file is left as it was."""
    cache = str(tmp_path / "norm.txt")
    cx._NORM_MEMO.clear()   # each command computes or reads the file afresh
    assert main(["norm", "--width", "8", "--cache", cache]) == EXIT_OK
    written = Path(cache).read_text()
    assert written.count("\n") == 1
    cx._NORM_MEMO.clear()
    assert main(["ensemble", "--variant", "case1", "--wo", "4", "--we", "4",
                 "--samples", "20", "--norm-cache", cache,
                 "--out", str(tmp_path / "r.csv"),
                 "--report", str(tmp_path / "rep.json")]) == EXIT_OK
    assert Path(cache).read_text() == written


def test_cli_render_dimensions(tmp_path):
    out = str(tmp_path / "render.pgm")
    assert main(["render", "--variant", "case1", "--wo", "101", "--we", "101",
                 "--steps", "40", "--seed", "7", "--out", out]) == EXIT_OK
    head = Path(out).read_bytes()[:64].split(b"\n")
    assert head[0] == b"P5" and head[2] == b"101 41"


def read_pgm_rows(path: str) -> list[int]:
    data = Path(path).read_bytes()
    _, _, dims, _, pixels = data.split(b"\n", 4)
    width, height = map(int, dims.split())
    return [int("".join("1" if b else "0" for b in pixels[i * width:(i + 1) * width]), 2)
            for i in range(height)]


def test_cli_render_case2_uses_an_8_cell_environment(tmp_path):
    """The environment state is the next rule, so Case II fixes w_e = 8 at
    any organism width; rows equal system_step's."""
    out = str(tmp_path / "render.pgm")
    assert main(["render", "--variant", "case2", "--wo", "20", "--steps", "30",
                 "--seed", "4", "--out", out]) == EXIT_OK
    r_o, r_e, s_o, s_e = render_start(4, 20, 8)
    config = VariantConfig(Variant.CASE_II, 20, s_o, r_o, w_e=8, s_e=s_e, r_e=r_e)
    snap = SystemSnapshot(0, config.s_o, r_o, config.s_e)
    want = [s_o]
    for _ in range(30):
        snap = system_step(config, snap)
        want.append(snap.s_o)
    assert read_pgm_rows(out) == want


# (variant, w_o, --we, --steps, seed, whether the run repeats before --steps;
# None where that is not the point of the case)
RENDER_ORACLE = {
    "case1_repeats": (Variant.CASE_I, 4, 4, 200, 1, True),
    "case1_reaches_steps": (Variant.CASE_I, 30, 40, 60, 2, False),
    "case2_repeats": (Variant.CASE_II, 4, None, 300, 3, True),
    "case2_reaches_steps": (Variant.CASE_II, 40, None, 60, 4, False),
    "eca_repeats": (Variant.ISOLATED, 5, None, 100, 5, True),
    "eca_reaches_steps": (Variant.ISOLATED, 90, None, 50, 6, False),
    "wo_1": (Variant.CASE_I, 1, 1, 20, 7, None),
    "wo_2": (Variant.ISOLATED, 2, None, 20, 8, None),
    "steps_0": (Variant.CASE_II, 12, None, 0, 9, None),
}


@pytest.mark.parametrize("name", sorted(RENDER_ORACLE))
def test_cli_render_rows_equal_the_stepping_oracle(name, tmp_path):
    """Rows of a run that repeats are its cycle replayed out to --steps: they
    equal plain stepping with no cycle stop."""
    variant, w_o, we, steps, seed, repeats = RENDER_ORACLE[name]
    out = str(tmp_path / "render.pgm")
    flags = ["--we", str(we)] if we else []
    assert main(["render", "--variant", variant.value, "--wo", str(w_o), *flags,
                 "--steps", str(steps), "--seed", str(seed), "--out", out]) == EXIT_OK
    w_e = 8 if variant is Variant.CASE_II else we or w_o
    r_o, r_e, s_o, s_e = start = render_start(seed, w_o, w_e)
    assert read_pgm_rows(out) == render_rows(variant, w_o, w_e, steps, start)
    if repeats is not None:
        env = dict(w_e=w_e, s_e=s_e, r_e=r_e) if variant.has_environment else {}
        traj = run_trajectory(VariantConfig(variant, w_o, s_o, r_o, **env), steps)
        assert (not traj.cap_hit and len(traj.states) - 1 < steps) == repeats


def test_render_start_widens_wide_environments():
    """A ring wider than 62 cells has draws in its leading cells too, and
    the environment's widening comes after the organism's."""
    assert all(render_start(seed, 8, 100)[3] >> 63 for seed in range(5))
    assert all(render_start(seed, 101, 8)[3] < 1 << 8 for seed in range(5))
    for seed in range(5):
        assert render_start(seed, 101, 100)[:3] == render_start(seed, 101, 8)[:3]
        assert render_start(seed, 8, 100)[:3] == render_start(seed, 8, 8)[:3]


# Digests of the trajectory CSV (lines not starting with "#") and of the PGM
# written by `run`, recorded with the snapshot-per-step loop.
RUN_GOLDEN = {
    "case1": (["--variant", "case1", "--wo", "6", "--we", "13", "--seed", "5"], 125,
              "65a315731ca0d4cbfbb78cb1793701489502c6642d4932f4d45da8d21e6bc30d",
              "8f8a836f49a4ca6d97ae189e45b46f9b72a815940292fbe6d269a29cfb617526"),
    "case2": (["--variant", "case2", "--wo", "7", "--seed", "5"], 32,
              "07be45b1806441cd86794a056bc3c557ad1fc5688de98f1ee74cb6286d77261e",
              "ff3ceab90aaa18fa67e9b04c9600e66d13255a354d783a7b012392893b31361c"),
    "case3": (["--variant", "case3", "--wo", "9", "--mu", "0.1", "--seed", "1"], 176,
              "bcb785f884dbd6152355952c645ba184010521ccd0e0b21bc6777a1606160c43",
              "6e720ff3d5849c77907e5f39a3e4188dc3cf84b43f563566464e5e329120867c"),
    "eca": (["--variant", "eca", "--wo", "10", "--seed", "3"], 26,
            "55aac1191cd61216f9070554812a1a6b9d98cc27590f0df0da0d02943f872507",
            "45748b399842f80ffbdb941209b37eff99c1ae356951cc2460ced14267d9d7ae"),
}


@pytest.mark.parametrize("name", sorted(RUN_GOLDEN))
def test_cli_run_output_is_byte_identical(name, tmp_path):
    argv, n_lines, csv_digest, pgm_digest = RUN_GOLDEN[name]
    out, pgm = str(tmp_path / "traj.csv"), str(tmp_path / "traj.pgm")
    assert main(["run", *argv, "--out", out, "--pgm", pgm]) == EXIT_OK
    lines = Path(out).read_bytes().splitlines(keepends=True)
    assert len(lines) == n_lines
    body = b"".join(line for line in lines if not line.startswith(b"#"))
    assert hashlib.sha256(body).hexdigest() == csv_digest
    assert hashlib.sha256(Path(pgm).read_bytes()).hexdigest() == pgm_digest


# Digests of the PGM written by `render`, recorded with the 8-term
# `step_bits` loop that `tests/helpers.naive_step_bits` keeps: the README
# example (101-cell rings), Case II's 8-cell environment, an 80-cell
# environment and a 150-cell fixed-rule organism.
RENDER_GOLDEN = {
    "readme": (["--variant", "case1", "--wo", "101", "--we", "101", "--steps", "400",
                "--seed", "3"],
               "fca2cf89a4785e43554c611fda3e6e0fadd494b28cb406477d26006eca56a822"),
    "case2": (["--variant", "case2", "--wo", "20", "--steps", "30", "--seed", "4"],
              "62d1404b67ac658c525f1567c7021324f10d1c497de6607a85d540219095abeb"),
    "wide_environment": (["--variant", "case1", "--wo", "12", "--we", "80", "--steps", "120",
                          "--seed", "6"],
                         "051964906ab68a01e9702397e536d377f84acdae8c7969d25f07e5752b8bc69e"),
    "eca": (["--variant", "eca", "--wo", "150", "--steps", "60", "--seed", "2"],
            "87439036d78c6c2514a7c01ae4b7fa674a3464ee5bff7767807c1611df11b9d7"),
}


@pytest.mark.parametrize("name", sorted(RENDER_GOLDEN))
def test_cli_render_output_is_byte_identical(name, tmp_path):
    argv, digest = RENDER_GOLDEN[name]
    out = str(tmp_path / "render.pgm")
    assert main(["render", *argv, "--out", out]) == EXIT_OK
    assert hashlib.sha256(Path(out).read_bytes()).hexdigest() == digest


def test_cli_render_case3_is_usage_error(tmp_path, capsys):
    out = tmp_path / "render.pgm"
    with pytest.raises(SystemExit) as exc:
        main(["render", "--variant", "case3", "--wo", "8", "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert "case3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("widths", [["--wo", "64", "--we", "4"], ["--wo", "4", "--we", "64"]])
def test_cli_run_draws_64_cell_states(widths, tmp_path):
    """A 64-cell state is drawn over its whole range: the leftmost cell is
    set for some seeds."""
    top = set()
    for seed in range(4):
        out = str(tmp_path / f"traj{seed}.csv")
        assert main(["run", "--variant", "case1", *widths, "--cap", "5",
                     "--seed", str(seed), "--out", out]) == EXIT_OK
        lines = [l for l in Path(out).read_text().splitlines() if not l.startswith("#")]
        row = lines[1].split(",")
        wide = row[1] if widths[1] == "64" else row[3]
        assert len(wide) == 64
        top.add(wide[0])
    assert top == {"0", "1"}


@pytest.mark.parametrize("widths, message", [
    (["--wo", "70", "--we", "4"], "organism width must be in [3, 64]"),
    (["--wo", "4", "--we", "70"], "environment width must be in [1, 64]"),
])
def test_cli_run_width_above_64_reports_range(widths, message, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["run", "--variant", "case1", *widths, "--out", str(out)]) == EXIT_DATA
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--variant", "eca", "--wo", "4", "--state-o", "0110110", "--rule-o", "30"],
     "--state-o has 7 cells, expected 4"),
    (["--variant", "case1", "--wo", "4", "--we", "6", "--state-e", "0110"],
     "--state-e has 4 cells, expected 6"),
    (["--variant", "case2", "--wo", "4", "--state-e", "0110"],
     "--state-e has 4 cells, expected 8"),
    (["--variant", "case1", "--wo", "4", "--we", "4", "--state-o", "+101"],
     "--state-o must be a string of 0s and 1s, got '+101'"),
    (["--variant", "case1", "--wo", "4", "--we", "4", "--state-o", "0_11"],
     "--state-o must be a string of 0s and 1s, got '0_11'"),
    (["--variant", "case1", "--wo", "4", "--we", "4", "--state-e", "01 1"],
     "--state-e must be a string of 0s and 1s, got '01 1'"),
])
def test_cli_run_state_width_mismatch_exits_3(argv, message, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["run", *argv, "--cap", "3", "--out", str(out)]) == EXIT_DATA
    assert message in capsys.readouterr().err
    assert not out.exists()


ENVIRONMENT_FLAGS = [("run", "--we", "9"), ("run", "--rule-e", "30"), ("run", "--state-e", "1"),
                     ("ensemble", "--we", "4"), ("ensemble", "--ratio", "1"),
                     ("render", "--we", "5")]


def environment_argv(command, variant, flags, tmp_path):
    extra = {"run": ["--cap", "3"],
             "ensemble": ["--samples", "3", "--report", str(tmp_path / "report.json")],
             "render": ["--steps", "3"]}[command]
    return [command, "--variant", variant, "--wo", "4", *flags, *extra,
            "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("variant, command, flag, value", [
    (variant, *case) for variant in ("eca", "case3") for case in ENVIRONMENT_FLAGS
    if (variant, case[0]) != ("case3", "render")] + [   # render has no case3
    ("case2", "run", "--we", "9"), ("case2", "ensemble", "--we", "9"),
    ("case2", "ensemble", "--ratio", "5/2"), ("case2", "render", "--we", "5")])
def test_cli_environment_flag_without_environment_exits_3(variant, command, flag, value,
                                                          tmp_path, capsys):
    """A variant without an environment refuses an environment flag, and
    case2, whose environment has 8 cells, a --we other than 8 or a --ratio,
    instead of running without it and echoing it."""
    assert main(environment_argv(command, variant, [flag, value], tmp_path)) == EXIT_DATA
    assert f"{flag} does not apply to {variant}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("from_config", [False, True])
@pytest.mark.parametrize("variant", ["case1", "case2", "eca"])
@pytest.mark.parametrize("command", ["run", "ensemble"])
def test_cli_mu_without_noise_exits_3(command, variant, from_config, tmp_path, capsys):
    """Only case3 has a mutation rate: the other variants refuse --mu, also
    from the --config file, instead of running without it and echoing it."""
    flags = ["--we", "4"] if variant == "case1" else []
    prefix = []
    if from_config:
        config = tmp_path / "run.cfg"
        config.write_text("mu = 0.3\n")
        prefix = ["--config", str(config)]
    else:
        flags += ["--mu", "0.3"]
    assert main(prefix + environment_argv(command, variant, flags, tmp_path)) == EXIT_DATA
    assert (f"--mu does not apply to {variant}, which has no noise"
            in capsys.readouterr().err)
    assert [p.name for p in tmp_path.iterdir()] == (["run.cfg"] if from_config else [])


@pytest.mark.parametrize("command", ["run", "ensemble"])
def test_cli_case3_without_mu_runs_and_echoes_the_default(command, tmp_path):
    """A case3 run or plan given no --mu takes mu = 0.5 and echoes it."""
    assert main(environment_argv(command, "case3", [], tmp_path)) == EXIT_OK
    assert "# mu = 0.5\n" in (tmp_path / "out").read_text()


@pytest.mark.parametrize("command", ["run", "render"])
def test_cli_case2_accepts_its_own_environment_width(command, tmp_path):
    """--we 8 is the width case2 runs, so it is not refused."""
    assert main(environment_argv(command, "case2", ["--we", "8"], tmp_path)) == EXIT_OK


@pytest.mark.parametrize("from_config", [False, True])
def test_cli_ensemble_we_beside_ratio_exits_3(from_config, tmp_path, capsys):
    """--we and --ratio both set case1's environment width, so giving both
    is refused, also when --ratio comes from the --config file."""
    if from_config:
        config = tmp_path / "ensemble.cfg"
        config.write_text("ratio = 2\n")
        flags, prefix = ["--we", "4"], ["--config", str(config)]
    else:
        flags, prefix = ["--we", "4", "--ratio", "2"], []
    argv = prefix + environment_argv("ensemble", "case1", flags, tmp_path)
    assert main(argv) == EXIT_DATA
    assert "--we and --ratio both set the environment width" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("we", ["4", "30"])
@pytest.mark.parametrize("rule_e", ["300", "-1"])
def test_cli_run_rule_e_out_of_range_exits_3(we, rule_e, tmp_path, capsys):
    """An environment rule outside 0..255 is refused, at table widths and
    at widths stepped by the window kernel alike."""
    out = tmp_path / "traj.csv"
    assert main(["run", "--variant", "case1", "--wo", "4", "--we", we,
                 "--rule-e", rule_e, "--cap", "5", "--out", str(out)]) == EXIT_DATA
    assert f"r_e must be in [0, 255], got {rule_e}" in capsys.readouterr().err
    assert not out.exists()


def run_rows(tmp_path, argv) -> list[list[str]]:
    """The data rows of the CSV written by ``run``."""
    out = tmp_path / "traj.csv"
    assert main(["run", *argv, "--out", str(out)]) == EXIT_OK
    return [line.strip().split(",") for line in Path(out).read_text().splitlines()
            if not line.startswith("#")][1:]


def test_cli_run_parses_given_states(tmp_path):
    """Given states start the run as written, up to 64 cells with the
    leftmost one set and down to a 1-cell environment."""
    wide = "1" + "01" * 31 + "1"
    rows = run_rows(tmp_path, ["--variant", "case1", "--wo", "64", "--we", "1",
                               "--state-o", wide, "--state-e", "1",
                               "--rule-o", "204", "--rule-e", "204", "--cap", "1"])
    assert rows[0] == ["0", wide, "204", "1"]


def test_cli_run_state_leftmost_cell_is_msb(tmp_path):
    """Rule 240 copies each cell's left neighbor: the cell written first
    moves right, then wraps around the ring."""
    rows = run_rows(tmp_path, ["--variant", "eca", "--wo", "3", "--state-o", "100",
                               "--rule-o", "240", "--cap", "5"])
    assert [row[1] for row in rows] == ["100", "010", "001", "100"]


def test_cli_run_with_given_states_is_byte_identical(tmp_path):
    """States of the declared widths step as before (digest recorded before
    the width check was added)."""
    out = str(tmp_path / "traj.csv")
    assert main(["run", "--variant", "case1", "--wo", "4", "--we", "6",
                 "--state-o", "0110", "--state-e", "101100", "--rule-o", "30",
                 "--rule-e", "110", "--cap", "40", "--out", out]) == EXIT_OK
    body = b"".join(line for line in Path(out).read_bytes().splitlines(keepends=True)
                    if not line.startswith(b"#"))
    assert body.startswith(b"t,s_o,r_o,s_e\n0,0110,30,101100\n")
    assert (hashlib.sha256(body).hexdigest()
            == "b8a293828c40925a82bf2810b240ca00833d46cd9150110c980da5c8c7ef1788")


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    """Only the subcommands that aggregate load scipy; a run does not."""
    code = ("import sys; from oee_ca.cli import main; "
            "assert 'scipy' not in sys.modules; "
            "assert main(['run', '--variant', 'eca', '--wo', '4', '--cap', '2', "
            "'--out', sys.argv[1]]) == 0; "
            "assert 'scipy' not in sys.modules")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = tmp_path / "traj.csv"
    result = subprocess.run([sys.executable, "-c", code, str(out)], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert out.exists()


def test_ensemble_leaves_scipy_stats_unloaded(tmp_path):
    """A p-value that can be nonzero takes only ``scipy.special``: importing
    ``ensemble`` and an ``ensemble`` and ``analyze`` run of a small plan leave
    ``scipy.stats`` unloaded."""
    code = ("import sys; import oee_ca.ensemble; from oee_ca.cli import main; "
            "assert 'scipy.stats' not in sys.modules; "
            "out, report = sys.argv[1:]; "
            "assert main(['ensemble', '--variant', 'case1', '--wo', '3', '--we', '3', "
            "'--samples', '20', '--out', out, '--report', report]) == 0; "
            "assert main(['analyze', '--records', out, '--report', report]) == 0; "
            "assert 'scipy.stats' not in sys.modules")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out, report = tmp_path / "records.csv", tmp_path / "report.json"
    result = subprocess.run([sys.executable, "-c", code, str(out), str(report)], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(report.read_text())["report"]["n_records"] == 20


_PIPELINE = """\
import json, sys
from oee_ca import complexity as cx
from oee_ca.ensemble import SamplePlan, aggregate, draw_plan, run_ensemble
from oee_ca.io_formats import write_records_csv, write_report_json
from oee_ca.variants import Variant
w, samples, out, report_path = int(sys.argv[1]), int(sys.argv[2]), *sys.argv[3:]
plan = SamplePlan(Variant.CASE_I, w, w, sample_count=samples)
tuples = draw_plan(plan)
cx.normalization_constant(plan.full_width, plan.norm_samples, plan.norm_steps, plan.norm_seed)
records = run_ensemble(plan, workers=1, tuples=tuples)
write_records_csv(records, out)
write_report_json(aggregate(records), report_path)
print(json.dumps("scipy" in sys.modules))
"""


@pytest.mark.parametrize("w, samples, loads_scipy", [(4, 10_000, False), (3, 20, True)])
def test_pipeline_loads_scipy_only_for_a_nonzero_p(w, samples, loads_scipy, tmp_path):
    """The benchmark's pipeline calls, plan to report, on Case I (w, w).  At
    the case1-w4x4 workload's 10,000 samples p underflows to 0.0 and scipy
    stays unloaded; a 20-sample plan's p is nonzero, loads scipy and equals
    ``scipy.stats.spearmanr``'s."""
    from scipy import stats

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out, report = tmp_path / "records.csv", tmp_path / "report.json"
    result = subprocess.run([sys.executable, "-c", _PIPELINE, str(w), str(samples),
                             str(out), str(report)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) is loads_scipy
    doc = json.loads(report.read_text())["report"]
    assert doc["n_records"] == samples
    live = [r for r in read_records_csv(str(out)) if not r.censored]
    res = stats.spearmanr([r.innovation_I for r in live], [r.t_r for r in live])
    assert doc["spearman_p"] == float(res.pvalue)
    assert (doc["spearman_p"] > 0) is loads_scipy


# the import of ``ensemble`` followed by an ensemble on two forked workers
_POOLED = ("oee_ca.ensemble as ens, os; from oee_ca.variants import Variant; "
           "os.cpu_count = lambda: 2; "
           "ens.run_ensemble(ens.SamplePlan(Variant.CASE_I, 3, 3, sample_count=40, "
           "norm_samples=20, norm_steps=64), workers=2)")


@pytest.mark.parametrize("module, absent", [
    ("oee_ca.cli", "scipy"),
    ("oee_ca.ensemble", "scipy"),
    ("oee_ca.ensemble", "multiprocessing"),
    ("oee_ca.ensemble", "concurrent"),
    ("oee_ca.ensemble", "selectors"),
    ("oee_ca.ensemble", "signal"),
    pytest.param(_POOLED, "multiprocessing", id="pooled-multiprocessing"),
    pytest.param(_POOLED, "concurrent", id="pooled-concurrent")])
def test_import_footprint(module, absent):
    """In an isolated interpreter (``-I``: no PYTHONPATH, no user site),
    importing ``cli`` or ``ensemble`` loads no scipy module, and importing
    ``ensemble`` no process-pool stack, nor does an ensemble on two workers,
    and not the modules only a pooled ensemble uses: the CLI's start-up and
    every ensemble's peak memory rest on these."""
    src = str(Path(oee_ca.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import {module}; "
            f"print(sorted(m for m in sys.modules "
            f"if m == {absent!r} or m.startswith({absent + '.'!r})))")
    result = subprocess.run([sys.executable, "-I", "-c", code],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("flags", [["--wo", "0"], ["--wo", "5", "--we", "0"],
                                   ["--wo", "5", "--steps", "-1"]])
def test_cli_render_empty_sizes_are_usage_errors(flags, tmp_path, capsys):
    out = tmp_path / "render.pgm"
    with pytest.raises(SystemExit) as exc:
        main(["render", *flags, "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert "must be >=" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_cli_ensemble_without_samples_is_usage_error(samples, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ensemble", "--variant", "eca", "--wo", "4", "--samples", samples,
              "--out", str(tmp_path / "r.csv"), "--report", str(tmp_path / "rep.json")])
    assert exc.value.code == EXIT_USAGE
    assert "--samples: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value, least", [
    ("ensemble", "--norm-samples", "0", 1),
    ("ensemble", "--norm-steps", "-1", 0),
    ("norm", "--samples", "0", 1),
    ("norm", "--steps", "-1", 0),
])
def test_cli_norm_settings_out_of_range_are_usage_errors(command, flag, value, least,
                                                          tmp_path, capsys):
    """argparse rejects the value, so no constant is computed or cached."""
    cache = tmp_path / "norm.txt"
    argv = (["ensemble", "--variant", "eca", "--wo", "4", "--samples", "5",
             "--norm-cache", str(cache), "--out", str(tmp_path / "r.csv"),
             "--report", str(tmp_path / "rep.json")] if command == "ensemble"
            else ["norm", "--width", "4", "--cache", str(cache)])
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == EXIT_USAGE
    assert f"{flag}: must be >= {least}" in capsys.readouterr().err
    assert not cache.exists()


@pytest.mark.parametrize("argv, message", [
    (["--variant", "case3", "--mu", "1.0"], "mu in [0, 1)"),
    (["--variant", "case3", "--mu", "nan"], "mu in [0, 1)"),
    (["--variant", "case3", "--cap", "0"], "step_cap must be >= 1"),
    (["--variant", "eca", "--cap", "0"], "step_cap must be >= 1"),
])
def test_cli_ensemble_bad_mu_or_cap_exits_3_before_any_work(argv, message, tmp_path,
                                                             capsys, monkeypatch):
    from oee_ca import ensemble as ens

    def no_work(*args, **kwargs):
        raise AssertionError("the plan was not validated before the work")
    monkeypatch.setattr(cx, "normalization_constant", no_work)
    monkeypatch.setattr(ens, "draw_plan", no_work)
    out = tmp_path / "r.csv"
    assert main(["ensemble", *argv, "--wo", "4", "--samples", "5", "--workers", "2",
                 "--out", str(out), "--report", str(tmp_path / "rep.json")]) == EXIT_DATA
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_ensemble_bad_oee_threads_exits_3_before_any_work(tmp_path, capsys, monkeypatch):
    from oee_ca import ensemble as ens

    def no_work(*args, **kwargs):
        raise AssertionError("OEE_THREADS was not read before the work")
    monkeypatch.setattr(cx, "normalization_constant", no_work)
    monkeypatch.setattr(ens, "draw_plan", no_work)
    monkeypatch.setenv("OEE_THREADS", "two")
    out = tmp_path / "r.csv"
    assert main(["ensemble", "--variant", "eca", "--wo", "4", "--samples", "5",
                 "--out", str(out), "--report", str(tmp_path / "rep.json")]) == EXIT_DATA
    assert "OEE_THREADS must be an integer, got 'two'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_ensemble_oee_threads_below_one_exits_3(tmp_path, capsys, monkeypatch):
    """``OEE_THREADS=0`` is an error, as ``--workers 0`` is, not one worker."""
    monkeypatch.setenv("OEE_THREADS", "0")
    out = tmp_path / "r.csv"
    assert main(["ensemble", "--variant", "eca", "--wo", "4", "--samples", "5",
                 "--out", str(out), "--report", str(tmp_path / "rep.json")]) == EXIT_DATA
    assert "OEE_THREADS must be >= 1, got '0'" in capsys.readouterr().err
    assert not out.exists()
    assert main(["ensemble", "--variant", "eca", "--wo", "4", "--samples", "5",
                 "--workers", "1", "--out", str(out),
                 "--report", str(tmp_path / "rep.json")]) == 0


MISSING_DIRECTORY_ARGV = {
    "ensemble --out": ["ensemble", "--variant", "eca", "--wo", "4", "--samples", "5",
                       "--out", "missing/records.csv", "--report", "report.json"],
    "ensemble --report": ["ensemble", "--variant", "eca", "--wo", "4", "--samples", "5",
                          "--out", "records.csv", "--report", "missing/report.json"],
    "ensemble --norm-cache": ["ensemble", "--variant", "eca", "--wo", "4", "--samples", "5",
                              "--norm-cache", "missing/norm.txt"],
    "analyze --report": ["analyze", "--records", "records.csv",
                         "--report", "missing/report.json"],
    "run --out": ["run", "--variant", "eca", "--wo", "4", "--out", "missing/t.csv"],
    "run --pgm": ["run", "--variant", "eca", "--wo", "4", "--out", "t.csv",
                  "--pgm", "missing/t.pgm"],
    "render --out": ["render", "--wo", "8", "--out", "missing/r.pgm"],
    "norm --cache": ["norm", "--width", "6", "--cache", "missing/norm.txt"],
}


@pytest.mark.parametrize("case", MISSING_DIRECTORY_ARGV)
def test_cli_output_in_a_missing_directory_exits_3_before_any_work(
        case, sample_records, tmp_path, capsys, monkeypatch):
    """An output path whose directory does not exist fails before the run,
    and the message names the path as given, not its temporary file."""
    from oee_ca import cli
    from oee_ca import ensemble as ens

    def no_work(*args, **kwargs):
        raise AssertionError("the output path was not checked before the work")
    monkeypatch.chdir(tmp_path)
    write_records_csv(sample_records, "records.csv")
    for module, name in [(ens, "execute_tuple"), (iof, "read_records_csv"),
                         (cli, "run_trajectory"), (cx, "normalization_constant")]:
        monkeypatch.setattr(module, name, no_work)
    argv = MISSING_DIRECTORY_ARGV[case]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert argv[argv.index(case.split()[1]) + 1] in err and ".tmp" not in err
    assert sorted(os.listdir(tmp_path)) == ["records.csv"]


@pytest.mark.parametrize("report, message", [
    ("taken", "cannot write taken: it is a directory"),
    ("taken/report.json", "cannot write taken/report.json: directory taken is not writable"),
])
def test_cli_output_that_cannot_be_published_exits_3(report, message, tmp_path, capsys,
                                                     monkeypatch):
    """An output path that is a directory, or whose directory refuses writes,
    fails before the run.  ``os.access`` refuses ``taken``, since a root
    process may write to any directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").mkdir()
    monkeypatch.setattr(os, "access", lambda path, mode: path != "taken")
    assert main(["ensemble", "--variant", "eca", "--wo", "4", "--samples", "5",
                 "--out", "r.csv", "--report", report]) == EXIT_DATA
    assert message in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["taken"]
    assert not os.listdir(tmp_path / "taken")


CORRUPT_NORM_LINES = [
    ("abc", "line 2: expected 5 integers, got '{key} abc'"),
    ("0", "line 2: the constant must be >= 1, got 0"),
    ("-4", "line 2: the constant must be >= 1, got -4"),
]


@pytest.mark.parametrize("constant, message", CORRUPT_NORM_LINES)
def test_cli_norm_corrupt_cache_line_exits_3(constant, message, tmp_path, capsys):
    cache = tmp_path / "norm.txt"
    cache.write_text(f"4 5 16 0 100\n5 10 32 9 {constant}\n")
    assert main(["norm", "--width", "5", "--samples", "10", "--steps", "32",
                 "--seed", "9", "--cache", str(cache)]) == EXIT_DATA
    assert f"{cache}: {message.format(key='5 10 32 9')}" in capsys.readouterr().err


@pytest.mark.parametrize("constant, message", CORRUPT_NORM_LINES)
def test_cli_ensemble_corrupt_norm_cache_exits_3_before_the_plan(constant, message, tmp_path,
                                                                capsys, monkeypatch):
    from oee_ca import ensemble as ens

    def no_work(*args, **kwargs):
        raise AssertionError("the norm cache was not read before the plan was drawn")
    monkeypatch.setattr(ens, "draw_plan", no_work)
    cache = tmp_path / "norm.txt"
    cache.write_text(f"4 5 16 0 100\n8 1000 1024 0 {constant}\n")
    out = tmp_path / "r.csv"
    assert main(["ensemble", "--variant", "case1", "--wo", "4", "--we", "4",
                 "--samples", "5", "--norm-cache", str(cache), "--out", str(out),
                 "--report", str(tmp_path / "rep.json")]) == EXIT_DATA
    assert f"{cache}: {message.format(key='8 1000 1024 0')}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_norm_width_out_of_range_exits_3(tmp_path, capsys):
    code = main(["ensemble", "--variant", "case1", "--wo", "40", "--we", "30",
                 "--samples", "2", "--out", str(tmp_path / "r.csv"),
                 "--report", str(tmp_path / "rep.json")])
    assert code == EXIT_DATA
    assert "normalization width" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--variant", "eca", "--wo", "64"], "normalization width"),
    (["--variant", "eca", "--wo", "70"], "normalization width"),
    (["--variant", "case3", "--wo", "64"], "normalization width"),
    (["--variant", "eca", "--wo", "2"], "organism width must be >= 3"),
])
def test_cli_ensemble_width_out_of_range_exits_3(argv, message, tmp_path, capsys):
    """A plan rejects its widths before it draws a tuple."""
    out = tmp_path / "r.csv"
    assert main(["ensemble", *argv, "--samples", "2", "--out", str(out),
                 "--report", str(tmp_path / "rep.json")]) == EXIT_DATA
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["ensemble", "--variant", "bogus", "--wo", "3", "--samples", "1"])
    assert exc.value.code == EXIT_USAGE


def test_cli_data_error_exits_3(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n")
    assert main(["analyze", "--records", str(bad)]) == EXIT_DATA


def test_cli_missing_we_exits_3(tmp_path):
    assert main(["ensemble", "--variant", "case1", "--wo", "3",
                 "--samples", "10", "--out", str(tmp_path / "r.csv"),
                 "--report", str(tmp_path / "rep.json")]) == EXIT_DATA


def test_cli_config_file_with_precedence(tmp_path):
    conf = tmp_path / "plan.conf"
    out = str(tmp_path / "records.csv")
    report = str(tmp_path / "report.json")
    conf.write_text("variant = eca\nwo = 3\nsamples = 400\nseed = 9\n")
    # --samples on the command line overrides the file's 400
    code = main(["--config", str(conf), "ensemble", "--variant", "eca",
                 "--wo", "3", "--samples", "50",
                 "--out", out, "--report", report])
    assert code == EXIT_OK
    assert len(read_records_csv(out)) == 50


def test_cli_config_file_values_are_converted(tmp_path):
    """Config values go through argparse: an int flag with no default
    becomes an int, a bad value is a usage error."""
    conf = tmp_path / "plan.conf"
    out = str(tmp_path / "records.csv")
    report = str(tmp_path / "report.json")
    conf.write_text("we = 3\nworkers = 1\ncap = 500\n")
    code = main(["--config", str(conf), "ensemble", "--variant", "case1",
                 "--wo", "3", "--samples", "20", "--out", out, "--report", report])
    assert code == EXIT_OK
    assert all(r.w_e == 3 for r in read_records_csv(out))
    assert json.loads(Path(report).read_text())["metadata"]["config"]["workers"] == 1
    conf.write_text("we = three\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(conf), "ensemble", "--variant", "case1",
              "--wo", "3", "--samples", "20", "--out", out, "--report", report])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("command, key", [("ensemble", "sampels = 10"),
                                          ("run", "ratio = 1")])
def test_cli_config_key_without_a_flag_is_usage_error(command, key, tmp_path, capsys):
    """A misspelled key, or one that is a flag of another subcommand only,
    is refused like the flag it would be."""
    conf = tmp_path / "plan.conf"
    conf.write_text(key + "\n")
    argv = {"ensemble": ["--samples", "5", "--report", str(tmp_path / "rep.json")],
            "run": []}[command]
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(conf), command, "--variant", "eca", "--wo", "3",
              "--out", str(tmp_path / "out.csv"), *argv])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --" + key.split()[0] in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["plan.conf"]


def test_cli_config_file_supplies_required_flags(tmp_path):
    """The file is read before the one parse, so it can give the flags a
    subcommand requires."""
    conf = tmp_path / "plan.conf"
    out = str(tmp_path / "records.csv")
    conf.write_text("variant = eca\nwo = 3\nsamples = 5\nnorm_samples = 5\n")
    code = main(["--config", str(conf), "ensemble",
                 "--out", out, "--report", str(tmp_path / "report.json")])
    assert code == EXIT_OK
    assert len(read_records_csv(out)) == 5


def test_cli_abbreviated_flag_beats_config_file(tmp_path, capsys):
    """A flag wins over the file however it is spelled, and a file value is
    checked even where the command line overrides it."""
    conf = tmp_path / "plan.conf"
    out = str(tmp_path / "records.csv")
    argv = ["--config", str(conf), "ensemble", "--variant", "eca", "--wo", "3",
            "--samp", "5", "--out", out, "--report", str(tmp_path / "report.json")]
    conf.write_text("samples = 7\n")
    assert main(argv) == EXIT_OK
    assert len(read_records_csv(out)) == 5
    conf.write_text("samples = seven\n")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "--samples: invalid int value: 'seven'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--config"], "argument --config: expected one argument"),
    (["--class-table"], "argument --class-table: expected one argument"),
    (["--config", "f", "ensemble", "--c", "3"], "ambiguous option: --c could match"),
])
def test_cli_malformed_top_level_option_prints_full_usage(argv, message, capsys):
    """The --config pre-reading leaves a malformed option to the one parse,
    which names the subcommands in its usage."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "{run,ensemble,norm,analyze,render}" in err and message in err


def test_cli_abbreviated_config_flag_reads_the_file(tmp_path):
    conf = tmp_path / "plan.conf"
    out = str(tmp_path / "records.csv")
    conf.write_text("variant = eca\nwo = 3\nsamples = 4\nnorm_samples = 5\n")
    code = main(["--conf", str(conf), "ensemble",
                 "--out", out, "--report", str(tmp_path / "report.json")])
    assert code == EXIT_OK
    assert len(read_records_csv(out)) == 4


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_cli_ensemble_workers_below_one_is_usage_error(workers, tmp_path, capsys):
    out = tmp_path / "r.csv"
    with pytest.raises(SystemExit) as exc:
        main(["ensemble", "--variant", "eca", "--wo", "3", "--samples", "5",
              "--workers", workers, "--out", str(out), "--report", str(tmp_path / "rep.json")])
    assert exc.value.code == EXIT_USAGE
    assert "--workers: must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_class_table_lasts_one_call(tmp_path):
    """--class-table tags one call's metagenome; the next call in the same
    process uses the bundled table again."""
    table = tmp_path / "classes.txt"
    table.write_text("".join(f"{n} 4\n" for n in range(256)))
    report = tmp_path / "report.json"
    argv = ["ensemble", "--variant", "eca", "--wo", "3", "--samples", "40",
            "--out", str(tmp_path / "records.csv"), "--report", str(report)]

    def tags():
        return {m["rule"]: m["wolfram_class"]
                for m in json.loads(Path(report).read_text())["report"]["metagenome_all"]}

    assert main(["--class-table", str(table), *argv]) == EXIT_OK
    assert set(tags().values()) == {4}
    assert main(argv) == EXIT_OK
    bundled, tagged = load_class_table(), tags()
    assert tagged == {rule: int(bundled[rule]) for rule in tagged}
    assert set(tagged.values()) != {4}


def test_cli_class_table_override(tmp_path):
    """A custom class table changes metagenome tags end to end."""
    from oee_ca.eca import set_default_class_table, wolfram_class
    table = tmp_path / "classes.txt"
    table.write_text("".join(f"{n} 4\n" for n in range(256)))
    try:
        set_default_class_table(str(table))
        assert int(wolfram_class(0)) == 4
    finally:
        set_default_class_table(None)
    assert int(wolfram_class(0)) == 1


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "oee-ca" in capsys.readouterr().out
