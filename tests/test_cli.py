"""The command-line front end, driven in process through main()."""

import csv
import math
import xml.etree.ElementTree as ET

import pytest

from gaugeint import gallery, load_current, save_current
from gaugeint.cli import main


def read_csv(path):
    """(preamble or None, header, rows) from a table written by the CLI."""
    lines = path.read_text().splitlines()
    pre = None
    if lines and lines[0].startswith("#"):
        pre = lines[0]
        lines = lines[1:]
    parsed = list(csv.reader(lines))
    return pre, parsed[0], parsed[1:]


# ---------------------------------------------------------------------------
# integrate

def test_integrate_linear_default(tmp_path):
    code = main(["integrate", "--out-dir", str(tmp_path)])
    assert code == 0
    _, header, rows = read_csv(tmp_path / "integrate.csv")
    row = dict(zip(header, rows[0]))
    assert row["fn"] == "x"
    assert float(row["value"]) == 0.5
    assert float(row["gap"]) < 1e-3


def test_integrate_linear_tight(tmp_path):
    code = main(["integrate", "--eps", "1e-6", "--out-dir", str(tmp_path)])
    assert code == 0
    _, header, rows = read_csv(tmp_path / "integrate.csv")
    row = dict(zip(header, rows[0]))
    assert float(row["value"]) == 0.5
    assert float(row["gap"]) < 1e-6


def test_integrate_dirichlet(tmp_path):
    code = main(["integrate", "--fn", "dirichlet", "--eps", "1e-4",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    _, header, rows = read_csv(tmp_path / "integrate.csv")
    assert abs(float(dict(zip(header, rows[0]))["value"])) < 1e-4


def test_integrate_pathological_primitive(tmp_path):
    code = main(["integrate", "--fn", "sqsin", "--eps", "1e-2",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    _, header, rows = read_csv(tmp_path / "integrate.csv")
    assert float(dict(zip(header, rows[0]))["value"]) == pytest.approx(
        math.sin(1.0), abs=2e-2)


def test_integrate_over_chain_file(tmp_path, circle16):
    cur = tmp_path / "circle.cur"
    save_current(circle16, cur)
    code = main(["integrate", "--current", str(cur), "--fn", "x1",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    _, header, rows = read_csv(tmp_path / "integrate.csv")
    row = dict(zip(header, rows[0]))
    assert row["domain"] == str(cur)
    assert abs(float(row["value"])) < 1e-3


def test_integrate_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["integrate", "--fn", "x2", "--out-dir", str(a)]) == 0
    assert main(["integrate", "--fn", "x2", "--out-dir", str(b)]) == 0
    assert (a / "integrate.csv").read_bytes() == \
        (b / "integrate.csv").read_bytes()


# ---------------------------------------------------------------------------
# exit codes

def test_fixed_mesh_cannot_certify_tight_eps(tmp_path, capsys):
    code = main(["integrate", "--schedule", "uniform:1e-3", "--eps", "1e-6",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "certification failed" in capsys.readouterr().err
    _, header, rows = read_csv(tmp_path / "partial_sums.csv")
    assert header == ["tau", "sum"]
    assert len(rows) == 2


def test_failed_chain_certification_writes_partial_sums(tmp_path):
    cur = tmp_path / "zigzag.cur"
    save_current(gallery.zigzag_staircase(j_max=8)["T"], cur)
    code = main(["integrate", "--current", str(cur), "--fn", "norm",
                 "--schedule", "uniform:0.5", "--eps", "1e-9",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    _, header, rows = read_csv(tmp_path / "partial_sums.csv")
    assert header == ["tau", "sum"]
    assert len(rows) >= 2


def test_proportional_schedule_anchor_zero(tmp_path):
    # the documented ANCHOR:RATE form, anchored where the gauge vanishes at 0
    code = main(["integrate", "--fn", "x2", "--schedule", "proportional:0:0.01",
                 "--eps", "1e-2", "--out-dir", str(tmp_path / "colon")])
    assert code == 0
    _, header, rows = read_csv(tmp_path / "colon" / "integrate.csv")
    row = dict(zip(header, rows[0]))
    assert abs(float(row["value"]) - 1.0 / 3.0) < 1e-2
    # the comma form reads the same two fields
    assert main(["integrate", "--fn", "x2", "--schedule", "proportional:0,0.01",
                 "--eps", "1e-2", "--out-dir", str(tmp_path / "comma")]) == 0
    assert (tmp_path / "comma" / "integrate.csv").read_bytes() == \
        (tmp_path / "colon" / "integrate.csv").read_bytes()


@pytest.mark.parametrize("spec", ["proportional:0:0", "proportional:0:-0.5",
                                  "proportional:0", "proportional:a:0.1",
                                  "proportional:0:0.1:2", "proportional:nan:0.1"])
def test_proportional_schedule_bad_spec_is_usage_error(tmp_path, capsys, spec):
    code = main(["integrate", "--fn", "x2", "--schedule", spec,
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert "proportional schedule wants" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["integrate", "--eps", "nan"],
    ["partition", "--tau", "-1"],
    ["partition", "--tau", "0"],
    ["partition", "--tau", "nan"],
    ["integrate", "--fn", "sqsin", "--eps", "1e-2", "--tau", "-1"],
    ["integrate", "--tau", "-1"],
    ["integrate", "--tau", "0"],
    ["integrate", "--tau", "nan"],
    ["integrate", "--tau", "abc"],
    ["integrate", "--tau", "1e-3,1e-4"],
    ["integrate", "--seed", "x"],
])
def test_bad_numeric_flag_is_usage_error(tmp_path, capsys, argv):
    code = main(argv + ["--out-dir", str(tmp_path)])
    assert code == 1
    assert "gaugeint: error:" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["eps = inf", "tau = -1", "seed = 1.5"])
def test_bad_numeric_config_value_is_usage_error(tmp_path, capsys, line):
    conf = tmp_path / "bad.conf"
    conf.write_text(line + "\n")
    code = main(["partition", "--config", str(conf),
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert "gaugeint: error:" in capsys.readouterr().err


def test_unknown_integrand_is_usage_error(tmp_path, capsys):
    code = main(["integrate", "--fn", "wibble", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "unknown interval integrand" in capsys.readouterr().err


def test_unknown_subcommand_exits_one():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 1


def test_unknown_gallery_name(tmp_path):
    assert main(["gallery", "nope", "--out-dir", str(tmp_path)]) == 1


def test_bad_format_rejected(tmp_path):
    assert main(["integrate", "--format", "png",
                 "--out-dir", str(tmp_path)]) == 1


def test_bad_config_key_rejected(tmp_path):
    conf = tmp_path / "gaugeint.conf"
    conf.write_text("wibble = 3\n")
    assert main(["integrate", "--config", str(conf),
                 "--out-dir", str(tmp_path)]) == 1


# ---------------------------------------------------------------------------
# config precedence

def test_config_backs_unset_flags(tmp_path):
    conf = tmp_path / "gaugeint.conf"
    conf.write_text("# desk defaults\neps = 1e-2\n")
    assert main(["integrate", "--config", str(conf),
                 "--out-dir", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "integrate.csv")
    assert float(dict(zip(header, rows[0]))["eps"]) == 1e-2


def test_flags_override_config(tmp_path):
    conf = tmp_path / "gaugeint.conf"
    conf.write_text("eps = 1e-2\n")
    assert main(["integrate", "--config", str(conf), "--eps", "1e-4",
                 "--out-dir", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "integrate.csv")
    assert float(dict(zip(header, rows[0]))["eps"]) == 1e-4


# ---------------------------------------------------------------------------
# ftc

def test_ftc_segment_defaults(tmp_path):
    assert main(["ftc", "--out-dir", str(tmp_path)]) == 0
    pre, header, rows = read_csv(tmp_path / "ftc.csv")
    assert pre.startswith("#")
    assert header[0] == "epsilon"
    assert len(rows) == 2
    for row in rows:
        r = dict(zip(header, row))
        assert float(r["lhs"]) == pytest.approx(3.0, abs=1e-12)
        assert float(r["discrepancy"]) < 1e-3
    assert not (tmp_path / "ftc.svg").exists()


def test_ftc_circle_discrepancy_decreases(tmp_path):
    assert main(["ftc", "circle", "--eps", "1e-1,1e-2",
                 "--out-dir", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "ftc.csv")
    discs = [float(dict(zip(header, row))["discrepancy"]) for row in rows]
    assert discs[1] < discs[0]


def test_ftc_square_with_figure(tmp_path):
    assert main(["ftc", "square", "--eps", "1e-2", "--format", "svg",
                 "--out-dir", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "ftc.csv")
    assert float(dict(zip(header, rows[0]))["discrepancy"]) < 1e-2
    root = ET.fromstring((tmp_path / "ftc.svg").read_text())
    assert root.tag.endswith("svg")
    polys = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polys) == 1


# ---------------------------------------------------------------------------
# gallery

def test_gallery_circles(tmp_path):
    assert main(["gallery", "circles", "--J", "4",
                 "--out-dir", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "circles.csv")
    assert header == ["j", "mass_Sj", "theta_f_Sj"]
    assert len(rows) == 4
    assert all(float(r[2]) == 2.0 for r in rows)
    T = load_current(tmp_path / "circles.cur")
    assert len(T.components) == 4
    root = ET.fromstring((tmp_path / "circles.svg").read_text())
    polys = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polys) == 4


def test_gallery_cantor_preamble(tmp_path):
    assert main(["gallery", "cantor", "--k", "6", "--format", "csv",
                 "--out-dir", str(tmp_path)]) == 0
    pre, header, rows = read_csv(tmp_path / "cantor.csv")
    assert pre == "# boundary_atoms=0,remaining_length=0.5078125"
    assert len(rows) == 63


def test_gallery_zigzag_table(tmp_path):
    assert main(["gallery", "zigzag", "--j", "10", "--format", "csv",
                 "--out-dir", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "zigzag.csv")
    assert header[:2] == ["delta", "pieces"]
    assert rows
    for row in rows:
        assert int(row[1]) > 0


def test_gallery_twocurves(tmp_path):
    assert main(["gallery", "twocurves", "--format", "csv",
                 "--out-dir", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "twocurves.csv")
    table = {r[0]: float(r[1]) for r in rows}
    assert table["gamma"] == table["gamma_plus"] == table["gamma_minus"]
    T = load_current(tmp_path / "twocurves.cur")
    assert T.mass() == pytest.approx(table["gamma"], abs=1e-12)


# ---------------------------------------------------------------------------
# audit and partition

def test_audit_within_bound(tmp_path):
    assert main(["audit", "--samples", "4", "--out-dir", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "audit.csv")
    for row in rows:
        r = dict(zip(header, row))
        bound = float(r["bound"])
        assert float(r["audit_left"]) < bound
        assert float(r["audit_right"]) < bound
        assert float(r["audit_subfamilies"]) < bound


def test_partition_stats(tmp_path):
    assert main(["partition", "--eps", "1e-2",
                 "--out-dir", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "partition.csv")
    assert [r[0] for r in rows] == ["left", "right"]
    for row in rows:
        r = dict(zip(header, row))
        assert int(r["carves"]) >= 1
        assert float(r["min_width"]) > 0.0
