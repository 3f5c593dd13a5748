"""End-to-end command-line behavior, run in process via main(argv)."""

import importlib
import json
import subprocess
import sys

import mpmath as mp
import pytest

from conftest import cli_env
from ptspec import PrecisionContext, TruncationParams, health_check, pt_pairs, series
from ptspec.cli import _build_parser, main
from ptspec.precision import real_str


def run(argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


# --- wedges ---------------------------------------------------------------


def test_wedges_json(capsys):
    rc, out, err = run(["wedges", "--N", "3"], capsys)
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["N"] == 3
    (p,) = doc["pairs"]
    assert p["index"] == 0
    assert p["theta_right_pi"] == "-1/10"
    assert p["theta_left_pi"] == "-9/10"
    assert p["half_width_pi"] == "1/5"
    assert p["p_symmetric"] is False
    with mp.workdps(50):
        want = mp.nstr(-mp.pi / 10, 40, strip_zeros=False)
    assert p["theta_right_rad"].startswith(str(want)[:30])


def test_wedges_csv(capsys):
    rc, out, err = run(["wedges", "--N", "4", "--format", "csv"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "# ptspec wedges N=4 pmax=100 radius=8 digits=40 pair=0"
    assert lines[1].startswith("index,theta_right_pi,theta_right_rad,")
    assert len(lines) == 5  # three pairs
    assert lines[2].split(",")[1] == "1/2"
    assert lines[2].split(",")[-1] == "true"
    assert lines[3].split(",")[-1] == "false"


# --- spectrum -------------------------------------------------------------


def test_spectrum_json_regression(capsys):
    rc, out, err = run(["spectrum", "--N", "3", "--levels", "2"], capsys)
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["params"] == {
        "N": 3,
        "pmax": 100,
        "radius": "8",
        "digits": 40,
        "pair": 0,
    }
    assert doc["health"]["passed"] is True
    lv0, lv1 = doc["levels"]
    assert lv0["E"].startswith("1.15626707198811329379921917799995137916")
    assert lv0["c"].startswith("-0.53871554540975909050201125442888")
    assert lv0["parity"] is None
    assert lv0["stable"] is True
    assert float(lv0["est_error"]) < 1e-30
    assert lv1["E"].startswith("4.10922875280965153584366847856133")


def test_spectrum_csv(capsys):
    rc, out, err = run(["spectrum", "--N", "3", "--levels", "1", "--format", "csv"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "# ptspec spectrum N=3 pmax=100 radius=8 digits=40 pair=0"
    assert lines[1] == "n,E,c,parity,est_error,stable"
    fields = lines[2].split(",")
    assert fields[0] == "0"
    assert fields[1].startswith("1.156267071988113293")
    assert fields[3] == ""  # no parity tag on ordinary pairs
    assert fields[5] == "true"


def test_spectrum_health_gate(capsys):
    rc, out, err = run(["spectrum", "--N", "2", "--pair", "1", "--levels", "1"], capsys)
    assert rc == 1
    assert "--force" in err
    doc = json.loads(out)
    assert "health check failed" in doc["error"]
    assert doc["health"]["passed"] is False
    (entry,) = doc["health"]["entries"]
    assert entry["pair"] == 1 and entry["passed"] is False


@pytest.mark.parametrize("n_exponent, radius, pair_index", [(7, 3, 2), (4, 6, 0)])
def test_spectrum_health_reports_the_requested_pair(capsys, n_exponent, radius, pair_index):
    argv = ["spectrum", "--N", str(n_exponent), "--radius", str(radius),
            "--pair", str(pair_index), "--levels", "1"]
    rc, out, err = run(argv, capsys)
    assert rc == 0 and err == ""
    health = json.loads(out)["health"]
    assert health["e_max"] == "30"
    (entry,) = health["entries"]
    pair = pt_pairs(n_exponent)[pair_index]
    assert entry["pair"] == pair_index
    assert entry["theta_right_pi"] == str(pair.theta_right)
    report = health_check(pair, TruncationParams(100, radius), PrecisionContext(40))
    assert entry["tail"] == real_str(report.tail, 3)
    assert entry["c_discrepancy"] == real_str(report.c_discrepancy, 3)


def test_spectrum_parity_forced(capsys):
    rc, out, err = run(
        ["spectrum", "--N", "2", "--pair", "1", "--levels", "4", "--force"], capsys
    )
    assert rc == 0
    doc = json.loads(out)
    levels = doc["levels"]
    assert [lv["parity"] for lv in levels] == ["even", "odd", "even", "odd"]
    assert all(lv["c"] is None for lv in levels)
    for lv, want in zip(levels, (1, 3, 5, 7)):
        assert abs(float(lv["E"]) - want) < 1e-15


def test_spectrum_degenerate_pair_hint(capsys):
    rc, out, err = run(["spectrum", "--N", "2", "--pair", "0", "--force"], capsys)
    assert rc == 2
    assert "parity-degenerate" in err
    assert "--pair 1" in err


def test_spectrum_quartic_parity(capsys):
    rc, out, err = run(
        ["spectrum", "--N", "4", "--pair", "0", "--radius", "6", "--levels", "2"], capsys
    )
    assert rc == 0 and err == ""  # health passes at this radius, no --force
    doc = json.loads(out)
    assert doc["params"]["radius"] == "6"
    lv0, lv1 = doc["levels"]
    assert lv0["parity"] == "even"
    assert lv0["E"].startswith("-1.060362090484182899")
    assert lv1["parity"] == "odd"
    assert lv1["E"].startswith("-3.799673029801394168")


# --- scan and wavefunction default to csv ----------------------------------


def test_scan_defaults_to_csv(capsys):
    rc, out, err = run(
        ["scan", "--N", "3", "--emin", "1", "--emax", "1.3", "--step", "0.1"], capsys
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == "E,re_c,im_c,flag"
    rows = [ln.split(",") for ln in lines[2:]]
    assert [r[0] for r in rows] == ["1.0", "1.1", "1.2", "1.3"]
    assert all(r[3] == "ok" for r in rows)
    signs = [float(r[2]) > 0 for r in rows]
    assert signs == [True, True, False, False]  # root near 1.156


def test_wavefunction_defaults_to_csv(capsys):
    rc, out, err = run(
        ["wavefunction", "--N", "3", "--xmin", "-1", "--xmax", "1", "--step", "0.5"],
        capsys,
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == "x,re_psi,im_psi"
    assert len(lines) == 7
    xs = [ln.split(",")[0] for ln in lines[2:]]
    assert xs == ["-1.0", "-0.5", "0.0", "0.5", "1.0"]
    # PT symmetry of the samples: psi(-x) = conj(psi(x))
    rows = {ln.split(",")[0]: ln.split(",")[1:] for ln in lines[2:]}
    assert float(rows["-1.0"][0]) == pytest.approx(float(rows["1.0"][0]), rel=1e-12)
    assert float(rows["-1.0"][1]) == pytest.approx(-float(rows["1.0"][1]), rel=1e-12)


# --- nodes and expect -----------------------------------------------------


def test_nodes_json(capsys):
    rc, out, err = run(["nodes", "--N", "3", "--level", "1"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["level"]["n"] == 1
    assert doc["axis_nodes"] == []
    (node,) = doc["arch_nodes"]
    assert node["re"] == "0.0"
    assert node["im"].startswith("-0.6612962264427154133088952590884430")
    assert len(doc["turning_points"]) == 2


def test_nodes_csv(capsys):
    # CSV lists axis, arch and turning rows as kind,re,im
    args = ["nodes", "--N", "3", "--level", "1", "--digits", "20", "--pmax", "60"]
    rc, out, err = run(args + ["--format", "csv"], capsys)
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "# ptspec nodes N=3 pmax=60 radius=8 digits=20 pair=0"
    assert lines[1] == "kind,re,im"
    rows = [ln.split(",") for ln in lines[2:]]
    assert [r[0] for r in rows] == ["arch", "turning", "turning"]
    assert rows[0][1] == "0.0" and rows[0][2].startswith("-0.661296")
    rc, out, err = run(args, capsys)
    doc = json.loads(out)
    want = [[kind, z["re"], z["im"]]
            for kind, key in (("axis", "axis_nodes"), ("arch", "arch_nodes"),
                              ("turning", "turning_points"))
            for z in doc[key]]
    assert rows == want


def test_nodes_region_parse_error(capsys):
    rc, out, err = run(["nodes", "--N", "3", "--region", "1,2,3"], capsys)
    assert rc == 2
    assert "region" in err


def test_nodes_region_outside_disk(capsys):
    # corners at |z| = 6*sqrt(2) > 8: a numeric failure, like a Newton
    # iterate that leaves the disk
    args = ["nodes", "--N", "3", "--region=-6,6,-6,0", "--digits", "20", "--pmax", "60"]
    rc, out, err = run(args, capsys)
    assert rc == 1 and out == ""
    assert "validated disk" in err


def test_expect_json(capsys):
    rc, out, err = run(["expect", "--N", "3", "--moments", "0,2", "--level", "0"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["contour"] == {"style": "real_line", "lambda": "5"}
    m0, m2 = doc["moments"]
    assert m0["m"] == 0 and m0["re_value"] == "1.0" and m0["im_value"] == "0.0"
    assert m2["m"] == 2
    assert abs(float(m2["re_value"])) < 1e-9
    assert abs(float(m2["im_value"])) < 1e-9
    idn = doc["identities"]
    assert idn["ehrenfest_ok"] is True and idn["virial_ok"] is True
    assert float(idn["virial_abs"]) < 1e-8


def test_expect_csv(capsys):
    # the CSV rows carry the level index n, which JSON keeps under "level"
    args = ["expect", "--N", "3", "--level", "1", "--moments", "0,2",
            "--digits", "20", "--pmax", "60"]
    rc, out, err = run(args + ["--format", "csv"], capsys)
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "# ptspec expect N=3 pmax=60 radius=8 digits=20 pair=0"
    assert lines[1] == "n,m,re_value,im_value,est_error"
    rows = [ln.split(",") for ln in lines[2:]]
    assert [r[:2] for r in rows] == [["1", "0"], ["1", "2"]]
    assert rows[0][2:4] == ["1.0", "0.0"]
    rc, out, err = run(args, capsys)
    doc = json.loads(out)
    assert doc["level"]["n"] == 1
    assert "n" not in doc["moments"][0]
    want = [[str(doc["level"]["n"]), str(m["m"]), m["re_value"], m["im_value"], m["est_error"]]
            for m in doc["moments"]]
    assert rows == want


def test_expect_bad_moments(capsys):
    rc, out, err = run(["expect", "--N", "3", "--moments=0,x"], capsys)
    assert rc == 2
    assert "moments" in err
    rc, out, err = run(["expect", "--N", "3", "--moments=1,-2"], capsys)
    assert rc == 2
    assert "moment orders" in err


# --- selfcheck ------------------------------------------------------------


def test_selfcheck_in_process(capsys):
    rc, out, err = run(["selfcheck"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == ["wronskian", "pt_reflection", "n2_oracle"]
    assert all(": ok" in ln for ln in lines)


def test_selfcheck_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ptspec", "selfcheck", "--digits", "30"],
        capture_output=True,
        text=True,
        timeout=300,
        env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(": ok") == 3


def test_selfcheck_rejects_zero_digits(capsys):
    rc, out, err = run(["selfcheck", "--digits", "0"], capsys)
    assert rc == 2 and out == ""
    assert "digits must be a positive integer, got 0" in err


# --- argument and environment handling -------------------------------------


def test_rejects_bad_exponent(capsys):
    rc, out, err = run(["spectrum", "--N", "1"], capsys)
    assert rc == 2
    assert "N must be" in err


def test_rejects_bad_pair_index(capsys):
    rc, out, err = run(["spectrum", "--N", "3", "--pair", "5"], capsys)
    assert rc == 2
    assert "wedge pairs" in err


def test_rejects_malformed_fraction(capsys):
    rc, out, err = run(["spectrum", "--N", "3", "--radius", "abc"], capsys)
    assert rc == 2
    assert "exact fraction" in err
    rc, out, err = run(["expect", "--N", "3", "--lam", "1/0"], capsys)
    assert rc == 2
    assert "exact fraction" in err


def test_lambda_belongs_to_expect(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--N", "3", "--lambda", "3"])
    assert exc.value.code == 2
    rc, out, err = run(["expect", "--N", "3", "--lambda", "0"], capsys)
    assert rc == 2
    assert "lambda must be positive" in err


@pytest.mark.parametrize("command", ["spectrum", "nodes", "expect", "wavefunction", "scan", "wedges"])
def test_parity_belongs_to_the_commands_that_quantize(command, capsys):
    # scan samples c and wedges lists the pairs; neither reads a level, so
    # neither takes --parity, which spectrum and the level lookups do
    argv = [command, "--N", "4", "--parity", "odd"]
    if command in ("scan", "wedges"):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --parity odd" in capsys.readouterr().err
    else:
        assert _build_parser().parse_args(argv).parity == "odd"


def test_rejects_unknown_format(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["wedges", "--N", "3", "--format", "xml"])
    assert exc.value.code == 2


def test_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_env_digits(capsys, monkeypatch):
    monkeypatch.setenv("PTSPEC_DIGITS", "25")
    rc, out, err = run(
        ["scan", "--N", "3", "--emin", "1", "--emax", "1.1", "--step", "0.1",
         "--format", "json"],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["params"]["digits"] == 25
    # 25 significant digits in the rendered values
    mantissa = doc["points"][0]["re_c"].lstrip("-0.")
    assert len(mantissa) == 25


def test_env_digits_invalid(capsys, monkeypatch):
    monkeypatch.setenv("PTSPEC_DIGITS", "many")
    rc, out, err = run(["wedges", "--N", "3"], capsys)
    assert rc == 2
    assert "PTSPEC_DIGITS" in err


def test_explicit_digits_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("PTSPEC_DIGITS", "25")
    rc, out, err = run(["wedges", "--N", "3", "--digits", "10", "--format", "csv"], capsys)
    assert rc == 0
    assert "digits=10" in out.splitlines()[0]


def test_radius_accepts_fractions(capsys):
    rc, out, err = run(["wedges", "--N", "3", "--radius", "13/2", "--format", "csv"], capsys)
    assert rc == 0
    assert "radius=13/2" in out.splitlines()[0]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "wedges.csv"
    rc, out, err = run(
        ["wedges", "--N", "3", "--format", "csv", "--output", str(target)], capsys
    )
    assert rc == 0
    assert out == ""  # everything went to the file
    data = target.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
    assert data.decode().splitlines()[1].startswith("index,")


def test_reruns_are_byte_identical(capsys):
    # the first run starts with empty memos, the second reuses them
    series.clear_memos()
    args = ["spectrum", "--N", "3", "--levels", "1"]
    rc1, out1, _ = run(args, capsys)
    rc2, out2, _ = run(args, capsys)
    assert (rc1, rc2) == (0, 0)
    assert out1 == out2
    args = ["scan", "--N", "3", "--emin", "0", "--emax", "2", "--step", "0.5"]
    rc1, out1, _ = run(args, capsys)
    rc2, out2, _ = run(args, capsys)
    assert (rc1, rc2) == (0, 0)
    assert out1 == out2


# --- start-up: the package and the modules each command loads -------------

# run in a fresh process: the modules a bare `import ptspec` and then one
# command through cli.main add to sys.modules, on the last line of stdout
_LOAD_PROBE = """
import sys
before = set(sys.modules)
import ptspec
if sys.argv[1:]:
    from ptspec import cli
    assert cli.main(sys.argv[1:]) == 0
print(" ".join(sorted(set(sys.modules) - before)))
"""


@pytest.mark.parametrize("command, modules", [
    ("", ()),
    ("spectrum --N 3 --levels 1", ()),
    ("scan --N 3 --emax 2", ()),
    ("selfcheck", ()),
    ("nodes --N 3 --level 0", ("ptspec.nodes",)),
    ("expect --N 3 --level 0 --moments 0", ("ptspec.observables",)),
])
def test_each_command_loads_only_its_modules(command, modules):
    proc = subprocess.run(
        [sys.executable, "-c", _LOAD_PROBE, *command.split()],
        capture_output=True,
        text=True,
        timeout=300,
        env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "dataclasses" not in loaded
    assert loaded & {"ptspec.nodes", "ptspec.observables"} == set(modules)
    if not command:
        assert {m for m in loaded if m.startswith("ptspec")} == {"ptspec"}


def test_public_surface():
    import ptspec
    from ptspec import nodes, quantize

    assert ptspec.spectrum is quantize.spectrum and ptspec.NodeSet is nodes.NodeSet
    assert ptspec.__all__[-1] == "__version__"
    for name in ptspec.__all__[:-1]:
        home = importlib.import_module(f"ptspec.{ptspec._HOME[name]}")
        obj = getattr(ptspec, name)
        assert obj is getattr(home, name), name
        if getattr(obj, "__module__", "").startswith("ptspec"):
            assert obj.__module__ == home.__name__, name  # defined there, not re-exported
    star = {}
    exec("from ptspec import *", star)
    assert set(star) - {"__builtins__"} == set(ptspec.__all__)
    assert set(ptspec.__all__) <= set(dir(ptspec))
    with pytest.raises(AttributeError, match="no_such_name"):
        ptspec.no_such_name
    from ptspec import cli, series as series_module
    assert cli is sys.modules["ptspec.cli"] and series_module is sys.modules["ptspec.series"]
