import json

import numpy as np
import pytest

from tinregion import cli, preset_scenario, reference_points, region
from tinregion.cli import main

from conftest import scenario_dict


def test_region_csv(tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = main([
        "region", "--scenario", "fig1", "--method", "proper-pure",
        "--betas", "5", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,beta,r1,r2"
    assert len(lines) == 6
    assert "proper-pure" in capsys.readouterr().out


def test_region_json(tmp_path):
    out = tmp_path / "r.json"
    rc = main([
        "region", "--scenario", "fig1", "--method", "proper-pure",
        "--betas", "0.25,0.75", "--out", str(out), "--format", "json",
    ])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["method"] == "proper-pure"
    assert [s["beta"] for s in data["samples"]] == [0.25, 0.75]


def test_region_hull_method(tmp_path):
    out = tmp_path / "hull.csv"
    rc = main(["region", "--scenario", "fig1", "--method", "hull",
               "--betas", "5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,beta,r1,r2"
    assert all(line.startswith("convex-hull,") for line in lines[1:])


def test_region_multi_method_csv(tmp_path):
    # one header, then each method's rows exactly as its own file has them
    base = ["region", "--scenario", "fig1", "--betas", "0.2,0.5,0.9"]
    files = {}
    for method in ("proper-pure,hull", "proper-pure", "hull"):
        files[method] = tmp_path / f"{method.replace(',', '+')}.csv"
        assert main(base + ["--method", method, "--out", str(files[method])]) == 0
    header = b"method,beta,r1,r2\n"
    singles = [files[m].read_bytes() for m in ("proper-pure", "hull")]
    assert all(s.startswith(header) for s in singles)
    want = header + b"".join(s[len(header):] for s in singles)
    assert files["proper-pure,hull"].read_bytes() == want


def test_region_multi_method_json(tmp_path):
    # a list of the per-method objects, each as its own file has it
    base = ["region", "--scenario", "fig1", "--betas", "0.2,0.5,0.9",
            "--format", "json"]
    files = {}
    for method in ("proper-pure,hull", "proper-pure", "hull"):
        files[method] = tmp_path / f"{method.replace(',', '+')}.json"
        assert main(base + ["--method", method, "--out", str(files[method])]) == 0
    singles = [json.loads(files[m].read_text()) for m in ("proper-pure", "hull")]
    assert [s["method"] for s in singles] == ["proper-pure", "convex-hull"]
    text = files["proper-pure,hull"].read_text()
    assert json.loads(text) == singles
    assert text == json.dumps(singles, indent=2) + "\n"


def test_region_no_method(tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = main(["region", "--scenario", "fig1", "--method", ",", "--betas", "3",
               "--out", str(out)])
    assert rc == 2
    assert "no method" in capsys.readouterr().err
    assert not out.exists()


def test_region_deterministic_bytes(tmp_path):
    args = [
        "region", "--scenario", "fig3", "--method", "improper",
        "--betas", "0.5", "--seed", "7", "--starts", "3",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_region_random_scenario(tmp_path):
    # the README's `tinregion region --scenario random --seed 3`: the seed
    # draws the channel, so it fixes the bytes
    paths = {}
    for name, seed in (("a", "3"), ("b", "3"), ("c", "4")):
        paths[name] = tmp_path / f"{name}.csv"
        assert main(["region", "--scenario", "random", "--seed", seed, "--method",
                     "proper-pure", "--betas", "5", "--out", str(paths[name])]) == 0
    a, b, c = (paths[n].read_bytes() for n in "abc")
    assert a == b and a != c


@pytest.mark.parametrize("betas, want", [("1e-3", [1e-3]), ("1e-9,0.5", [1e-9, 0.5]),
                                          ("3", [0.0, 0.5, 1.0]), (" 2 ", [0.0, 1.0])])
def test_parse_betas(betas, want):
    # only a plain integer is a sample count
    assert cli._parse_betas(betas) == want


@pytest.mark.parametrize("betas", ["0", ",", "a"])
def test_region_bad_beta_grid(capsys, betas):
    assert main(["region", "--scenario", "fig1", "--betas", betas]) == 2
    assert "bad beta grid" in capsys.readouterr().err


def test_region_bad_scenario_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["region", "--scenario", str(bad), "--method", "proper-pure",
               "--betas", "3"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_region_unknown_method(capsys):
    rc = main(["region", "--scenario", "fig1", "--method", "whatever",
               "--betas", "3"])
    assert rc == 2


def test_region_scenario_file_roundtrip(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(scenario_dict(preset_scenario("fig1"))))
    out = tmp_path / "r.csv"
    rc = main(["region", "--scenario", str(path), "--method", "proper-pure",
               "--betas", "0.5", "--out", str(out)])
    assert rc == 0


def test_usage_error_exit_code():
    assert main(["region"]) == 2  # missing required --scenario


def test_region_non_finite_eps(capsys):
    rc = main(["region", "--scenario", "fig1", "--betas", "3", "--eps", "nan"])
    assert rc == 2
    assert "eps" in capsys.readouterr().err


def test_region_nan_beta(capsys):
    rc = main(["region", "--scenario", "fig1", "--method", "improper",
               "--betas", "nan,0.5"])
    assert rc == 2
    assert "betas" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["1", "4", "0", "-3"])
def test_reproduce_grid_without_half(tmp_path, capsys, count):
    # the balanced time-sharing check needs beta 0.5 on the grid; the grid is
    # rejected before anything is solved or written
    outdir = tmp_path / "rep"
    rc = main(["reproduce", "fig3", "--betas", count, "--out", str(outdir)])
    assert rc == 2
    assert "--betas" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("count", ["0", "-2"])
def test_reproduce_bad_starts(tmp_path, capsys, count):
    # rejected with the beta grid, before anything is solved or written
    outdir = tmp_path / "rep"
    rc = main(["reproduce", "fig3", "--betas", "3", "--starts", count,
               "--out", str(outdir)])
    assert rc == 2
    assert "--starts" in capsys.readouterr().err
    assert not outdir.exists()


def test_reproduce_sweeps_pure_once(tmp_path, monkeypatch):
    # the hull comes from the pure sweep: 21 balanced points plus the
    # published pure-balanced check, where sweeping the hull on its own
    # balances all 21 again; its bytes are those of that separate sweep
    calls = []
    balance = region.balance_pure_proper

    def counting(*args, **kwargs):
        calls.append(args)
        return balance(*args, **kwargs)

    monkeypatch.setattr(region, "balance_pure_proper", counting)
    monkeypatch.setattr(cli, "balance_pure_proper", counting)
    outdir = tmp_path / "rep"
    main(["reproduce", "fig1", "--starts", "2", "--out", str(outdir)])
    assert len(calls) == 21 + 1
    hull = region.sweep_region(preset_scenario("fig1"), "convex-hull",
                               np.linspace(0, 1, 21), eps=1e-6)
    region.write_curve(tmp_path / "hull.csv", hull, fmt="csv")
    want = (tmp_path / "hull.csv").read_bytes()
    assert (outdir / "convex-hull.csv").read_bytes() == want


def test_reference_check_deviation():
    # the largest coordinate error of the nearest candidate, or for a floor
    # on the sum rate, the shortfall below it
    point = reference_points.ReferenceCheck("fig1", "p", "improper-point", (1.0, 2.0), 0.1)
    assert point.deviation([(1.5, 2.0), (1.0, 2.25)]) == 0.25
    floor = reference_points.ReferenceCheck("fig1", "s", "improper-min-sum", (6.0,), 0.0)
    assert floor.deviation([(3.0, 2.5)]) == 0.5
    assert floor.deviation([(3.0, 3.5)]) == 0.0


def test_reproduce_rejects_unknown_check_kind(tmp_path, monkeypatch):
    # a check of a kind with no measured candidates raises, not passes silently
    bogus = reference_points.ReferenceCheck("fig3", "bogus", "bogus-kind", (1.0,), 0.1)
    monkeypatch.setattr(reference_points, "REFERENCE_CHECKS", [bogus])
    with pytest.raises(KeyError, match="bogus-kind"):
        main(["reproduce", "fig3", "--betas", "3", "--starts", "1",
              "--out", str(tmp_path / "rep")])


@pytest.mark.slow
def test_reproduce_fig3(tmp_path, capsys):
    outdir = tmp_path / "rep"
    rc = main(["reproduce", "fig3", "--betas", "3", "--starts", "5",
               "--out", str(outdir)])
    report = (outdir / "report.txt").read_text()
    assert "single-user rate" in report
    assert (outdir / "proper-pure.csv").exists()
    assert (outdir / "proper-timesharing.csv").exists()
    # every bundled reference for this scenario is reproducible
    assert rc == 0
