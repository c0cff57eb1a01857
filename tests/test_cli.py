import json

import pytest

from tinregion.cli import main


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
    from tinregion import preset_scenario
    from tinregion.channel import scenario_to_dict

    path = tmp_path / "scen.json"
    path.write_text(json.dumps(scenario_to_dict(preset_scenario("fig1"))))
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
