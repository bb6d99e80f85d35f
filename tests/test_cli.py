import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from calabi import blaschke, cli, decompose, dsl
from conftest import HYPERBOLA_B_SRC, HYPERBOLA_SRC, QUADRIC_SRC, make_grid

REPORT_KEYS = {"name", "max_residual", "tolerance", "pass", "worst_point"}
SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args: str, cwd=None):
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "calabi.cli", *args], capture_output=True,
        env=dict(os.environ, PYTHONPATH=path), cwd=cwd)


def test_importing_the_cli_leaves_dataclasses_unimported():
    """Every CLI process imports the whole package first; its records are
    named tuples and plain classes, because decorating frozen dataclasses
    was the largest cost of that import after compiling the modules."""
    probe = "import sys, calabi.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
                         check=True)
    assert out.stdout.split() == ["False"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    """Immersion files shared by the CLI tests: the two hyperbola factors,
    a constructed pair product, a quadric and a non-sphere perturbation."""
    root = tmp_path_factory.mktemp("cliwork")
    (root / "h2.immersion").write_text(HYPERBOLA_SRC, encoding="utf-8")
    (root / "h2b.immersion").write_text(HYPERBOLA_B_SRC, encoding="utf-8")
    (root / "quadric.immersion").write_text(QUADRIC_SRC, encoding="utf-8")

    res = run_cli("construct", "pair",
                  str(root / "h2.immersion"), str(root / "h2b.immersion"),
                  "-o", str(root / "pair.immersion"), "--name", "c4")
    assert res.returncode == 0, res.stderr.decode()

    pair = dsl.parse_immersion(
        (root / "pair.immersion").read_text(encoding="utf-8"))
    u1 = dsl.var(pair.vars[0])
    bump = dsl.add(dsl.const(1.0),
                   dsl.mul(dsl.const(0.01), dsl.mul(u1, u1)))
    perturbed = dsl.ImmersionDef(
        name="perturbed", vars=pair.vars,
        components=tuple(dsl.mul(bump, c) for c in pair.components))
    (root / "perturbed.immersion").write_text(
        dsl.print_immersion(perturbed) + "\n", encoding="utf-8")
    return root


def test_construct_emits_provenance_header(workdir):
    text = (workdir / "pair.immersion").read_text(encoding="utf-8")
    assert text.startswith("#@product(kind=pair")
    res = run_cli("construct", "pair",
                  str(workdir / "h2.immersion"),
                  str(workdir / "h2b.immersion"),
                  "-o", str(workdir / "pair_again.immersion"))
    payload = json.loads(res.stdout)
    assert res.returncode == 0
    assert payload["command"] == "construct"
    assert payload["product"]["kind"] == "pair"
    assert payload["product"]["n2"] == 1
    assert payload["product"]["n3"] == 1
    assert payload["product"]["components"] == 4


def test_check_passes_on_constructed_product(workdir):
    res = run_cli("check", str(workdir / "pair.immersion"), "--grid", "g27")
    assert res.returncode == 0, res.stderr.decode()
    payload = json.loads(res.stdout)
    assert set(payload) >= {"command", "inputs", "seed", "reports"}
    assert payload["seed"] == 42
    names = [row["name"] for row in payload["reports"]]
    assert names == ["sphere", "apolarity", "gauss", "codazzi",
                     "parallel_cubic", "unimodular"]
    for row in payload["reports"]:
        assert REPORT_KEYS <= set(row)
        assert row["pass"] is True
        assert row["max_residual"] <= row["tolerance"]


def test_check_tolerance_override_fails(workdir, tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("check", str(workdir / "pair.immersion"), "--grid", "g27",
                  "--tol", "sphere=1e-30", "-o", str(out))
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    sphere = next(r for r in payload["reports"] if r["name"] == "sphere")
    assert sphere["pass"] is False
    assert sphere["tolerance"] == 1e-30
    # report is still written on failure
    assert json.loads(out.read_text(encoding="utf-8")) == payload


def test_detect_is_byte_deterministic(workdir, tmp_path):
    runs = []
    for idx in (1, 2):
        out = tmp_path / f"verdict{idx}.json"
        res = run_cli("detect", str(workdir / "pair.immersion"),
                      "--grid", "g27", "--seed", "42", "-o", str(out))
        assert res.returncode == 0
        runs.append((res.stdout, out.read_bytes()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]

    payload = json.loads(runs[0][0])
    verdict = payload["verdict"]
    assert verdict["kind"] == "PairProduct"
    lam = verdict["lambda"]
    assert abs(lam[0]) <= 1e-6
    assert abs(lam[1] - 1.0) <= 1e-6
    assert abs(lam[2] + 1.0) <= 1e-6
    assert verdict["cross_residual"] <= 1e-7
    assert all(v <= 1e-8 for v in verdict["relation_residuals"].values())


def _same_shape(expected, actual, path=""):
    assert type(expected) is type(actual), (path, expected, actual)
    if isinstance(expected, dict):
        assert list(expected) == list(actual), path   # keys and their order
        for key in expected:
            _same_shape(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(expected) == len(actual), path
        for idx, (e, a) in enumerate(zip(expected, actual)):
            _same_shape(e, a, f"{path}[{idx}]")
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, abs=1e-9), path
    else:
        assert expected == actual, path


def _golden_json(name: str):
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


def _csv_rows(path: Path) -> list:
    return [[float(x) for x in line.split(",")]
            for line in path.read_text(encoding="utf-8").splitlines()]


def test_construct_matches_golden_text(workdir):
    assert (workdir / "pair.immersion").read_text(encoding="utf-8") == \
        (GOLDEN / "construct_pair.immersion").read_text(encoding="utf-8")


def test_check_matches_golden_report(workdir):
    res = run_cli("check", "pair.immersion", "--grid", "g27", cwd=workdir)
    assert res.returncode == 0, res.stderr.decode()
    _same_shape(_golden_json("check_pair.json"), json.loads(res.stdout))


def test_extract_matches_golden_files(workdir):
    res = run_cli("extract", "pair.immersion", "--grid", "g27",
                  "-o", "extract", cwd=workdir)
    assert res.returncode == 0, res.stderr.decode()
    _same_shape(_golden_json("extract_pair/report.json"),
                json.loads((workdir / "extract" / "report.json")
                           .read_text(encoding="utf-8")))
    for name in ("phi2.csv", "phi3.csv"):
        _same_shape(_csv_rows(GOLDEN / "extract_pair" / name),
                    _csv_rows(workdir / "extract" / name))


def test_construct_geometry_error_matches_golden(workdir):
    (workdir / "bad.immersion").write_text(
        "immersion bad { vars: s; components: (exp(s), exp(-s)); }",
        encoding="utf-8")
    res = run_cli("construct", "point", "bad.immersion",
                  "-o", "bad_point.immersion", cwd=workdir)
    assert res.returncode == 1
    assert res.stderr == b""
    _same_shape(_golden_json("construct_point_error.json"),
                json.loads(res.stdout))


def test_detect_matches_golden_report(workdir):
    golden = _golden_json("detect_pair.json")
    res = run_cli("detect", str(workdir / "pair.immersion"),
                  "--grid", "g27", "--seed", "42")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    payload["inputs"] = ["pair.immersion"]
    _same_shape(golden, payload)


def test_detect_quadric_reports_none_with_note(workdir):
    res = run_cli("detect", str(workdir / "quadric.immersion"),
                  "--grid", "g9")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["verdict"]["kind"] == "None"
    assert "K ≈ 0" in payload["verdict"]["note"]


def test_detect_perturbed_fails_sphere_gate(workdir):
    res = run_cli("detect", str(workdir / "perturbed.immersion"),
                  "--grid", "g16")
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload["verdict"]["kind"] == "None"
    sphere = next(r for r in payload["reports"] if r["name"] == "sphere")
    assert sphere["pass"] is False


def test_extract_writes_factor_files(workdir, tmp_path):
    out = tmp_path / "factors"
    res = run_cli("extract", str(workdir / "pair.immersion"),
                  "--grid", "g27", "-o", str(out))
    assert res.returncode == 0, res.stderr.decode()
    payload = json.loads(res.stdout)
    factors = payload["factors"]
    assert factors["kind"] == "pair"
    assert factors["subspace_dims"] == [2, 2]
    assert abs(factors["d1"] - 1.0) <= 1e-6
    assert abs(factors["d2"] - 1.0) <= 1e-6
    assert abs(factors["metric_ratio"] - 2.0) <= 1e-6
    assert factors["failed_residuals"] == []

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report == payload

    phi2_rows = (out / "phi2.csv").read_text(encoding="utf-8").splitlines()
    assert len(phi2_rows) == 27
    assert len(phi2_rows[0].split(",")) == 4

    for idx in (1, 2):
        fdef = dsl.parse_immersion(
            (out / f"factor{idx}.immersion").read_text(encoding="utf-8"))
        frame = blaschke.full_frame(fdef, (0.1,))
        assert frame.H == pytest.approx(-1.0, abs=1e-8)


def test_extract_refuses_non_product(workdir, tmp_path):
    res = run_cli("extract", str(workdir / "quadric.immersion"),
                  "--grid", "g9", "-o", str(tmp_path / "nothing"))
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload["verdict"]["kind"] == "None"
    assert "nothing to extract" in payload["error"]


def test_missing_file_is_usage_error(tmp_path):
    res = run_cli("detect", str(tmp_path / "absent.immersion"),
                  "--grid", "g9")
    assert res.returncode == 2
    assert b"error:" in res.stderr


def test_unknown_grid_is_usage_error(workdir):
    res = run_cli("check", str(workdir / "pair.immersion"),
                  "--grid", "g1000")
    assert res.returncode == 2
    assert b"unknown grid" in res.stderr


def test_wrong_factor_count_is_usage_error(workdir, tmp_path):
    res = run_cli("construct", "point",
                  str(workdir / "h2.immersion"), str(workdir / "h2b.immersion"),
                  "-o", str(tmp_path / "x.immersion"))
    assert res.returncode == 2
    assert b"exactly one factor" in res.stderr


def test_bad_subcommand_is_usage_error():
    res = run_cli("frobnicate")
    assert res.returncode == 2


def test_project_file_names_and_options(workdir, tmp_path):
    project = {
        "immersions": {"prod": str(workdir / "pair.immersion")},
        "grids": {"fine": [{"min": -0.2, "max": 0.2, "count": 2}] * 3},
        "options": {"seed": 7},
    }
    path = tmp_path / "project.json"
    path.write_text(json.dumps(project), encoding="utf-8")
    res = run_cli("detect", "prod", "--grid", "fine",
                  "--project", str(path))
    assert res.returncode == 0, res.stderr.decode()
    payload = json.loads(res.stdout)
    assert payload["inputs"] == ["prod"]
    assert payload["seed"] == 7
    assert payload["verdict"]["kind"] == "PairProduct"


_AXIS = {"min": 0, "max": 1, "count": 2}


@pytest.mark.parametrize("grid, project, csv", [
    ("bad.csv", None, "a,b,c\n"),
    ("inf.csv", None, "0.1,inf,0.2\n"),
    ("named", {"grids": {"named": [{**_AXIS, "count": 0}] * 3}}, None),
    ("named", {"grids": {"named": [{"min": 0, "max": 1}] * 3}}, None),
    ("named", {"grids": {"named": [{**_AXIS, "min": "x"}] * 3}}, None),
    ("g27", {"options": {"seed": "abc"}}, None),
    ("0:1:2,0:nan:2,0:1:2", None, None),
    ("g27", {"options": {"tolerances": {"sphere": math.nan}}}, None),
], ids=["csv_text", "csv_inf", "count_0", "no_count", "min_x", "seed_abc",
        "nan_axis", "tol_nan"])
def test_malformed_grid_or_option_is_usage_error(workdir, tmp_path, grid,
                                                 project, csv):
    args = ["check", str(workdir / "pair.immersion"), f"--grid={grid}"]
    if csv is not None:
        (tmp_path / grid).write_text(csv, encoding="utf-8")
    if project is not None:
        (tmp_path / "project.json").write_text(json.dumps(project),
                                               encoding="utf-8")
        args += ["--project", "project.json"]
    res = run_cli(*args, cwd=tmp_path)
    assert res.returncode == 2, res.stdout.decode()
    assert b"error:" in res.stderr
    assert b"Traceback" not in res.stderr


@pytest.mark.parametrize("component", ["exp(s)^1e999", "exp(s)*1e999"])
def test_non_finite_constant_is_usage_error(tmp_path, component):
    """A constant that reads as inf is refused on the way in: exit 2 with
    one error line, where the power raised an OverflowError traceback
    and the factor reported a degenerate tangent map."""
    path = tmp_path / "inf.immersion"
    path.write_text(f"immersion inf {{ vars: s; components: "
                    f"({component}, exp(-s)); }}\n", encoding="utf-8")
    res = run_cli("check", str(path), "--grid=-0.3:0.3:3")
    assert res.returncode == 2, res.stdout.decode()
    assert res.stdout == b""
    assert res.stderr.startswith(b"error: non-finite constant inf")
    assert b"Traceback" not in res.stderr


def _project(tmp_path, options: dict) -> str:
    path = tmp_path / "project.json"
    path.write_text(json.dumps({"options": options}), encoding="utf-8")
    return str(path)


def test_seed_flag_beats_project_file(workdir, tmp_path, capsys):
    quadric = str(workdir / "quadric.immersion")
    project = _project(tmp_path, {"seed": 7})
    for flags, seed in ((["--seed=3"], 3), (["--seed", "5"], 5),
                        ([], 7)):
        assert cli.main(["detect", quadric, "--grid", "g9",
                         "--project", project, *flags]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == seed
    assert cli.main(["detect", quadric, "--grid", "g9"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 42


def test_restarts_flag_beats_project_file(workdir, tmp_path, capsys,
                                          monkeypatch):
    seen = []
    real_detect = decompose.detect

    def spy(*args, **kwargs):
        seen.append(kwargs["restarts"])
        return real_detect(*args, **kwargs)

    monkeypatch.setattr(decompose, "detect", spy)
    quadric = str(workdir / "quadric.immersion")
    project = _project(tmp_path, {"restarts": 5})
    for flags in (["--restarts=9"], ["--restarts", "8"], []):
        cli.main(["detect", quadric, "--grid", "g9", "--project", project,
                  *flags])
    cli.main(["detect", quadric, "--grid", "g9"])
    capsys.readouterr()
    assert seen == [9, 8, 5, 32]


@pytest.mark.parametrize("argv, options", [
    (["detect", "--grid", "g27", "--seed", "-1"], None),
    (["analyze", "--seed=-3"], None),
    (["detect", "--grid", "g27", "--restarts=-2"], None),
    (["detect", "--grid", "g27"], {"seed": -1}),
    (["analyze"], {"restarts": -5}),
])
def test_a_negative_seed_or_restart_count_is_a_usage_error(
        workdir, tmp_path, capsys, argv, options):
    """A negative seed reached `numpy.random.default_rng`, which raised a
    ValueError traceback; a negative restart count searched from the
    basis vectors alone. Both are refused, from a flag or a project
    file, with one error line and exit code 2."""
    argv = argv[:1] + [str(workdir / "pair.immersion")] + argv[1:]
    if options is not None:
        argv += ["--project", _project(tmp_path, options)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, options", [
    (["detect", "--grid", "g27", "--tol", "detcet=1e-30"], None),
    (["check", "--grid", "g27", "--tol=spehre=1e-30"], None),
    (["extract", "--grid", "g27", "-o", "out", "--tol", "detect_=1"], None),
    (["check", "--grid", "g27"], {"tolerances": {"gauss_codazzi": 1e-3}}),
    (["analyze"], {"tolerances": {"axis": 1e-3}}),
], ids=["detect_flag", "check_flag", "extract_flag", "check_project",
        "analyze_project"])
def test_an_unknown_tolerance_name_is_a_usage_error(
        workdir, tmp_path, capsys, argv, options):
    """A tolerance name that no command reads, from a flag or a project
    file, is refused with one error line and exit code 2; it was ignored,
    and the command ran with its default tolerance and exit code 0."""
    argv = argv[:1] + [str(workdir / "pair.immersion")] + argv[1:]
    if options is not None:
        argv += ["--project", _project(tmp_path, options)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown tolerance ")
    assert captured.err.count("\n") == 1


def test_detect_refused_geometry_is_a_failed_verdict(tmp_path, capsys):
    saddle = tmp_path / "saddle.immersion"
    saddle.write_text(
        "immersion saddle { vars: u, v; components: (u, v, u*v); }\n",
        encoding="utf-8")
    assert cli.main(["detect", str(saddle), "--grid", "g9"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["reports"] == []
    assert payload["verdict"]["kind"] == "None"
    assert "not definite" in payload["verdict"]["note"]


def test_check_jet_domain_error_is_json_error(tmp_path):
    path = tmp_path / "lg.immersion"
    path.write_text(
        "immersion lg { vars: u, v; "
        "components: (u, v, log(u) + 3*u*u + v*v); }\n", encoding="utf-8")
    res = run_cli("check", str(path), "--grid", "g9")
    assert res.returncode == 1
    assert b"Traceback" not in res.stderr
    payload = json.loads(res.stdout)
    assert "log of nonpositive value" in payload["error"]


def test_check_note_prints_plain_floats(workdir, tmp_path, capsys):
    pair = dsl.parse_immersion(
        (workdir / "pair.immersion").read_text(encoding="utf-8"))
    path = tmp_path / "scaled.immersion"
    path.write_text(dsl.print_immersion(decompose._scaled_def(pair, 1.7))
                    + "\n", encoding="utf-8")
    assert cli.main(["check", str(path), "--grid", "g27"]) == 1
    payload = json.loads(capsys.readouterr().out)
    row = next(r for r in payload["reports"] if r["name"] == "unimodular")
    assert "(-0.3, -0.3, -0.3)" in row["note"]
    assert "np.float64" not in row["note"]


def test_detect_and_extract_rescale_off_gauge_input(workdir, tmp_path):
    """The pair product scaled by 1.7 is detected at scale 1/1.7 and
    extracted like the product at H = -1."""
    pair = dsl.parse_immersion(
        (workdir / "pair.immersion").read_text(encoding="utf-8"))
    path = tmp_path / "scaled.immersion"
    path.write_text(dsl.print_immersion(decompose._scaled_def(pair, 1.7))
                    + "\n", encoding="utf-8")
    res = run_cli("detect", str(path), "--grid", "g27")
    assert res.returncode == 0, res.stdout.decode()
    verdict = json.loads(res.stdout)["verdict"]
    assert verdict["kind"] == "PairProduct"
    assert verdict["scale"] == pytest.approx(1 / 1.7, rel=1e-12)

    out = tmp_path / "factors"
    res = run_cli("extract", str(path), "--grid", "g27", "-o", str(out))
    assert res.returncode == 0, res.stdout.decode()
    factors = json.loads(res.stdout)["factors"]
    assert factors["failed_residuals"] == []
    assert factors["metric_ratio"] == pytest.approx(2.0, abs=1e-12)
    for idx in (1, 2):
        assert (out / f"factor{idx}.immersion").is_file()


def test_file_with_several_definitions_is_usage_error(tmp_path, capsys):
    path = tmp_path / "two.immersion"
    path.write_text(HYPERBOLA_SRC + "\n" + HYPERBOLA_B_SRC + "\n",
                    encoding="utf-8")
    assert cli.main(["check", str(path), "--grid", "g9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "h2, h2b" in captured.err


def test_inline_grid_spec(workdir):
    res = run_cli("detect", str(workdir / "pair.immersion"),
                  "--grid=-0.2:0.2:2")
    assert res.returncode == 0
    assert json.loads(res.stdout)["verdict"]["kind"] == "PairProduct"


def test_analyze_summary(workdir):
    res = run_cli("analyze", str(workdir / "pair.immersion"),
                  "--at", "0.1,0.2,-0.15")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    summary = payload["summary"]
    assert summary["mean_curvature"] == pytest.approx(-1.0, abs=1e-9)
    assert summary["difference_tensor_max"] > 0.1
    assert summary["axis_pattern"] in ("point", "pair")
    assert len(summary["affine_normal"]) == 4
    assert math.isfinite(summary["axis_lambda1"])


def test_analyze_reports_the_axis_detect_prefers(workdir, capsys):
    """At every point of the pair product analyze classifies the axis of
    the pair structure, as detect does; choosing the smallest axis
    residual, all at rounding level, gave a point axis at some of them."""
    for u in make_grid(-0.3, 0.3, 3, 3):
        at = ",".join(repr(float(x)) for x in u)
        assert cli.main(["analyze", str(workdir / "pair.immersion"),
                         f"--at={at}"]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["axis_pattern"] == "pair", at
        assert summary["axis_lambda1"] == pytest.approx(0.0, abs=1e-9)


def test_analyze_flags_a_quadric(workdir):
    """The whole report, to the byte: the note comes from
    `decompose.is_quadric` and no axis is classified."""
    res = run_cli("analyze", "quadric.immersion", cwd=workdir)
    assert res.returncode == 0, res.stderr.decode()
    summary = {
        "name": "quadric", "variables": ["u1", "u2"], "point": [0.0, 0.0],
        "mean_curvature": -1.0, "metric": [[1.0, 0.0], [0.0, 1.0]],
        "affine_normal": [0.0, 0.0, 1.0], "position": [0.0, 0.0, 1.0],
        "difference_tensor_max": 0.0,
        "axis_note": "K ≈ 0: quadric, no canonical axis"}
    expected = {"command": "analyze", "inputs": ["quadric.immersion"],
                "seed": 42, "summary": summary}
    assert res.stdout.decode("utf-8") == json.dumps(
        expected, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("at", ["0,x,0", "nan,0,0", "inf,0,0"])
def test_non_numeric_or_non_finite_at_is_usage_error(workdir, at):
    res = run_cli("analyze", str(workdir / "pair.immersion"), f"--at={at}")
    assert res.returncode == 2, res.stdout.decode()
    assert b"error:" in res.stderr
    assert b"Traceback" not in res.stderr
