import json

import pytest

from helpers import grid_lambda
from uhs.cli import main
from uhs.constructions import star_g2, two_triangles_path
from uhs.core import load_hypergraph, serialize_hypergraph


@pytest.fixture()
def fixture_dir(tmp_path):
    d = tmp_path / "fx"
    assert main(["fixtures", "-o", str(d)]) == 0
    return d


def run_capture(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_fixtures_written(fixture_dir):
    names = sorted(p.name for p in fixture_dir.iterdir())
    assert names == [
        "grid_g1.uhg",
        "k_2_2.uhg",
        "k_3_3.uhg",
        "k_4_4.uhg",
        "star_g2.uhg",
        "two_triangles_path.uhg",
    ]
    G = load_hypergraph(fixture_dir / "star_g2.uhg")
    assert G == star_g2()


def test_solve_json_output(fixture_dir, capsys):
    code, out = run_capture(
        capsys, ["solve", str(fixture_dir / "grid_g1.uhg"), "--p", "6"]
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["lambda"] - grid_lambda(6.0)) <= 1e-8
    assert payload["converged"] is True
    assert len(payload["x"]) == 25


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("p", ["3", "4.5"])
def test_solve_json_bracket(fixture_dir, capsys, p):
    code, out = run_capture(capsys, ["solve", str(fixture_dir / "star_g2.uhg"), "--p", p])
    assert code == 0
    payload = _strict_json(out)
    assert payload["lambda_lo"] == payload["lambda"] <= payload["lambda_hi"]
    assert payload["lambda_hi"] - payload["lambda"] <= 1e-7 * payload["lambda"]


def test_solve_json_bracket_below_r_is_null(fixture_dir, capsys):
    code, out = run_capture(capsys, ["solve", str(fixture_dir / "star_g2.uhg"), "--p", "2"])
    assert code == 0
    payload = _strict_json(out)
    assert payload["lambda_lo"] == payload["lambda"] and payload["lambda_hi"] is None


def test_solve_text_output(fixture_dir, capsys):
    code, out = run_capture(
        capsys,
        ["solve", str(fixture_dir / "k_3_3.uhg"), "--p", "4.5", "--format", "text"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("lambda")
    assert lines[1].startswith("bracket    [")


def test_solve_sub_r(fixture_dir, capsys):
    code, out = run_capture(
        capsys, ["solve", str(fixture_dir / "two_triangles_path.uhg"), "--p", "1"]
    )
    assert code == 0
    assert abs(json.loads(out)["lambda"] - 2.0 / 3.0) <= 1e-9


def test_solve_output_bytes_stable(fixture_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert (
            main(["solve", str(fixture_dir / "star_g2.uhg"), "--p", "5", "-o", str(path)])
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


def test_solve_emit_cert_then_verify(fixture_dir, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code = main(
        [
            "solve",
            str(fixture_dir / "star_g2.uhg"),
            "--p",
            "5",
            "--emit-cert",
            str(cert),
            "-o",
            str(tmp_path / "out.json"),
        ]
    )
    assert code == 0 and cert.exists()
    code, out = run_capture(
        capsys,
        ["verify", str(fixture_dir / "star_g2.uhg"), "--cert", str(cert), "--tol", "1e-7"],
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["class"] == "normal" and verdict["consistent"] is True


def test_solve_emit_cert_then_verify_at_p_equals_r(fixture_dir, tmp_path, capsys):
    # at p = r the edge condition is Lu-Man's prod B(v,e) = alpha
    cert = tmp_path / "cert.json"
    star = str(fixture_dir / "star_g2.uhg")
    argv = ["solve", star, "--p", "3", "--emit-cert", str(cert), "-o", str(tmp_path / "out.json")]
    assert main(argv) == 0
    code, out = run_capture(capsys, ["verify", star, "--cert", str(cert)])
    assert code == 0
    verdict = json.loads(out)
    assert verdict["class"] == "normal" and verdict["consistent"] is True


def test_verify_uses_the_given_p(fixture_dir, tmp_path, capsys):
    # a p = 4 certificate is not a normal labeling at p = 6
    cert = tmp_path / "cert.json"
    star = str(fixture_dir / "star_g2.uhg")
    argv = ["solve", star, "--p", "4", "--emit-cert", str(cert), "-o", str(tmp_path / "out.json")]
    assert main(argv) == 0
    code, out = run_capture(capsys, ["verify", star, "--cert", str(cert)])
    assert code == 0 and json.loads(out)["class"] == "normal"
    code, out = run_capture(capsys, ["verify", star, "--cert", str(cert), "--p", "6"])
    assert code == 0 and json.loads(out)["class"] != "normal"


def test_verify_sub_r_routing(fixture_dir, tmp_path, capsys):
    import numpy as np

    from uhs.core import degrees
    from uhs.labeling import Labeling

    G = two_triangles_path()
    d = degrees(G).degrees.astype(float)
    B = 1.0 / d[G.edges_array]
    alpha = float(G.m * B.prod(axis=1).min())
    cert = tmp_path / "cert.json"
    cert.write_text(
        Labeling(B=B, w=np.full(G.m, 1.0 / G.m), p=1.0, alpha=alpha).to_json()
    )
    code, out = run_capture(
        capsys,
        ["verify", str(fixture_dir / "two_triangles_path.uhg"), "--cert", str(cert)],
    )
    assert code == 0
    assert json.loads(out)["class"] == "subnormal"


def test_bound_command(fixture_dir, capsys):
    code, out = run_capture(capsys, ["bound", str(fixture_dir / "grid_g1.uhg"), "--p", "6"])
    assert code == 0
    payload = json.loads(out)
    assert payload["degree_bound"] >= grid_lambda(6.0) - 1e-10
    assert payload["simple_degree_bound"] >= grid_lambda(6.0) - 1e-10


def test_construct_join(fixture_dir, tmp_path, capsys):
    out_path = tmp_path / "join.uhg"
    code = main(
        [
            "construct",
            str(fixture_dir / "k_2_2.uhg"),
            str(fixture_dir / "k_3_3.uhg"),
            "--op",
            "join",
            "-o",
            str(out_path),
        ]
    )
    assert code == 0
    G = load_hypergraph(out_path)
    assert (G.r, G.n, G.m) == (5, 5, 1)


def test_construct_power(fixture_dir, capsys):
    code, out = run_capture(
        capsys,
        ["construct", str(fixture_dir / "star_g2.uhg"), "--op", "power"],
    )
    assert code == 0
    assert out.startswith("4 12\n")


def test_construct_extend(fixture_dir, tmp_path):
    prefix = tmp_path / "ext"
    code = main(
        [
            "construct",
            str(fixture_dir / "star_g2.uhg"),
            "--op",
            "extend",
            "-o",
            str(prefix),
        ]
    )
    assert code == 0
    files = sorted(tmp_path.glob("ext-*.uhg"))
    assert len(files) == 15
    assert all(load_hypergraph(f).r == 4 for f in files)


def test_construct_argument_errors(fixture_dir, capsys):
    assert main(["construct", str(fixture_dir / "k_2_2.uhg"), "--op", "join"]) == 2
    assert (
        main(["construct", str(fixture_dir / "star_g2.uhg"), "--op", "extend"]) == 2
    )


def test_sweep_csv(fixture_dir, capsys):
    code, out = run_capture(
        capsys,
        [
            "sweep",
            str(fixture_dir / "star_g2.uhg"),
            "--grid",
            "3.5,4,5",
            "--format",
            "csv",
        ],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,lambda,f,g,h,ratio" and len(lines) == 4


def test_sweep_json_checks(fixture_dir, capsys):
    code, out = run_capture(
        capsys,
        ["sweep", str(fixture_dir / "star_g2.uhg"), "--grid", "3.5,4,4.5,5"],
    )
    assert code == 0
    payload = json.loads(out)
    assert all(check["passed"] for check in payload["checks"])
    assert len(payload["curve"]["lambda"]) == 4


def test_certify_sub_r(fixture_dir, capsys):
    code, out = run_capture(
        capsys,
        ["certify-sub-r", str(fixture_dir / "two_triangles_path.uhg"), "--p", "1"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["S"] == [0, 1, 2]
    assert abs(payload["lambda"] - 2.0 / 3.0) <= 1e-9
    assert payload["exhaustive"] is True


def test_missing_file_exits_2(capsys):
    assert main(["solve", "/nonexistent/input.uhg", "--p", "5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.uhg"
    bad.write_text("3 3\n0 1\n")
    assert main(["solve", str(bad), "--p", "5"]) == 2


def test_invalid_p_exits_2(fixture_dir, capsys):
    assert main(["solve", str(fixture_dir / "k_2_2.uhg"), "--p", "0.5"]) == 2


@pytest.mark.parametrize("flags", [["--max-iter", "0"], ["--restarts", "-1"]])
def test_invalid_solver_flags_exit_2(fixture_dir, capsys, flags):
    code, out = run_capture(capsys, ["solve", str(fixture_dir / "k_2_2.uhg"), "--p", "3", *flags])
    assert code == 2 and out == ""


def test_atomic_write_round_trips_hypergraph(fixture_dir):
    text = (fixture_dir / "grid_g1.uhg").read_text()
    G = load_hypergraph(fixture_dir / "grid_g1.uhg")
    assert serialize_hypergraph(G) == text
