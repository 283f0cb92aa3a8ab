import json
from itertools import combinations

import numpy as np
import pytest

from helpers import grid_lambda, random_connected
from uhs.cli import _solver_options, build_parser, main
from uhs.constructions import star_g2, two_triangles_path
from uhs.core import UniformHypergraph, load_hypergraph, serialize_hypergraph
from uhs.labeling import DEFAULT_TOL
from uhs.solver import SolverOptions, solve_p_spectral, solver_certificate


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
    assert a.read_bytes() == b.read_bytes() and b"\n" not in a.read_bytes()


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


def test_emit_cert_round_trips_bit_for_bit(tmp_path, capsys):
    G = random_connected(np.random.default_rng(8), 3, 60, extra=1970)
    assert 1900 <= G.m <= 2100
    graph, cert, out = tmp_path / "g.uhg", tmp_path / "cert.json", tmp_path / "out.json"
    graph.write_text(serialize_hypergraph(G))
    assert main(["solve", str(graph), "--p", "4", "--emit-cert", str(cert), "-o", str(out)]) == 0
    text = cert.read_text()
    payload = _strict_json(text)
    assert "\n" not in text and list(payload) == ["B", "alpha", "p", "w"]
    expect = solver_certificate(G, solve_p_spectral(G, 4.0))
    assert np.array_equal(np.array(payload["B"]), expect.B)
    assert np.array_equal(np.array(payload["w"]), expect.w)
    assert payload["alpha"] == expect.alpha and payload["p"] == expect.p
    code, out = run_capture(capsys, ["verify", str(graph), "--cert", str(cert)])
    assert code == 0
    verdict = json.loads(out)
    assert verdict["class"] == "normal" and verdict["consistent"] is True


def test_solve_emit_cert_on_a_proper_support_exits_2(fixture_dir, tmp_path, capsys):
    # at p = 1.5 the star's maximizer lives on S = {0, 1, 2, 3}: G[S], not G, has a certificate
    cert, out = tmp_path / "cert.json", tmp_path / "out.json"
    argv = ["solve", str(fixture_dir / "star_g2.uhg"), "--p", "1.5", "--emit-cert", str(cert)]
    assert main(argv + ["-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "S = [0, 1, 2, 3]" in err and "uhs certify-sub-r" in err
    assert not cert.exists() and not out.exists()


def test_solve_emit_cert_below_r_on_full_support(tmp_path, capsys):
    graph, cert, out = tmp_path / "k5.uhg", tmp_path / "cert.json", tmp_path / "out.json"
    graph.write_text(serialize_hypergraph(UniformHypergraph.from_edges(3, 5, combinations(range(5), 3))))
    assert main(["solve", str(graph), "--p", "2", "--emit-cert", str(cert), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["support"] == [0, 1, 2, 3, 4]
    code, text = run_capture(capsys, ["verify", str(graph), "--cert", str(cert)])
    assert code == 0 and json.loads(text)["class"] == "subnormal"


@pytest.mark.parametrize(
    "text",
    [
        '{"B": [[NaN, 1], [0.5, 1]], "w": [0.5, Infinity], "p": 3, "alpha": NaN}',
        '{"p": 3.0, "w": [0.5, 0.5]}',
        "[1, 2]",
    ],
    ids=["non-finite", "missing-key", "not-an-object"],
)
def test_verify_malformed_certificate_exits_2(tmp_path, capsys, text):
    graph, cert = tmp_path / "p3.uhg", tmp_path / "c.json"
    graph.write_text("2 3\n0 1\n1 2\n")
    cert.write_text(text)
    code = main(["verify", str(graph), "--cert", str(cert)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err.startswith("error: ")


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


def test_sweep_below_r_writes_strict_json(fixture_dir, capsys):
    # f is undefined for p < r: null, not a bare NaN token
    code, out = run_capture(
        capsys, ["sweep", str(fixture_dir / "two_triangles_path.uhg"), "--grid", "1,1.25,1.5"]
    )
    assert code == 0
    payload = _strict_json(out)
    assert payload["curve"]["f"] == [None] * 3 and payload["curve"]["g"] == [None] * 3
    assert payload["checks"][0]["details"] == {"g": "N/A (p < r)"}


def test_parser_defaults_are_the_library_defaults():
    for argv in (
        ["solve", "g.uhg", "--p", "2"],
        ["sweep", "g.uhg", "--grid", "2"],
        ["certify-sub-r", "g.uhg", "--p", "1"],
    ):
        args = build_parser().parse_args(argv)
        assert _solver_options(args) == SolverOptions()
    assert build_parser().parse_args(["verify", "g.uhg", "--cert", "c"]).tol == DEFAULT_TOL


def test_certify_sub_r(fixture_dir, capsys):
    code, out = run_capture(
        capsys,
        ["certify-sub-r", str(fixture_dir / "two_triangles_path.uhg"), "--p", "1"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["S"] == [0, 1, 2]
    assert abs(payload["lambda"] - 2.0 / 3.0) <= 1e-9
    # the largest clique of the graph is a triangle: Motzkin-Straus 1 - 1/3
    assert abs(payload["lambda_hi"] - 2.0 / 3.0) <= 1e-15
    assert payload["exhaustive"] is True
    # the second triangle's supports cannot beat 2/3, so the bound skips them
    assert payload["tried"] >= 1 and payload["pruned"] > 0


def test_certify_sub_r_beyond_the_subgraph_limit(tmp_path, capsys):
    # n = 60: the search shrinks the solve's support to a positive one
    graph = tmp_path / "g.uhg"
    graph.write_text(serialize_hypergraph(random_connected(np.random.default_rng(1), 2, 60, 200)))
    code, out = run_capture(capsys, ["certify-sub-r", str(graph), "--p", "1"])
    assert code == 0
    payload = _strict_json(out)
    assert payload["exhaustive"] is False and payload["lambda_hi"] is None
    assert abs(payload["lambda"] - 0.75) <= 1e-9


def test_missing_file_exits_2(capsys):
    assert main(["solve", "/nonexistent/input.uhg", "--p", "5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.uhg"
    bad.write_text("3 3\n0 1\n")
    assert main(["solve", str(bad), "--p", "5"]) == 2


def test_invalid_p_exits_2(fixture_dir, tmp_path, capsys):
    assert main(["solve", str(fixture_dir / "k_2_2.uhg"), "--p", "0.5"]) == 2
    star = str(fixture_dir / "star_g2.uhg")
    cert = tmp_path / "cert.json"
    argv = ["solve", star, "--p", "4", "--emit-cert", str(cert), "-o", str(tmp_path / "out.json")]
    assert main(argv) == 0
    for p in ("0.5", "-1"):
        code, out = run_capture(capsys, ["verify", star, "--cert", str(cert), "--p", p])
        assert code == 2 and out == ""


@pytest.mark.parametrize(
    "flags",
    [["--max-iter", "0"], ["--restarts", "-1"], ["--tol", "nan"], ["--tol", "inf"]],
)
def test_invalid_solver_flags_exit_2(fixture_dir, capsys, flags):
    code, out = run_capture(capsys, ["solve", str(fixture_dir / "k_2_2.uhg"), "--p", "3", *flags])
    assert code == 2 and out == ""


@pytest.mark.parametrize("tol", ["nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [["sweep", "--grid", "3,4"], ["certify-sub-r", "--p", "1.5"]],
)
def test_non_finite_tol_exits_2(fixture_dir, capsys, argv, tol):
    graph = str(fixture_dir / "two_triangles_path.uhg")
    code, out = run_capture(capsys, [argv[0], graph, *argv[1:], "--tol", tol])
    assert code == 2 and out == ""


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_verify_rejects_a_tol_that_is_not_finite_and_positive(fixture_dir, tmp_path, capsys, tol):
    grid = str(fixture_dir / "grid_g1.uhg")
    cert = tmp_path / "cert.json"
    argv = ["solve", grid, "--p", "3", "--emit-cert", str(cert), "-o", str(tmp_path / "out.json")]
    main(argv)
    assert cert.exists()
    code, out = run_capture(capsys, ["verify", grid, "--cert", str(cert), "--tol", tol])
    assert code == 2 and out == ""


def test_atomic_write_round_trips_hypergraph(fixture_dir):
    text = (fixture_dir / "grid_g1.uhg").read_text()
    G = load_hypergraph(fixture_dir / "grid_g1.uhg")
    assert serialize_hypergraph(G) == text
