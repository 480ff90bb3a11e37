"""End-to-end tests of the command line: exit codes, report formats,
emission round trips and determinism."""

import json
import shutil
import subprocess
import sys

import pytest

from ahomotopy import (
    Graph,
    GridMap,
    HomotopyCertificate,
    bounded_homotopy_search,
    build_loop_graph,
    cartesian_product,
    cycle_graph,
    complete_graph,
    loop_to_grid,
    loop_token_graph,
    unfold_loop_grid,
    parse_grid_json,
)
from ahomotopy.cli import main, run

C4 = cycle_graph(4).with_base("0")
C5 = cycle_graph(5).with_base("0")
K2 = complete_graph(2).with_base("0")


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def graph_file(tmp_path, name, g):
    return write(tmp_path, name, g.to_json())


def renamed_torus():
    """C5 x C5 with comma-free vertex names like 3.1, based at 0.0."""
    t = cartesian_product(C5, C5)
    name = {v: v.strip("()").replace(",", ".") for v in t.vertices}
    return Graph(
        [name[v] for v in t.vertices],
        [(name[a], name[b]) for a, b in t.edges],
        base=name[t.base],
    )


def cli(tmp_path_argv, capsys):
    code = main(tmp_path_argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_command(capsys):
    code, out, err = cli([], capsys)
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_unknown_command(capsys):
    code, out, err = cli(["frobnicate"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_product_emits_graph_json(tmp_path, capsys):
    c3 = cycle_graph(3)
    left = graph_file(tmp_path, "c3.json", c3)
    right = graph_file(tmp_path, "k2.json", K2)
    code, out, err = cli(["product", left, right], capsys)
    assert code == 0 and err == ""
    assert out == cartesian_product(c3, K2).to_json()
    back = Graph.from_json(out)
    assert len(back.vertices) == 6
    assert len(back.edges) == 3 * 1 + 2 * 3


def test_a1_summary_line(tmp_path, capsys):
    path = graph_file(tmp_path, "c5.json", C5)
    code, out, err = cli(["a1", path], capsys)
    assert code == 0
    assert out == "generators=1 relators=0\n"


def test_a1_abelianize_line(tmp_path, capsys):
    path = graph_file(tmp_path, "c5.json", C5)
    code, out, err = cli(["a1", path, "--abelianize"], capsys)
    assert code == 0
    assert out == "free_rank=1 torsion=[]\n"


def test_a1_presentation_and_word(tmp_path, capsys):
    path = graph_file(tmp_path, "c5.json", C5)
    code, out, err = cli(
        ["a1", path, "--presentation", "--loop", "0,1,2,3,4,0"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "generators: x1"
    assert lines[-1] in ("word=x1", "word=x1^-1")
    # the reverse winding reads as the inverse word
    code2, out2, err2 = cli(["a1", path, "--loop", "0,4,3,2,1,0"], capsys)
    assert code2 == 0
    word = lines[-1].split("=")[1]
    back = out2.strip().split("=")[1]
    assert {word, back} == {"x1", "x1^-1"}


def test_a1_json_payload(tmp_path, capsys):
    path = graph_file(tmp_path, "c5.json", C5)
    code, out, err = cli(["a1", path, "--abelianize", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["generators"] == ["x1"]
    assert payload["relators"] == []
    assert payload["free_rank"] == 1
    assert payload["torsion"] == []


def test_a1_base_override(tmp_path, capsys):
    path = graph_file(tmp_path, "c5free.json", cycle_graph(5, base=None))
    code, out, err = cli(["a1", path, "--abelianize", "--base", "2"], capsys)
    assert code == 0
    assert "free_rank=1" in out
    # no base at all is an error
    code, out, err = cli(["a1", path], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_gamma_q_emission(tmp_path, capsys):
    facets = write(tmp_path, "ring.txt", "# a 5-ring\n0 1 2\n1 2 3\n2 3 4\n3 4 0\n4 0 1\n")
    code, out, err = cli(["gamma-q", facets, "-q", "1"], capsys)
    assert code == 0
    g = Graph.from_json(out)
    assert len(g.vertices) == 5
    assert len(g.edges) == 5
    assert all(g.degree(v) == 2 for v in g.vertices)


def test_gamma_q_sigma0_and_mode(tmp_path, capsys):
    facets = write(tmp_path, "ring.txt", "0 1 2\n1 2 3\n2 3 4\n3 4 0\n4 0 1\n")
    code, out, err = cli(
        ["gamma-q", facets, "-q", "1", "--mode", "all", "--sigma0", "1,2"], capsys
    )
    assert code == 0
    g = Graph.from_json(out)
    assert g.base == "1-2"
    # a non-face base is rejected
    code, out, err = cli(["gamma-q", facets, "-q", "1", "--sigma0", "0,1,3"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_fvec_line(tmp_path, capsys):
    path = graph_file(tmp_path, "k2.json", K2)
    code, out, err = cli(["fvec", path, "--max-dim", "2"], capsys)
    assert code == 0
    assert out == "f_vector: (2, 2, 10)\n"


def test_fvec_json(tmp_path, capsys):
    path = graph_file(tmp_path, "c5.json", C5)
    code, out, err = cli(["fvec", path, "--max-dim", "2", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["f_vector"] == [5, 10, 70]


def test_loop_graph_report(tmp_path, capsys):
    path = graph_file(tmp_path, "c5.json", C5)
    omega = build_loop_graph(C5, m_max=4)
    code, out, err = cli(
        ["loop-graph", path, "--max-len", "4", "--components"], capsys
    )
    assert code == 0
    assert out == (
        "m_max=4\n"
        f"vertices={len(omega.vertices)}\n"
        f"edges={len(omega.edges)}\n"
        "components=1\n"
        "component=1 size=19 base=yes\n"
    )


def test_loop_graph_winding_components(tmp_path, capsys):
    path = graph_file(tmp_path, "c5.json", C5)
    code, out, err = cli(
        ["loop-graph", path, "--max-len", "5", "--components", "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["components"]) == 3
    assert "0" in payload["components"][0]


def test_loop_graph_no_collapse(tmp_path, capsys):
    path = graph_file(tmp_path, "k2.json", K2)
    code, out, err = cli(["loop-graph", path, "--max-len", "2", "--no-collapse"], capsys)
    assert code == 0
    # (0), (0,0), (0,0,0), (0,1,0): padding classes kept apart
    assert "vertices=4" in out


def test_homotopy_equal(tmp_path, capsys):
    path = graph_file(tmp_path, "c4.json", C4)
    code, out, err = cli(
        ["homotopy", path, "--loop", "0,1,2,3,0", "--loop", "0"], capsys
    )
    assert code == 0
    assert out == "result=equal method=words\n"


def test_homotopy_distinct(tmp_path, capsys):
    path = graph_file(tmp_path, "c5.json", C5)
    code, out, err = cli(
        ["homotopy", path, "--loop", "0,1,2,3,4,0", "--loop", "0"], capsys
    )
    assert code == 10
    assert out == "result=distinct method=abelianization\n"


def test_homotopy_unknown(tmp_path, capsys):
    # on the torus the loop group is Z^2, so commuted windings are equal
    torus = renamed_torus()
    path = graph_file(tmp_path, "torus.json", torus)
    xy = "0.0,1.0,2.0,3.0,4.0,0.0,0.1,0.2,0.3,0.4,0.0"
    yx = "0.0,0.1,0.2,0.3,0.4,0.0,1.0,2.0,3.0,4.0,0.0"
    argv = ["--loop", xy, "--loop", yx, "--box", "12", "--max-layers", "1"]
    code, out, err = cli(["homotopy", path, *argv], capsys)
    assert code == 0
    assert out == "result=equal method=abelian\n"
    # a 5-cycle wedged at the base adds a free factor: not abelian, and
    # one layer of deformation is not enough
    ring = ["0.0", "w1", "w2", "w3", "w4"]
    wedged = Graph(
        list(torus.vertices) + ring[1:],
        list(torus.edges) + [(ring[k], ring[(k + 1) % 5]) for k in range(5)],
        base="0.0",
    )
    path = graph_file(tmp_path, "wedged.json", wedged)
    code, out, err = cli(["homotopy", path, *argv], capsys)
    assert code == 11
    assert out == "result=unknown\n"


def test_homotopy_json_payload(tmp_path, capsys):
    path = graph_file(tmp_path, "c4.json", C4)
    code, out, err = cli(
        ["homotopy", path, "--loop", "0,1,2,3,0", "--loop", "0", "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["result"] == "equal"
    assert payload["method"] == "words"
    # the word comparison needs no deformation certificate
    assert "certificate" not in payload


def test_homotopy_loop_count_checked(tmp_path, capsys):
    path = graph_file(tmp_path, "c4.json", C4)
    code, out, err = cli(["homotopy", path, "--loop", "0,1,0"], capsys)
    assert code == 1
    assert "exactly two" in err


def test_homotopy_bad_box(tmp_path, capsys):
    path = graph_file(tmp_path, "c4.json", C4)
    code, out, err = cli(
        ["homotopy", path, "--loop", "0", "--loop", "0", "--box", "7y4"], capsys
    )
    assert code == 1
    assert "bad --box" in err


def test_homotopy_box_shapes(tmp_path, capsys):
    path = graph_file(tmp_path, "c4.json", C4)
    for box in ("7", "7x4"):
        code, out, err = cli(
            ["homotopy", path, "--loop", "0,1,2,3,0", "--loop", "0", "--box", box],
            capsys,
        )
        assert code == 0


def test_verify_cert_valid(tmp_path, capsys):
    f = loop_to_grid(C4, ["0", "1", "2", "3", "0"])
    e = GridMap(C4, 1, "0")
    cert = bounded_homotopy_search(f, e, box=5, max_layers=4)
    assert cert is not None
    gp = graph_file(tmp_path, "c4.json", C4)
    fp = write(tmp_path, "f.json", f.to_json())
    ep = write(tmp_path, "g.json", e.to_json())
    hp = write(tmp_path, "h.json", cert.h().to_json())
    code, out, err = cli(["verify-cert", gp, fp, ep, hp], capsys)
    assert code == 0
    assert out == f"certificate=valid layers={cert.steps}\n"


def test_verify_cert_invalid(tmp_path, capsys):
    f = loop_to_grid(C4, ["0", "1", "2", "3", "0"])
    e = GridMap(C4, 1, "0")
    # a jump straight from the square to the constant map is too far
    bad = HomotopyCertificate(f, e, layers=[f, e])
    gp = graph_file(tmp_path, "c4.json", C4)
    fp = write(tmp_path, "f.json", f.to_json())
    ep = write(tmp_path, "g.json", e.to_json())
    hp = write(tmp_path, "h.json", bad.h().to_json())
    code, out, err = cli(["verify-cert", gp, fp, ep, hp], capsys)
    assert code == 1
    assert "certificate invalid" in err


def test_alpha_unfolds(tmp_path, capsys):
    gp = graph_file(tmp_path, "c4.json", C4)
    support = {"0": "0,0,3,3,0", "1": "0,1,2,3,0", "2": "0,0,3,3,0"}
    mp = write(
        tmp_path,
        "loops.json",
        json.dumps({"dim": 1, "base": "0", "support": support}),
    )
    code, out, err = cli(["alpha", gp, mp], capsys)
    assert code == 0
    omega = loop_token_graph(C4, "0", sorted(set(support.values())))
    f = GridMap(omega, 1, "0", {(int(k),): v for k, v in support.items()})
    assert out == unfold_loop_grid(f, C4).to_json()
    dim, base, _ = parse_grid_json(out)
    assert dim == 2 and base == "0"


def test_alpha_rejects_bad_loops(tmp_path, capsys):
    gp = graph_file(tmp_path, "c4.json", C4)
    mp = write(
        tmp_path,
        "loops.json",
        json.dumps({"dim": 1, "base": "0", "support": {"0": "0,9,0"}}),
    )
    code, out, err = cli(["alpha", gp, mp], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_missing_file(tmp_path, capsys):
    code, out, err = cli(["a1", str(tmp_path / "nosuch.json")], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_graph_parse_diagnostics(tmp_path, capsys):
    path = write(tmp_path, "bad.json", '{\n"vertices": [,]\n}\n')
    code, out, err = cli(["a1", path], capsys)
    assert code == 1
    assert "bad.json:2:" in err


def test_facet_parse_diagnostics(tmp_path, capsys):
    path = write(tmp_path, "facets.txt", "0 1\n1 1\n")
    code, out, err = cli(["gamma-q", path, "-q", "0"], capsys)
    assert code == 1
    assert "facets.txt:2" in err
    assert "repeated vertex" in err


def test_seed_flag_accepted(tmp_path, capsys):
    path = graph_file(tmp_path, "k2.json", K2)
    code, out, err = cli(["--seed", "3", "fvec", path, "--max-dim", "1"], capsys)
    assert code == 0
    assert out == "f_vector: (2, 2)\n"


def test_run_returns_result_objects(tmp_path):
    path = graph_file(tmp_path, "c5.json", C5)
    res = run(["a1", path, "--abelianize"])
    assert res.status == "ok"
    assert res.exit_code == 0
    assert res.payload["free_rank"] == 1
    res = run(["homotopy", path, "--loop", "0,1,2,3,4,0", "--loop", "0"])
    assert res.status == "distinct"
    assert res.exit_code == 10


def script_argv():
    exe = shutil.which("ahomotopy")
    if exe:
        return [exe]
    return [sys.executable, "-m", "ahomotopy.cli"]


def test_console_script_byte_identical(tmp_path):
    left = graph_file(tmp_path, "c3.json", cycle_graph(3))
    right = graph_file(tmp_path, "k2.json", K2)
    argv = script_argv() + ["product", left, right]
    first = subprocess.run(argv, capture_output=True, timeout=60)
    second = subprocess.run(argv, capture_output=True, timeout=60)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.decode().startswith("{")


def test_console_script_exit_codes(tmp_path):
    path = graph_file(tmp_path, "c5.json", C5)
    argv = script_argv() + [
        "homotopy", path, "--loop", "0,1,2,3,4,0", "--loop", "0",
    ]
    proc = subprocess.run(argv, capture_output=True, timeout=60)
    assert proc.returncode == 10
    assert proc.stdout.decode() == "result=distinct method=abelianization\n"
