import json
import os
import subprocess
import sys

import pytest

jsonschema = pytest.importorskip("jsonschema")

from modp_hecke import affine_weyl as aw
from modp_hecke import hecke
from modp_hecke import satake as sat
from modp_hecke.cli import EXIT_PARSE, main
from modp_hecke.root_datum import preset

SCHEMA_DIR = os.path.join(os.path.dirname(aw.__file__), "schemas")


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "modp_hecke.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def load_schema(name):
    with open(os.path.join(SCHEMA_DIR, name)) as fh:
        return json.load(fh)


def test_the_import_loads_no_heavy_standard_module():
    # Every fresh CLI process pays for what the import loads, and the library's
    # exact arithmetic needs integers alone.  A subprocess, since pytest itself
    # loads these modules; -S keeps site customisations out.
    heavy = ("dataclasses", "fractions", "decimal", "inspect", "typing")
    src = os.path.dirname(os.path.dirname(aw.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, modp_hecke, modp_hecke.cli; "
         f"print([m for m in {heavy!r} if m in sys.modules])"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_a_datum_file_is_closed(tmp_path):
    # -X dev shows ResourceWarning, which a datum file left open prints on stderr.
    path = tmp_path / "a1.json"
    path.write_text('{"type": "A1", "rank": 1, "lattice_basis": [[2]]}')
    proc = subprocess.run([sys.executable, "-X", "dev", "-m", "modp_hecke.cli", "weyl",
                           "length", str(path), "--elt", "s0"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


def test_weyl_demazure():
    code, out, _ = run_cli("weyl", "demazure", "A1", "--word", "0,1,1")
    assert code == 0
    assert out.strip() == "s0*s1"


def test_weyl_length():
    code, out, _ = run_cli("weyl", "length", "A1:sc", "--elt", "t[1]")
    assert code == 0
    assert out.strip() == "2"


def test_weyl_leq():
    code, out, _ = run_cli("weyl", "leq", "A1", "--u", "s0", "--w", "s0,1")
    assert code == 0
    assert out.strip() == "true"


def test_weyl_reduce_json():
    code, out, _ = run_cli("weyl", "reduce", "A1:ad", "--elt", "t[-1]", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["word"] == [1]
    assert doc["omega"] != "e"


def test_parse_error_exit_code():
    code, _, err = run_cli("weyl", "length", "A1", "--elt", "x[nope]")
    assert code == 2
    assert "error" in err


def test_hecke_multiply_special():
    code, out, _ = run_cli("hecke", "multiply", "A1", "--facet", "1", "--p", "3",
                           "--w1", "t[-1]", "--w2", "t[-1]", "--witness", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["terms"] == [{"rep": "t[-2]", "coeff": 1}]
    jsonschema.validate(doc["result"], load_schema("hecke_element.schema.json"))
    jsonschema.validate(doc["witness"], load_schema("convolution_witness.schema.json"))


def test_hecke_multiply_replays_its_witness(monkeypatch, capsys):
    # A wrong fold is a failed self-check: exit 1, nothing printed on stdout.
    real = hecke.demazure_decomposition

    def wrong_fold(a, b):
        tau_a, word_a, word_b, folded, tau_b = real(a, b)
        return tau_a, word_a, word_b, folded * aw.simple_system(a.datum).simple(0), tau_b

    monkeypatch.setattr(hecke, "demazure_decomposition", wrong_fold)
    code = main(["hecke", "multiply", "A2:ad", "--facet", "1,2", "--p", "3",
                 "--w1", "t[-2,0]", "--w2", "t[-1,0]", "--witness", "--json"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: witness fold gives") and "Traceback" not in err


def test_hecke_pointcount():
    code, out, _ = run_cli("hecke", "pointcount", "A1", "--facet", "", "--w", "s0")
    assert code == 0
    assert out.strip() == "1 + q"


def test_hecke_basis():
    code, out, _ = run_cli("hecke", "basis", "A1", "--facet", "", "--p", "2",
                           "--w", "e", "--to", "indicator", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == "indicator"
    assert doc["terms"] == [{"rep": "e", "coeff": 1}]
    jsonschema.validate(doc, load_schema("hecke_element.schema.json"))


def test_satake_special():
    code, out, _ = run_cli("satake", "A1", "--facet", "1", "--levi", "",
                           "--p", "2", "--w", "t[-1]", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["has_levi_point"] is True
    assert doc["image"] == [{"rep": "t[-1]", "coeff": 1}]
    jsonschema.validate(doc, load_schema("satake_result.schema.json"))


def test_satake_fast_path_matches_general():
    code1, out1, _ = run_cli("satake", "A1", "--facet", "1", "--levi", "",
                             "--p", "2", "--w", "t[-2]", "--json")
    code2, out2, _ = run_cli("satake", "A1", "--facet", "1", "--levi", "",
                             "--p", "2", "--w", "t[-2]", "--special", "--json")
    assert code1 == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    assert d1["closed_component"] == d2["closed_component"]
    assert [t["coeff"] for t in d1["image"]] == [t["coeff"] for t in d2["image"]]


def test_satake_zero_image():
    code, out, _ = run_cli("satake", "A1", "--facet", "", "--levi", "",
                           "--p", "2", "--w", "s1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["has_levi_point"] is False
    assert doc["image"] == []


def test_satake_special_flag_precondition():
    code, _, err = run_cli("satake", "A1", "--facet", "", "--levi", "",
                           "--p", "2", "--w", "s1", "--special")
    assert code == 4
    assert "special" in err


def test_satake_lambda_minus_table():
    code, out, _ = run_cli("satake", "--list-lambda-minus", "A2",
                           "--facet", "1,2", "--cap", "8", "--json")
    assert code == 0
    doc = json.loads(out)
    assert {"coweight": [0, 0], "length": 0} in doc["lambda_minus"]
    assert len(doc["lambda_minus"]) == 5
    # without --cap the listing keeps its length cap of 8
    assert run_cli("satake", "--list-lambda-minus", "A2", "--facet", "1,2",
                   "--json") == (code, out, "")


def test_satake_w_honours_cap():
    # --cap bounds the right W_{M,f}-cosets the Satake walk visits; the
    # minimal Levi's walk visits one, so --cap 0 is the only cap it fails
    code, _, err = run_cli("satake", "A1", "--facet", "1", "--p", "2", "--w", "t[-3]",
                           "--cap", "0")
    assert code == 3
    assert "Satake walk reached 1 elements, over the limit 0 set by --cap" in err
    code, out, _ = run_cli("satake", "A1", "--facet", "1", "--p", "2", "--w", "t[-3]",
                           "--json")
    assert code == 0
    assert json.loads(out)["image"] == [{"rep": "t[-3]", "coeff": 1}]


def test_satake_special_honours_cap():
    # --special reads the same walk as the plain path, so --cap bounds it too
    code, out, err = run_cli("satake", "A1", "--facet", "1", "--levi", "", "--p", "2",
                             "--w", "t[-2]", "--special", "--cap", "0")
    assert (code, out) == (3, "")
    assert "Satake walk reached 1 elements, over the limit 0 set by --cap" in err


@pytest.mark.parametrize("argv, code", [
    (("--facet", "1,2", "--w", "t[-2,-1]"), 0),
    (("--facet", "1,2", "--w", "t[-2,-1]", "--special"), 0),
    (("--facet", "", "--w", "t[-1,-1]*s1"), 0),  # a zero image
    (("--facet", "1,2", "--w", "t[-2,-1]", "--cap", "0"), 3),
], ids=("image", "special", "zero-image", "over-cap"))
def test_satake_runs_the_closed_chain_pass_once(monkeypatch, capsys, argv, code):
    # A datum read from JSON is fresh on every run, so no memo answers for the
    # pass; the transform reuses the label the `closed_component` field prints.
    passes = []
    real = sat.closed_attractor_component
    monkeypatch.setattr(sat, "closed_attractor_component",
                        lambda *args: passes.append(args) or real(*args))
    datum = '{"type":"A2","lattice_basis":[[1,0],[0,1]]}'
    assert main(["satake", datum, "--levi", "", "--p", "3", *argv, "--json"]) == code
    assert len(passes) == 1


def _satake_e6(levi, w, *cap):
    return subprocess.run([sys.executable, "-m", "modp_hecke.cli", "satake", "E6",
                           "--facet", "1,2,3,4,5,6", "--levi", levi, "--p", "2",
                           "--w", w, *cap, "--json"],
                          capture_output=True, text=True, timeout=60)


def test_satake_at_e6_is_bounded_by_the_cap():
    # W_f of the E6 hyperspecial facet has 51,840 elements and the lower
    # interval of this class passes 20,000; the transform reads neither, and
    # with Levi {1,2,3} its walk visits 2 right W_{M,f}-cosets, which the cap
    # bounds.
    proc = _satake_e6("1,2,3", "t[-1,0,0,0,0,0]", "--cap", "1")
    assert proc.returncode == 3 and proc.stdout == ""
    assert "Satake walk reached 2 elements, over the limit 1" in proc.stderr
    proc = _satake_e6("1,2,3", "t[-1,0,0,0,0,0]", "--cap", "2")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["image"] == [
        {"coeff": 1, "rep": "t[-1,-1,-2,-3,-2,-1]*s2"}]


def test_satake_at_e6_with_the_whole_levi():
    # Levi E6 itself: W_{M,f} is all of W_f, so the walk visits the W_f-cosets
    # of the Schubert scheme, one for e and 73 for t[-1,0,0,0,0,0], not the
    # 51,840 elements of W_f; both answer at the default cap.
    proc = _satake_e6("1,2,3,4,5,6", "e")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["image"] == [{"coeff": 1, "rep": "e"}]
    proc = _satake_e6("1,2,3,4,5,6", "t[-1,0,0,0,0,0]", "--cap", "72")
    assert proc.returncode == 3 and "Satake walk reached 73 elements" in proc.stderr
    proc = _satake_e6("1,2,3,4,5,6", "t[-1,0,0,0,0,0]")
    assert proc.returncode == 0, proc.stderr
    assert [t["rep"] for t in json.loads(proc.stdout)["image"]] == [
        "e", "t[1,2,2,3,2,1]*s2*s4*s3*s1*s5*s4*s2*s3*s4*s5*s6*s5*s4*s2*s3*s1*s4*s3*s5*s4*s2"]


def test_oracle_check_cli():
    code, out, _ = run_cli("oracle", "check", "A1", "--conv-cap", "2",
                           "--bruhat-cap", "3", "--length-cap", "4")
    assert code == 0
    assert "all pass" in out


def test_oracle_check_reads_data_as_every_subcommand_does(tmp_path, capsys):
    # A datum JSON document, a .json path and a preset spec in one call
    path = tmp_path / "a1xa1.json"
    path.write_text('{"type":"A1xA1","lattice_basis":[[2,0],[1,1]]}')
    code = main(["oracle", "check", '{"type":"A1","rank":1,"lattice_basis":[[1,1],[1,-1]]}',
                 str(path), "A1", "--conv-cap", "2", "--bruhat-cap", "3", "--length-cap", "4"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert [line.split()[:3] for line in out[:-1]] == [
        [label, check, "pass"] for label in ("A1:explicit", "A1xA1:explicit", "A1:sc")
        for check in ("convolution", "bruhat", "length")]
    assert out[-1] == "oracle check: all pass"


def test_oracle_check_bruhat_cap_is_the_only_cap():
    # elements of length 17 exceed the subword search's own default of 16
    code, out, err = run_cli("oracle", "check", "A1", "--bruhat-cap", "17",
                             "--conv-cap", "1", "--length-cap", "1")
    assert code == 0, err
    assert "all pass" in out


@pytest.mark.parametrize("argv, says", [
    (["weyl", "length", '{"rank":1}', "--elt", "e"], ""),
    (["weyl", "length", '{"type":"A1"}', "--elt", "e"], ""),
    (["weyl", "length", '{"type":"A1","lattice_basis":5}', "--elt", "e"], ""),
    (["weyl", "length", '{"type":"A1","rank":[1],"lattice_basis":[[1]]}', "--elt", "e"],
     ""),
    (["weyl", "length", '{"type":"A1","lattice_basis":[[1.5]]}', "--elt", "e"],
     "1.5 is not an integer"),
    (["weyl", "length", '{"type":"A1","lattice_basis":[[true]]}', "--elt", "e"],
     "True is not an integer"),
    (["weyl", "length", '{"type":"A1","lattice_basis":[["2"]]}', "--elt", "e"],
     "'2' is not an integer"),
    (["weyl", "length", '{"type":"A1","rank":1.7,"lattice_basis":[[1]]}', "--elt", "e"],
     "1.7 is not an integer"),
    (["weyl", "length", '{"type":"A1","lattice_basis":[[Infinity]]}', "--elt", "e"],
     "inf is not an integer"),
    (["satake", "A1", "--facet", "1"], ""),  # neither --w nor --list-lambda-minus
    (["weyl", "length", "A1", "--elt", "t[1"], "cannot parse element 't[1' at "),
    (["weyl", "length", "A1", "--elt", "t[a]"], "cannot parse element 't[a]' at "),
    (["weyl", "length", "A2", "--elt", "s\u0661"], "cannot parse element"),
    (["weyl", "length", "A2", "--elt", "\u00b2"], "cannot parse element"),
    (["hecke", "multiply", "A1", "--p", str(10 ** 30 + 57), "--w1", "e", "--w2", "e"],
     "3317044064679887385961981"),
    (["hecke", "multiply", "A1", "--p", str(10 ** 400 + 1), "--w1", "e", "--w2", "e"],
     "3317044064679887385961981"),
    (["--json", "weyl", "length", "A1", "--elt", "t[1]"],
     "unrecognized arguments: --json"),
    (["--config", "c.json", "weyl", "length", "A1", "--elt", "e"],
     "error: argument cmd: invalid choice"),
    (["hecke", "multiply", "A1", "--p", "2", "--w1", "t[-1]", "--w2", "e", "--cap", "-5"],
     "argument --cap: invalid"),
    (["satake", "A1", "--facet", "1", "--p", "2", "--list-lambda-minus", "--cap", "-3"],
     "argument --cap: invalid"),
    (["oracle", "check", "A1", "--conv-cap", "-1"], "argument --conv-cap: invalid"),
    (["oracle", "check", "A1", "--bruhat-cap", "-1"], "argument --bruhat-cap: invalid"),
    (["oracle", "check", "A1", "--length-cap", "-1"], "argument --length-cap: invalid"),
    (["weyl", "length", '{"type":"A1","lattice_basis":[[0]]}', "--elt", "e"],
     "lattice basis is singular"),
    (["weyl", "length", '{"type":"A2","lattice_basis":[[1,0,0],[0,1,0]]}', "--elt", "e"],
     "must be square of size >= rank"),
    (["weyl", "length", '{"type":"A2","lattice_basis":[[2,0],[0,2]]}', "--elt", "e"],
     "does not contain the simple coroot alpha_1^vee"),
    (["weyl", "demazure", "A1", "--word", "0,9"], "invalid affine simple index 9"),
    (["weyl", "length", "A1", "--elt", "s9"], "invalid affine simple index 9"),
    (["weyl", "demazure", "A1", "--word", "+0,1"], "cannot parse index list '+0,1'"),
    (["weyl", "demazure", "A1", "--word", "0,,1"], "cannot parse index list '0,,1'"),
    (["hecke", "pointcount", "A2", "--facet", "+1", "--w", "s1"],
     "cannot parse index list '+1'"),
    (["hecke", "pointcount", "A2", "--facet", "\u0661", "--w", "s1"],
     "cannot parse index list"),
    (["satake", "A2", "--facet", "1,2", "--levi", "-1", "--p", "2", "--w", "e"],
     "invalid affine simple index -1"),
    (["satake", "A2", "--facet", "1,2", "--levi", "9", "--p", "2", "--w", "e"],
     "invalid affine simple index 9"),
], ids=["datum-without-type", "datum-without-basis", "basis-not-rows", "rank-not-int",
        "float-basis-entry", "bool-basis-entry", "string-basis-entry", "float-rank",
        "infinite-basis-entry",
        "satake-without-w", "unclosed-bracket",
        "non-integer-coordinate", "arabic-indic-digit", "superscript-digit",
        "prime-above-the-test-bound", "prime-above-float-range",
        "json-before-the-subcommand", "config-flag-is-gone",
        "negative-cap", "negative-length-cap-of-lambda-minus", "negative-conv-cap",
        "negative-bruhat-cap", "negative-length-cap",
        "singular-basis", "basis-not-square", "basis-without-a-coroot",
        "demazure-word-index-off-the-diagram", "element-index-off-the-diagram",
        "word-index-with-a-plus", "empty-word-index", "facet-index-with-a-plus",
        "arabic-indic-facet-index", "negative-levi-index", "levi-index-off-the-diagram"])
def test_malformed_input_is_a_parse_error(argv, says, capsys):
    assert main(argv) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and says in err


def test_cap_exceeded_exit_code():
    code, _, err = run_cli("hecke", "basis", "A1", "--facet", "", "--p", "2",
                           "--w", "t[-4]", "--cap", "3")
    assert code == 3
    assert "cap" in err.lower() or "interval" in err.lower()
    assert "--cap" in err and "3" in err and "4" in err  # flag, limit, size reached


def test_levi_index_convention_matches_facet():
    # --levi uses affine-system node indices; node 1 of A2 is the first root
    code, out, _ = run_cli("satake", "A2", "--facet", "1,2", "--levi", "1",
                           "--p", "2", "--w", "t[-1,-1]", "--json")
    assert code == 0
    code2, _, err = run_cli("satake", "A2", "--facet", "1,2", "--levi", "0",
                            "--p", "2", "--w", "t[-1,-1]")
    assert code2 == 4 and "finite" in err
    # A1xA2: index_of_finite is {0: 1, 1: 3, 2: 4}, so node 2 is the second
    # component's affine node and node 4 is the library's root index 2
    code3, _, err = run_cli("satake", "A1xA2", "--facet", "1,3,4", "--levi", "2",
                            "--p", "2", "--w", "e")
    assert (code3, err) == (4, "error: --levi index 2 is not a finite simple node\n")
    code4, out, _ = run_cli("satake", "A1xA2", "--facet", "1,3,4", "--levi", "4",
                            "--p", "2", "--w", "t[0,-1,-1]", "--json")
    d = preset("A1xA2")
    f, levi = aw.facet(d, (1, 3, 4)), sat.levi_datum(d, (2,))
    idx = aw.double_coset_rep(aw.parse_element(d, "t[0,-1,-1]"), f)
    assert code4 == 0 and json.loads(out) == {
        "closed_component": str(sat.closed_attractor_component(idx, levi, f)),
        "has_levi_point": True,
        "image": sat.satake_phi(idx, levi, f, 2).to_json()["terms"]}


def test_determinism():
    runs = [run_cli("satake", "A2", "--facet", "1,2", "--levi", "1", "--p", "3",
                    "--w", "t[-1,-1]", "--json")[1] for _ in range(2)]
    assert runs[0] == runs[1]


def test_main_entrypoint_direct():
    assert main(["weyl", "length", "A1", "--elt", "e"]) == 0


def test_long_element_leq_is_not_a_traceback(capsys):
    # t[-600] has length 1200: the Bruhat walk must not recurse per letter.
    code = main(["weyl", "leq", "A1", "--u", "e", "--w", "t[-600]"])
    assert code in (0, 3)
    if code == 0:
        assert capsys.readouterr().out.strip() == "true"
