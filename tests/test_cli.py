import json
import os
import subprocess
import sys

import pytest

jsonschema = pytest.importorskip("jsonschema")

from modp_hecke import affine_weyl as aw
from modp_hecke.cli import EXIT_PARSE, main

SCHEMA_DIR = os.path.join(os.path.dirname(aw.__file__), "schemas")


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "modp_hecke.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def load_schema(name):
    with open(os.path.join(SCHEMA_DIR, name)) as fh:
        return json.load(fh)


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


def test_oracle_check_cli():
    code, out, _ = run_cli("oracle", "check", "A1", "--conv-cap", "2",
                           "--bruhat-cap", "3", "--length-cap", "4")
    assert code == 0
    assert "all pass" in out


def test_config_file(tmp_path):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"p": 3}))
    code, out, _ = run_cli("--config", str(cfg), "hecke", "basis", "A1",
                           "--facet", "", "--w", "e", "--json")
    assert code == 0
    assert json.loads(out)["prime"] == 3
    # an explicit flag wins over the config value
    code, out, _ = run_cli("--config", str(cfg), "hecke", "basis", "A1",
                           "--facet", "", "--w", "e", "--p", "5", "--json")
    assert json.loads(out)["prime"] == 5


@pytest.mark.parametrize("argv", [
    ["weyl", "length", '{"rank":1}', "--elt", "e"],
    ["weyl", "length", '{"type":"A1"}', "--elt", "e"],
    ["weyl", "length", '{"type":"A1","lattice_basis":5}', "--elt", "e"],
    ["weyl", "length", '{"type":"A1","rank":[1],"lattice_basis":[[1]]}', "--elt", "e"],
    ["satake", "A1", "--facet", "1"],  # neither --w nor --list-lambda-minus
    ["--config", "CONFIG", "weyl", "length", "A1", "--elt", "e"],
], ids=["datum-without-type", "datum-without-basis", "basis-not-rows", "rank-not-int",
        "satake-without-w", "config-not-an-object"])
def test_malformed_input_is_a_parse_error(argv, tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text("[1]")  # valid JSON, but not an object
    argv = [str(config) if a == "CONFIG" else a for a in argv]
    assert main(argv) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: ")


def test_cap_exceeded_exit_code():
    code, _, err = run_cli("hecke", "basis", "A1", "--facet", "", "--p", "2",
                           "--w", "t[-4]", "--cap", "3")
    assert code == 3
    assert "cap" in err.lower() or "interval" in err.lower()


def test_levi_index_convention_matches_facet():
    # --levi uses affine-system node indices; node 1 of A2 is the first root
    code, out, _ = run_cli("satake", "A2", "--facet", "1,2", "--levi", "1",
                           "--p", "2", "--w", "t[-1,-1]", "--json")
    assert code == 0
    code2, _, err = run_cli("satake", "A2", "--facet", "1,2", "--levi", "0",
                            "--p", "2", "--w", "t[-1,-1]")
    assert code2 == 4 and "finite" in err


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
