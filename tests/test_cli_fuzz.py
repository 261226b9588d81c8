"""Fuzz of the command line: whatever the strategies below build, valid or
not, `cli.main` returns a documented exit code (0 to 5), an exit of 2 to 5
prints a first stderr line starting 'error:', and no exception escapes.

Huge coordinates go only to `weyl length`, `hecke basis` and `hecke
pointcount`, whose work past the length formula is bounded by --cap;
`satake` and `hecke multiply` are unbounded in word length, so they get
short elements.  Every capped command is given a small --cap, and `oracle
check` small caps and data of rank at most 2."""

import contextlib
import io
from datetime import timedelta

from hypothesis import given, settings, strategies as st

from modp_hecke import cli
from modp_hecke.root_datum import preset

PRESETS = ("A1", "A1:ad", "A2", "A2:ad", "B2", "C2", "G2", "A3", "A1xA1", "A1xA2:ad")
DOCUMENTS = {'{"type":"A1","rank":1,"lattice_basis":[[1]]}': 1,  # document -> dim
             '{"type":"A","rank":2,"lattice_basis":[[1,0],[0,1]]}': 2}
# Bad presets, the malformed datum documents of
# test_malformed_input_is_a_parse_error and others, and a missing path.
BAD_DATA = (
    "A0", "E9", "A2:zz", "A1x", "", "x", '{"rank":1}', '{"type":"A1"}',
    '{"type":"A1","lattice_basis":5}', '{"type":"A1","rank":[1],"lattice_basis":[[1]]}',
    '{"type":"A1","lattice_basis":[[1.5]]}', '{"type":"A1","lattice_basis":[[true]]}',
    '{"type":"A1","lattice_basis":[["2"]]}', '{"type":"A1","rank":1.7,"lattice_basis":[[1]]}',
    '{"type":"A1","lattice_basis":[[Infinity]]}',
    '{"type":"A2","rank":3,"lattice_basis":[[1,0],[0,1]]}',
    '{"type":"A1","lattice_basis":[[0]]}', '{"type":"A1","lattice_basis":[[3]]}',
    '{"type":"A1","lattice_basis":[[1],[2]]}', '{"type":"A1","lattice_basis":[]}',
    '{"type":"A1","lattice_basis":"ab"}', '{"type":5,"lattice_basis":[[1]]}', "{", "[]",
    "missing.json")

SMALL = st.integers(-3, 3)
# So large that a list sized by the length fails at once, not filling memory.
HUGE = st.integers(10 ** 15, 10 ** 30) | st.integers(-10 ** 30, -10 ** 15)
JUNK = st.sampled_from(["s١", "²", "１", "t[+1]", "t[1_0]", "t[\t1]", "s", "t[",
                        "t[1", "]", "[", "-", "x", " ", "*", ",", "t[,]", "w[1,,2]", "t[]",
                        "t[1,2,3,4]", "s9", "s-1"])
PRIME = st.sampled_from(["2", "2", "3", "5", "7", "1", "0", "-3", "4", "9", "x",
                         str(10 ** 30 + 57)])
CAP = st.sampled_from([str(c) for c in range(31)] + ["-1", "x"])


def _joined(values, **sizes):
    return st.lists(values, **sizes).map(lambda v: ",".join(map(str, v)))


@st.composite
def elements(draw, dim, huge=False):
    """Atoms joined by '*', ',', '' or ' '; t[..] has dim coordinates, one of
    them huge when `huge` draws so; JUNK is one branch of eight."""
    simple = st.integers(0, dim).map(lambda i: f"s{i}")
    translation = _joined(SMALL, min_size=dim, max_size=dim).map(lambda b: f"t[{b}]")
    word = _joined(st.integers(0, dim), max_size=4).map(lambda b: f"w[{b}]")
    atom = st.one_of(st.just("e"), simple, simple, st.integers(0, dim).map(str), translation,
                     translation, word, JUNK)
    atoms = draw(st.lists(atom, min_size=1, max_size=4))
    if huge and draw(st.booleans()):
        coords = [draw(HUGE)] + draw(st.lists(SMALL, min_size=dim - 1, max_size=dim - 1))
        atoms.insert(draw(st.integers(0, len(atoms))),
                     "t[" + ",".join(map(str, draw(st.permutations(coords)))) + "]")
    return draw(st.sampled_from(["*", ",", "", " "])).join(atoms)


def _flags(draw, **choices):
    """'--name value' for a random subset of the named strategies; a
    strategy that draws True gives a bare flag, False none."""
    argv = []
    for name, strategy in choices.items():
        value = draw(strategy)
        if value is not False and draw(st.booleans()):
            argv += ["--" + name.replace("_", "-")] + ([] if value is True else [value])
    return argv


@st.composite
def command_lines(draw):
    cmd = draw(st.sampled_from(["weyl length", "weyl reduce", "weyl leq", "weyl demazure",
                                "hecke multiply", "hecke basis", "hecke pointcount",
                                "satake", "oracle check"]))
    if cmd == "oracle check":
        data = draw(st.lists(st.sampled_from(PRESETS[:7] + BAD_DATA[:6]), max_size=2))
        return ["oracle", "check", *data, "--conv-cap", str(draw(st.integers(0, 1))),
                "--bruhat-cap", str(draw(st.integers(0, 2))),
                "--length-cap", str(draw(st.integers(0, 3)))]
    bad = draw(st.integers(0, 3)) == 0  # one datum in four
    spec = draw(st.sampled_from(BAD_DATA if bad else PRESETS + tuple(DOCUMENTS)))
    if spec in PRESETS:
        dim = preset(spec).dim
    else:
        dim = DOCUMENTS.get(spec) or draw(st.integers(1, 3))
    nodes = st.integers(-1, dim + 1)
    indices = _joined(nodes, max_size=dim, unique=True) | st.sampled_from(
        ["a", "1,,2", " ", "1;2", "0,1,2,3,4"])
    short, long = elements(dim), elements(dim, huge=True)
    argv = cmd.split() + [spec]
    json_flag = st.booleans()
    if cmd == "weyl length":
        return argv + ["--elt", draw(long)] + _flags(draw, json=json_flag)
    if cmd == "weyl reduce":
        return argv + ["--elt", draw(short)] + _flags(draw, json=json_flag)
    if cmd == "weyl leq":
        return argv + ["--u", draw(short), "--w", draw(short)] + _flags(draw, json=json_flag)
    if cmd == "weyl demazure":
        return argv + ["--word", draw(_joined(nodes, max_size=6) | indices)] + _flags(
            draw, json=json_flag)
    if cmd == "hecke multiply":
        return argv + ["--w1", draw(short), "--w2", draw(short), "--cap", draw(CAP)] + _flags(
            draw, facet=indices, p=PRIME, witness=st.booleans(), json=json_flag)
    if cmd == "hecke basis":
        return argv + ["--w", draw(long), "--cap", draw(CAP)] + _flags(
            draw, facet=indices, p=PRIME, to=st.sampled_from(["indicator", "phi", "x"]),
            json=json_flag)
    if cmd == "hecke pointcount":
        return argv + ["--w", draw(long), "--cap", draw(CAP)] + _flags(
            draw, facet=indices, json=json_flag)
    return argv + ["--cap", draw(CAP)] + _flags(
        draw, w=short, facet=indices, levi=indices, p=PRIME, special=st.booleans(),
        list_lambda_minus=st.booleans(), json=json_flag)


@settings(max_examples=500, deadline=timedelta(seconds=10))
@given(command_lines())
def test_every_command_line_ends_in_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in range(6), (argv, code)
    if code >= 2:
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())
