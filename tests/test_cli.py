import io
import json

import pytest

from exactmath.cli import build_parser, dispatch

GOLDEN = [
    # number theory
    (["nt", "gcd", "252", "198"], "18"),
    (["nt", "lcm", "90", "24"], "360"),
    (["nt", "factor", "360"], "2^3 * 3^2 * 5"),
    (["nt", "prime", "91"], "false"),
    (["nt", "tobase", "125", "7"], "236"),
    (["nt", "frombase", "10010011", "2"], "147"),
    (["nt", "divmod", "47", "5"], "q = 9, r = 2"),
    # combinatorics
    (["comb", "fact", "5"], "120"),
    (["comb", "binom", "7", "2"], "21"),
    (["comb", "expand", "4", "3", "0", "2", "1"],
     "81 + 216*x + 216*x^2 + 96*x^3 + 16*x^4"),
    (["comb", "term", "12", "4", "1", "1/2", "1", "2/3"], "495*x^(20/3)"),
    (["comb", "sum", "squares", "5"], "55"),
    # logic
    (["logic", "classify", "p -> (q -> p)"], "tautology"),
    (["logic", "classify", "p & !p"], "contradiction"),
    (["logic", "equiv", "p -> q", "!p | q"], "true"),
    (["logic", "table", "p & !q"],
     "p q | *\n-------\nT T | F\nT F | T\nF T | F\nF F | F"),
    # sets
    (["set", "ops", "union", "{a,b,c}", "{c,d}"], "{a, b, c, d}"),
    (["set", "ops", "symdiff", "{a,b,c,d,e,f}", "{d,e,f,g,h}"],
     "{a, b, c, g, h}"),
    (["set", "venn3", "35", "18", "22", "6", "11", "4", "1"],
     "third set: 15\ne: 6\nenj: 10\nf: 9\nfe: 5\nfenj: 1\nfnj: 3\nnj: 1"),
    # relations
    (["rel", "inverse", "{(1,2),(3,4)}"], "{(2, 1), (4, 3)}"),
    (["rel", "compose", "{(1,2),(2,3)}", "{(2,4),(3,9)}"],
     "{(1, 4), (2, 9)}"),
    # algebraic structures
    (["alg", "classify", "--addmod", "6"],
     "class: abelian_group\nclosed: true\nassociative: true\n"
     "commutative: true\nall_invertible: true\nneutral: 0"),
    # complex numbers
    (["cx", "arith", "mul", "3+4i", "2-5i"], "26-7i"),
    (["cx", "arith", "div", "2-3i", "1+i"], "-1/2-5/2i"),
    (["cx", "polar", "1+i"],
     "r = 1.414213562, theta = 0.7853981634 rad (45 deg)"),
    (["cx", "roots", "1-i", "3"],
     "r = 1.122462048, theta = 1.832595715 rad (105 deg)\n"
     "r = 1.122462048, theta = 3.926990817 rad (225 deg)\n"
     "r = 1.122462048, theta = 6.021385919 rad (345 deg)"),
    # matrices
    (["mat", "det", "3 2 -1; 1 2 4; 0 6 -2"], "-86"),
    (["mat", "det", "--method", "sarrus3", "3 2 -1; 1 2 4; 0 6 -2"], "-86"),
    (["mat", "inverse", "2 -3; 0 1"], "1/2 3/2\n  0   1"),
    # systems
    (["sys", "gauss", "1 1; 1 -1 | 2 0"], "x1 = 1, x2 = 1"),
    (["sys", "classify", "1 1; 1 1 | 2 3"],
     "rank A = 1, rank A|b = 2, unknowns = 2: inconsistent"),
    (["sys", "gauss", "1 1 1; 2 3 -1; 1 2 -2; 3 5 -3 | 3 4 1 5"],
     "x1 = -4*t1 + 5\nx2 = 3*t1 - 2\nx3 = t1\nfree columns: 3"),
    # geometry
    (["geo", "plane", "three", "(1,1,0)", "(-2,0,4)", "(2,3,-1)", "--forms"],
     "7x - y + 5z - 6 = 0\nhesse p = 0.692820323\n"
     "segment l, m, n = 6/7, -6, 6/5"),
    (["geo", "line", "planes", "2 -1 -1 -4", "2 -3 -2 7"],
     "(x-(19/4))/-1 = (y-(11/2))/2 = (z-(0))/-4"),
    (["geo", "relate", "lineplane",
      "(x-1)/3 = (y-2)/-2 = (z-3)/1", "6 -4 2 7"],
     "kind: intersecting\npoint: (-5/28, 39/14, 73/28)\nsin angle = 1"),
    (["geo", "dist", "pointplane", "(0,6,4)", "1 -2 -2 3"],
     "d = 5.666666667 (d^2 = 289/9)"),
    # mixtures
    (["mix", "prop", "x+9", "6", "x", "5"], "45"),
    (["mix", "split", "198", "1:2:3:5"], "18, 36, 54, 90"),
    (["mix", "percent", "--i", "30", "--p", "32%"], "375/4"),
    (["mix", "chain", "--final", "60", "--", "-10", "+15"], "4000/69"),
    (["mix", "simple", "48", "78", "60", "10"], "6, 4"),
    (["mix", "star", "120", "560", "160", "140", "110", "50"],
     "280, 40, 80, 160"),
]


@pytest.mark.parametrize("argv,expected", GOLDEN,
                         ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_golden(argv, expected, capsys):
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == expected + "\n"


JSON_CASES = [
    (["--json", "mat", "det", "3 2 -1; 1 2 4; 0 6 -2"],
     '{"det":{"den":1,"num":-86}}'),
    (["--json", "sys", "gauss", "1 1; 1 -1 | 2 0"],
     '{"solution":{"kind":"unique","values":'
     '[{"den":1,"num":1},{"den":1,"num":1}]}}'),
    (["--json", "cx", "arith", "mul", "3+4i", "2-5i"],
     '{"result":{"im":{"den":1,"num":-7},"re":{"den":1,"num":26}}}'),
    (["--json", "geo", "line", "planes", "2 -1 -1 -4", "2 -3 -2 7"],
     '{"line":{"dir":[{"den":1,"num":-1},{"den":1,"num":2},'
     '{"den":1,"num":-4}],"point":[{"den":4,"num":19},{"den":2,"num":11},'
     '{"den":1,"num":0}]}}'),
]


@pytest.mark.parametrize("argv,expected", JSON_CASES,
                         ids=[" ".join(argv) for argv, _ in JSON_CASES])
def test_json_golden(argv, expected, capsys):
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == expected + "\n"


ELIMINATION_GOLDEN = [
    (["mat", "rank", "3 6 6 9 1; 2 4 1 2 0; -1 -2 4 5 1"],
     "rank = 2\n3 6  6  9    1\n0 0 -3 -4 -2/3\n0 0  0  0    0\n"
     "ops: IIv-(2/3)Iv; IIIv-(-1/3)Iv; IIIv-(-2)IIv",
     '{"echelon":[[{"den":1,"num":3},{"den":1,"num":6},{"den":1,"n'
     'um":6},{"den":1,"num":9},{"den":1,"num":1}],[{"den":1,"num":'
     '0},{"den":1,"num":0},{"den":1,"num":-3},{"den":1,"num":-4},{'
     '"den":3,"num":-2}],[{"den":1,"num":0},{"den":1,"num":0},{"de'
     'n":1,"num":0},{"den":1,"num":0},{"den":1,"num":0}]],"op_log"'
     ':["IIv-(2/3)Iv","IIIv-(-1/3)Iv","IIIv-(-2)IIv"],"pivot_cols"'
     ':[0,2],"rank":2}'),
    (["mat", "rank", "0 2 -1; 1/2 1 3; 1 6 5; 0 0 0"],
     "rank = 3\n1/2 1  3\n  0 2 -1\n  0 0  1\n  0 0  0\nops: Iv<->IIv; IIIv-(2)Iv; IIIv-(2)IIv",
     '{"echelon":[[{"den":2,"num":1},{"den":1,"num":1},{"den":1,"n'
     'um":3}],[{"den":1,"num":0},{"den":1,"num":2},{"den":1,"num":'
     '-1}],[{"den":1,"num":0},{"den":1,"num":0},{"den":1,"num":1}]'
     ',[{"den":1,"num":0},{"den":1,"num":0},{"den":1,"num":0}]],"o'
     'p_log":["Iv<->IIv","IIIv-(2)Iv","IIIv-(2)IIv"],"pivot_cols":'
     '[0,1,2],"rank":3}'),
    (["mat", "adj", "1 2 3; 4 5 6; 7 8 9"],
     "-3   6 -3\n 6 -12  6\n-3   6 -3",
     '{"matrix":[[{"den":1,"num":-3},{"den":1,"num":6},{"den":1,"n'
     'um":-3}],[{"den":1,"num":6},{"den":1,"num":-12},{"den":1,"nu'
     'm":6}],[{"den":1,"num":-3},{"den":1,"num":6},{"den":1,"num":'
     "-3}]]}"),
    (["mat", "solveq", "left", "2 -3; 0 1", "1 2; 3 4"],
     "5 7\n3 4",
     '{"matrix":[[{"den":1,"num":5},{"den":1,"num":7}],[{"den":1,"'
     'num":3},{"den":1,"num":4}]]}'),
    (["mat", "solveq", "right", "2 -3; 0 1", "1 2; 3 4"],
     "1/2  7/2\n3/2 17/2",
     '{"matrix":[[{"den":2,"num":1},{"den":2,"num":7}],[{"den":2,"'
     'num":3},{"den":2,"num":17}]]}'),
    (["sys", "classify", "1 1; 1 -1 | 2 0"],
     "rank A = 2, rank A|b = 2, unknowns = 2: unique",
     '{"n_unknowns":2,"rank_a":2,"rank_ab":2,"verdict":"unique"}'),
    (["sys", "classify", "1 2 -1; 2 4 -2; 1 0 1 | 1 2 3"],
     "rank A = 2, rank A|b = 2, unknowns = 3: infinite",
     '{"n_unknowns":3,"rank_a":2,"rank_ab":2,"verdict":"infinite"}'),
    (["sys", "gauss", "1 2 -1; 2 4 -2; 1 0 1 | 1 3 3"],
     "inconsistent",
     '{"solution":{"kind":"inconsistent"}}'),
    (["sys", "gauss", "1 2 0 3; 0 0 1 1/2; 1 2 1 7/2 | 4 1 5"],
     "x1 = -2*t1 - 3*t2 + 4\nx2 = t1\nx3 = -1/2*t2 + 1\nx4 = t2\nfree columns: 2, 4",
     '{"solution":{"directions":[[{"den":1,"num":-2},{"den":1,"num'
     '":1},{"den":1,"num":0},{"den":1,"num":0}],[{"den":1,"num":-3'
     '},{"den":1,"num":0},{"den":2,"num":-1},{"den":1,"num":1}]],"'
     'free_cols":[1,3],"kind":"parametric","particular":[{"den":1,'
     '"num":4},{"den":1,"num":0},{"den":1,"num":1},{"den":1,"num":'
     "0}]}}"),
    (["sys", "invmethod", "2 1 0; 1 3 -1; 0 -1 4 | 1/2 5 -3"],
     "x1 = -23/36, x2 = 16/9, x3 = -11/36",
     '{"solution":{"kind":"unique","values":[{"den":36,"num":-23},'
     '{"den":9,"num":16},{"den":36,"num":-11}]}}'),
    (["sys", "homogeneous", "1 2 3; 4 5 6; 7 8 9"],
     "trivial only: false\nx1 = t1\nx2 = -2*t1\nx3 = t1\nfree columns: 3",
     '{"solutions":{"directions":[[{"den":1,"num":1},{"den":1,"num'
     '":-2},{"den":1,"num":1}]],"free_cols":[2],"kind":"parametric'
     '","particular":[{"den":1,"num":0},{"den":1,"num":0},{"den":1'
     ',"num":0}]},"trivial_only":false}'),
    (["sys", "homogeneous", "2 1; 1 3"],
     "trivial only: true\nx1 = 0, x2 = 0",
     '{"solutions":{"kind":"unique","values":[{"den":1,"num":0},{"'
     'den":1,"num":0}]},"trivial_only":true}'),
]


@pytest.mark.parametrize("argv,text,payload", ELIMINATION_GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in ELIMINATION_GOLDEN])
def test_elimination_golden(argv, text, payload, capsys):
    """Outputs of every command built on row elimination, text and --json."""
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == text + "\n"
    assert dispatch(["--json"] + argv) == 0
    assert capsys.readouterr().out == payload + "\n"


@pytest.mark.parametrize("argv", [
    ["--json", "sys", "gauss", "1 1 1; 2 3 -1; 1 2 -2; 3 5 -3 | 3 4 1 5"],
    ["--json", "mat", "rank", "3 6 6 9 1; 2 4 1 2 0; -1 -2 4 5 1"],
    ["--json", "logic", "table", "p -> q <-> !p | q"],
    ["--json", "set", "power", "{a,b,c}"],
    ["--json", "alg", "classify", "--mulmod", "6"],
    ["--json", "cx", "roots", "1-i", "3"],
    ["--json", "geo", "relate", "planes", "1 3 -4 5", "2 2 2 -7"],
    ["--json", "mix", "star", "120", "560", "160", "140", "110", "50"],
])
def test_json_round_trips_to_identical_bytes(argv, capsys):
    assert dispatch(argv) == 0
    out = capsys.readouterr().out.rstrip("\n")
    reencoded = json.dumps(json.loads(out), sort_keys=True,
                           separators=(",", ":"))
    assert reencoded == out


def test_domain_error_exit_code(capsys):
    assert dispatch(["mat", "det", "1 2 3; 4 5 6"]) == 1
    err = capsys.readouterr().err
    assert "not square" in err


def test_parse_error_exit_code(capsys):
    assert dispatch(["cx", "arith", "mul", "3+4j", "1"]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["mat", "arith", "scale", "1 2; 3 4"],
    ["mat", "arith", "add", "1 2; 3 4"],
    ["mat", "arith", "sub", "1 2; 3 4"],
    ["mat", "arith", "mul", "1 2; 3 4"],
    ["geo", "plane", "three", "(1,2,3)"],
    ["geo", "plane", "three", "(1,0,0)", "(0,1,0)", "(0,0,1)", "(1,1,1)"],
    ["geo", "plane", "normal", "(1,2,3)"],
    ["nt", "frombase", "zz", "16"],
    ["mat", "det", "1 2; 3"],
], ids=" ".join)
def test_missing_or_malformed_operand_is_a_parse_error(argv, capsys):
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ")


@pytest.mark.parametrize("argv,err", [
    (["alg", "classify", "--addmod", "0"], "out of domain: modulus must be >= 1, got 0"),
    (["alg", "classify", "--mulmod", "-1"], "out of domain: modulus must be >= 1, got -1"),
], ids=["addmod 0", "mulmod -1"])
def test_nonpositive_modulus_is_a_domain_error(argv, err, capsys):
    assert dispatch(argv) == 1
    assert capsys.readouterr() == ("", err + "\n")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["mat", "det"])
    assert exc.value.code == 2


def test_stdin_placeholder(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("2 -3; 0 1"))
    assert dispatch(["mat", "det", "-"]) == 0
    assert capsys.readouterr().out == "2\n"


def test_cayley_from_table_text(capsys):
    table = "e a\ne a\na e"
    assert dispatch(["alg", "classify", table]) == 0
    out = capsys.readouterr().out
    assert "class: abelian_group" in out
    assert "neutral: e" in out


def test_help_lists_all_groups():
    help_text = build_parser().format_help()
    for group in ("nt", "comb", "logic", "set", "rel", "alg",
                  "cx", "mat", "sys", "geo", "mix"):
        assert group in help_text
