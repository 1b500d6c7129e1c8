import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import exactmath
from exactmath.cli import COMMANDS, GROUPS, build_parser, dispatch

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


# One argv per (group, op) and per `choices` value, text and --json.
COMMAND_GOLDEN = [
    (["nt", "gcd", "252", "198"],
     "18",
     '{"gcd":18,"trace":[[252,198,1,54],[198,54,3,36],[54,36,1,18],['
     "36,18,2,0]]}"),
    (["nt", "lcm", "90", "24"],
     "360",
     '{"lcm":360}'),
    (["nt", "factor", "360"],
     "2^3 * 3^2 * 5",
     '{"factors":[[2,3],[3,2],[5,1]]}'),
    (["nt", "prime", "97"],
     "true",
     '{"prime":true}'),
    (["nt", "tobase", "255", "16"],
     "ff",
     '{"base":16,"digits":[15,15]}'),
    (["nt", "frombase", "ff", "16"],
     "255",
     '{"value":255}'),
    (["nt", "divmod", "-47", "5"],
     "q = -10, r = 3",
     '{"q":-10,"r":3}'),
    (["comb", "fact", "5"],
     "120",
     '{"factorial":120}'),
    (["comb", "binom", "7", "2"],
     "21",
     '{"binom":21}'),
    (["comb", "expand", "2", "1", "1", "-1", "0"],
     "1 - 2*x + x^2",
     '{"terms":[{"coeff":{"den":1,"num":1},"exponent":{"den":1,"num"'
     ':0}},{"coeff":{"den":1,"num":-2},"exponent":{"den":1,"num":1}}'
     ',{"coeff":{"den":1,"num":1},"exponent":{"den":1,"num":2}}]}'),
    (["comb", "term", "12", "4", "1", "1/2", "1", "2/3"],
     "495*x^(20/3)",
     '{"term":{"coeff":{"den":1,"num":495},"exponent":{"den":3,"num"'
     ":20}}}"),
    (["comb", "sum", "first_n", "5"],
     "15",
     '{"sum":{"den":1,"num":15}}'),
    (["comb", "sum", "odd", "5"],
     "25",
     '{"sum":{"den":1,"num":25}}'),
    (["comb", "sum", "triangular", "5"],
     "35",
     '{"sum":{"den":1,"num":35}}'),
    (["comb", "sum", "squares", "5"],
     "55",
     '{"sum":{"den":1,"num":55}}'),
    (["comb", "sum", "recip_consecutive", "5"],
     "5/6",
     '{"sum":{"den":6,"num":5}}'),
    (["comb", "sum", "recip_odd", "5"],
     "5/11",
     '{"sum":{"den":11,"num":5}}'),
    (["comb", "sum", "product_consecutive", "5"],
     "70",
     '{"sum":{"den":1,"num":70}}'),
    (["logic", "table", "p & !q"],
     "p q | *\n"
     "-------\n"
     "T T | F\n"
     "T F | T\n"
     "F T | F\n"
     "F F | F",
     '{"atoms":["p","q"],"rows":[[[true,true],false],[[true,false],t'
     "rue],[[false,true],false],[[false,false],false]]}"),
    (["logic", "classify", "p"],
     "contingent",
     '{"classification":"contingent"}'),
    (["logic", "equiv", "p", "q"],
     "false",
     '{"equivalent":false}'),
    (["set", "ops", "union", "{a,b,c}", "{c,d}"],
     "{a, b, c, d}",
     '{"result":["a","b","c","d"]}'),
    (["set", "ops", "intersect", "{a,b,c}", "{c,d}"],
     "{c}",
     '{"result":["c"]}'),
    (["set", "ops", "diff", "{a,b,c}", "{c,d}"],
     "{a, b}",
     '{"result":["a","b"]}'),
    (["set", "ops", "symdiff", "{a,b,c}", "{c,d}"],
     "{a, b, d}",
     '{"result":["a","b","d"]}'),
    (["set", "ops", "complement", "{a,b}", "{a,b,c,d}"],
     "{c, d}",
     '{"result":["c","d"]}'),
    (["set", "power", "{1,2}"],
     "{}\n"
     "{1}\n"
     "{2}\n"
     "{1, 2}",
     '{"subsets":[[],[1],[2],[1,2]]}'),
    (["set", "cart", "{1,2}", "{a,b}"],
     "(1, a), (1, b), (2, a), (2, b)",
     '{"pairs":[[1,"a"],[1,"b"],[2,"a"],[2,"b"]]}'),
    (["set", "venn3", "35", "18", "22", "6", "11", "4", "1"],
     "third set: 15\n"
     "e: 6\n"
     "enj: 10\n"
     "f: 9\n"
     "fe: 5\n"
     "fenj: 1\n"
     "fnj: 3\n"
     "nj: 1",
     '{"regions":{"e":6,"enj":10,"f":9,"fe":5,"fenj":1,"fnj":3,"nj":'
     '1},"third_set":15}'),
    (["rel", "props", "{(1,1),(2,2),(1,2)}"],
     "reflexive: true\n"
     "antireflexive: false\n"
     "symmetric: false\n"
     "antisymmetric: true\n"
     "transitive: true\n"
     "equivalence: false\n"
     "partial_order: true",
     '{"antireflexive":false,"antisymmetric":true,"equivalence":fals'
     'e,"partial_order":true,"reflexive":true,"symmetric":false,"tra'
     'nsitive":true}'),
    (["rel", "props", "{(1,2)}", "--on", "{1,2,3}"],
     "reflexive: false\n"
     "antireflexive: true\n"
     "symmetric: false\n"
     "antisymmetric: true\n"
     "transitive: true\n"
     "equivalence: false\n"
     "partial_order: false",
     '{"antireflexive":true,"antisymmetric":true,"equivalence":false'
     ',"partial_order":false,"reflexive":false,"symmetric":false,"tr'
     'ansitive":true}'),
    (["rel", "classes", "{(1,1),(2,2),(1,2),(2,1),(3,3)}"],
     "{1, 2}\n"
     "{3}",
     '{"classes":[[1,2],[3]],"is_equivalence":true}'),
    (["rel", "classes", "{(1,1)}", "--on", "{1,2}"],
     "not an equivalence relation",
     '{"is_equivalence":false}'),
    (["rel", "compose", "{(1,2),(2,3)}", "{(2,4),(3,9)}"],
     "{(1, 4), (2, 9)}",
     '{"pairs":[[1,4],[2,9]]}'),
    (["rel", "inverse", "{(1,2),(3,4)}"],
     "{(2, 1), (4, 3)}",
     '{"pairs":[[2,1],[4,3]]}'),
    (["alg", "cayley", "--addmod", "3"],
     "* | 0 | 1 | 2\n"
     "-------------\n"
     "0 | 0 | 1 | 2\n"
     "1 | 1 | 2 | 0\n"
     "2 | 2 | 0 | 1",
     '{"carrier":[0,1,2],"table":[[0,1,2],[1,2,0],[2,0,1]]}'),
    (["alg", "cayley", "e a\ne a\na e"],
     "* | e | a\n"
     "---------\n"
     "e | e | a\n"
     "a | a | e",
     '{"carrier":["e","a"],"table":[["e","a"],["a","e"]]}'),
    (["alg", "classify", "--mulmod", "6"],
     "class: monoid\n"
     "closed: true\n"
     "associative: true\n"
     "commutative: true\n"
     "all_invertible: false\n"
     "neutral: 1",
     '{"all_invertible":false,"associative":true,"class":"monoid","c'
     'losed":true,"commutative":true,"neutral":1}'),
    (["alg", "classify", "a b\na a\nb b"],
     "class: semigroup\n"
     "closed: true\n"
     "associative: true\n"
     "commutative: false\n"
     "all_invertible: false\n"
     "neutral: none",
     '{"all_invertible":false,"associative":true,"class":"semigroup"'
     ',"closed":true,"commutative":false,"neutral":null}'),
    (["cx", "arith", "add", "3+4i", "2-5i"],
     "5-i",
     '{"result":{"im":{"den":1,"num":-1},"re":{"den":1,"num":5}}}'),
    (["cx", "arith", "sub", "3+4i", "2-5i"],
     "1+9i",
     '{"result":{"im":{"den":1,"num":9},"re":{"den":1,"num":1}}}'),
    (["cx", "arith", "mul", "3+4i", "2-5i"],
     "26-7i",
     '{"result":{"im":{"den":1,"num":-7},"re":{"den":1,"num":26}}}'),
    (["cx", "arith", "div", "3+4i", "2-5i"],
     "-14/29+23/29i",
     '{"result":{"im":{"den":29,"num":23},"re":{"den":29,"num":-14}}'
     "}"),
    (["cx", "polar", "1+i"],
     "r = 1.414213562, theta = 0.7853981634 rad (45 deg)",
     '{"polar":{"r":1.4142135623730951,"theta":0.7853981633974483}}'),
    (["cx", "pow", "1+i", "8"],
     "r = 16, theta = 0 rad (0 deg)\n"
     "xy = (16, 0)",
     '{"polar":{"r":16.000000000000007,"theta":0.0},"xy":[16.0000000'
     "00000007,0.0]}"),
    (["cx", "roots", "-4", "2"],
     "r = 2, theta = 1.570796327 rad (90 deg)\n"
     "r = 2, theta = 4.71238898 rad (270 deg)",
     '{"roots":[{"r":2.0,"theta":1.5707963267948966},{"r":2.0,"theta'
     '":4.71238898038469}]}'),
    (["mat", "arith", "add", "1 2; 3 4", "5 6; 7 8"],
     " 6  8\n"
     "10 12",
     '{"matrix":[[{"den":1,"num":6},{"den":1,"num":8}],[{"den":1,"nu'
     'm":10},{"den":1,"num":12}]]}'),
    (["mat", "arith", "sub", "1 2; 3 4", "5 6; 7 8"],
     "-4 -4\n"
     "-4 -4",
     '{"matrix":[[{"den":1,"num":-4},{"den":1,"num":-4}],[{"den":1,"'
     'num":-4},{"den":1,"num":-4}]]}'),
    (["mat", "arith", "mul", "1 2; 3 4", "5 6; 7 8"],
     "19 22\n"
     "43 50",
     '{"matrix":[[{"den":1,"num":19},{"den":1,"num":22}],[{"den":1,"'
     'num":43},{"den":1,"num":50}]]}'),
    (["mat", "arith", "scale", "1 2; 3 4", "1/2"],
     "1/2 1\n"
     "3/2 2",
     '{"matrix":[[{"den":2,"num":1},{"den":1,"num":1}],[{"den":2,"nu'
     'm":3},{"den":1,"num":2}]]}'),
    # a negative operand goes after '--', or argparse reads it as an option
    (["mat", "arith", "scale", "1 2; 3 4", "--", "-1/2"],
     "-1/2 -1\n"
     "-3/2 -2",
     '{"matrix":[[{"den":2,"num":-1},{"den":1,"num":-1}],[{"den":2,"nu'
     'm":-3},{"den":1,"num":-2}]]}'),
    (["mat", "arith", "transpose", "1 2 3; 4 5 6"],
     "1 4\n"
     "2 5\n"
     "3 6",
     '{"matrix":[[{"den":1,"num":1},{"den":1,"num":4}],[{"den":1,"nu'
     'm":2},{"den":1,"num":5}],[{"den":1,"num":3},{"den":1,"num":6}]'
     "]}"),
    (["mat", "det", "--method", "laplace", "3 2 -1; 1 2 4; 0 6 -2"],
     "-86",
     '{"det":{"den":1,"num":-86}}'),
    (["mat", "det", "--method", "elimination", "3 2 -1; 1 2 4; 0 6 -2"],
     "-86",
     '{"det":{"den":1,"num":-86}}'),
    (["mat", "det", "--method", "sarrus3", "3 2 -1; 1 2 4; 0 6 -2"],
     "-86",
     '{"det":{"den":1,"num":-86}}'),
    (["mat", "inverse", "2 -3; 0 1"],
     "1/2 3/2\n"
     "  0   1",
     '{"matrix":[[{"den":2,"num":1},{"den":2,"num":3}],[{"den":1,"nu'
     'm":0},{"den":1,"num":1}]]}'),
    (["sys", "classify", "--augmented", "1 1 2; 1 1 3"],
     "rank A = 1, rank A|b = 2, unknowns = 2: inconsistent",
     '{"n_unknowns":2,"rank_a":1,"rank_ab":2,"verdict":"inconsistent'
     '"}'),
    (["sys", "gauss", "--augmented", "1 1 2; 1 -1 0"],
     "x1 = 1, x2 = 1",
     '{"solution":{"kind":"unique","values":[{"den":1,"num":1},{"den'
     '":1,"num":1}]}}'),
    (["sys", "cramer", "1 1; 1 -1 | 2 0"],
     "x1 = 1, x2 = 1",
     '{"solution":{"kind":"unique","values":[{"den":1,"num":1},{"den'
     '":1,"num":1}]}}'),
    (["sys", "cramer", "--augmented", "2 1 3; 1 3 5"],
     "x1 = 4/5, x2 = 7/5",
     '{"solution":{"kind":"unique","values":[{"den":5,"num":4},{"den'
     '":5,"num":7}]}}'),
    (["sys", "invmethod", "--augmented", "2 1 3; 1 3 5"],
     "x1 = 4/5, x2 = 7/5",
     '{"solution":{"kind":"unique","values":[{"den":5,"num":4},{"den'
     '":5,"num":7}]}}'),
    (["geo", "vec", "(1,2,3)", "(4,5,6)"],
     "dot = 32\n"
     "cross = (-3, 6, -3)\n"
     "|a| = 3.741657387\n"
     "|b| = 8.774964387\n"
     "angle = 0.2257261286\n"
     "proj = 3.646738447",
     '{"angle":0.2257261285527342,"cross":[{"den":1,"num":-3},{"den"'
     ':1,"num":6},{"den":1,"num":-3}],"dot":{"den":1,"num":32},"norm'
     '_a":3.7416573867739413,"norm_b":8.774964387392123,"proj_a_onto'
     '_b":3.6467384467084143}'),
    (["geo", "vec", "(0,0,0)", "(1,0,0)"],
     "dot = 0\n"
     "cross = (0, 0, 0)\n"
     "|a| = 0\n"
     "|b| = 1",
     '{"cross":[{"den":1,"num":0},{"den":1,"num":0},{"den":1,"num":0'
     '}],"dot":{"den":1,"num":0},"norm_a":0.0,"norm_b":1.0}'),
    (["geo", "plane", "three", "(1,1,0)", "(-2,0,4)", "(2,3,-1)"],
     "7x - y + 5z - 6 = 0",
     '{"plane":{"a":{"den":1,"num":7},"b":{"den":1,"num":-1},"c":{"d'
     'en":1,"num":5},"d":{"den":1,"num":-6}}}'),
    (["geo", "plane", "three", "(1,1,0)", "(-2,0,4)", "(2,3,-1)", "--forms"],
     "7x - y + 5z - 6 = 0\n"
     "hesse p = 0.692820323\n"
     "segment l, m, n = 6/7, -6, 6/5",
     '{"hesse":{"cos_a":0.808290376865476,"cos_b":-0.115470053837925'
     '14,"cos_g":0.5773502691896257,"p":0.6928203230275508},"plane":'
     '{"a":{"den":1,"num":7},"b":{"den":1,"num":-1},"c":{"den":1,"nu'
     'm":5},"d":{"den":1,"num":-6}},"segment":[{"den":7,"num":6},{"d'
     'en":1,"num":-6},{"den":5,"num":6}]}'),
    (["geo", "plane", "three", "(0,0,0)", "(1,0,0)", "(0,1,0)", "--forms"],
     "z = 0\n"
     "hesse p = 0\n"
     "segment form undefined (zero coefficient)",
     '{"hesse":{"cos_a":0.0,"cos_b":0.0,"cos_g":1.0,"p":0.0},"plane'
     '":{"a":{"den":1,"num":0},"b":{"den":1,"num":0},"c":{"den":1,"n'
     'um":1},"d":{"den":1,"num":0}}}'),
    (["geo", "plane", "normal", "(0,0,0)", "(0,0,-1)", "--forms"],
     "-z = 0\n"
     "hesse p = 0\n"
     "segment form undefined (zero coefficient)",
     '{"hesse":{"cos_a":0.0,"cos_b":0.0,"cos_g":1.0,"p":0.0},"plan'
     'e":{"a":{"den":1,"num":0},"b":{"den":1,"num":0},"c":{"den":1,"'
     'num":-1},"d":{"den":1,"num":0}}}'),
    (["geo", "line", "points", "(1,2,3)", "(4,6,8)"],
     "(x-(1))/3 = (y-(2))/4 = (z-(3))/5",
     '{"line":{"dir":[{"den":1,"num":3},{"den":1,"num":4},{"den":1,"'
     'num":5}],"point":[{"den":1,"num":1},{"den":1,"num":2},{"den":1'
     ',"num":3}]}}'),
    (["geo", "line", "planes", "2 -1 -1 -4", "2 -3 -2 7"],
     "(x-(19/4))/-1 = (y-(11/2))/2 = (z-(0))/-4",
     '{"line":{"dir":[{"den":1,"num":-1},{"den":1,"num":2},{"den":1,'
     '"num":-4}],"point":[{"den":4,"num":19},{"den":2,"num":11},{"de'
     'n":1,"num":0}]}}'),
    (["geo", "relate", "planes", "1 3 -4 5", "2 2 2 -7"],
     "kind: intersecting\n"
     "angle = 1.570796327\n"
     "line: (x-(0))/14 = (y-(9/7))/-10 = (z-(31/14))/-4",
     '{"angle":1.5707963267948966,"identical":false,"intersection":{'
     '"dir":[{"den":1,"num":14},{"den":1,"num":-10},{"den":1,"num":-'
     '4}],"point":[{"den":1,"num":0},{"den":7,"num":9},{"den":14,"nu'
     'm":31}]},"parallel":false,"perpendicular":true}'),
    (["geo", "relate", "planes", "1 1 1 1", "2 2 2 5"],
     "kind: parallel\n"
     "angle = 0",
     '{"angle":0.0,"identical":false,"intersection":null,"parallel":'
     'true,"perpendicular":false}'),
    (["geo", "relate", "lines", "point=(0,0,0) dir=(1,0,0)", "point=(0,0,0) dir=(0,1,0)"],
     "kind: intersecting\n"
     "angle = 1.570796327\n"
     "point: (0, 0, 0)",
     '{"angle":1.5707963267948966,"kind":"intersecting","point":[{"d'
     'en":1,"num":0},{"den":1,"num":0},{"den":1,"num":0}]}'),
    (["geo", "relate", "lines", "point=(0,0,0) dir=(1,0,0)", "point=(0,1,0) dir=(0,0,1)"],
     "kind: skew\n"
     "angle = 1.570796327\n"
     "d = 1 (d^2 = 1)",
     '{"angle":1.5707963267948966,"d":1.0,"d_sq":{"den":1,"num":1},"'
     'kind":"skew"}'),
    (["geo", "relate", "lineplane", "(x-1)/3 = (y-2)/-2 = (z-3)/1", "6 -4 2 7"],
     "kind: intersecting\n"
     "point: (-5/28, 39/14, 73/28)\n"
     "sin angle = 1",
     '{"kind":"intersecting","point":[{"den":28,"num":-5},{"den":14,'
     '"num":39},{"den":28,"num":73}],"sin_angle":1.0,"t":{"den":28,"'
     'num":-11}}'),
    (["geo", "relate", "lineplane", "point=(0,0,1) dir=(1,0,0)", "0 0 1 0"],
     "kind: parallel_disjoint\n"
     "d = 1 (d^2 = 1)",
     '{"d":1.0,"d_sq":{"den":1,"num":1},"kind":"parallel_disjoint"}'),
    (["geo", "relate", "lineplane", "point=(0,0,0) dir=(1,0,0)", "0 0 1 0"],
     "kind: contained",
     '{"kind":"contained"}'),
    (["geo", "dist", "pointplane", "(0,6,4)", "1 -2 -2 3"],
     "d = 5.666666667 (d^2 = 289/9)",
     '{"d":5.666666666666667,"d_sq":{"den":9,"num":289}}'),
    (["geo", "dist", "pointline", "(0,1,0)", "point=(0,0,0) dir=(1,0,0)"],
     "d = 1 (d^2 = 1)",
     '{"d":1.0,"d_sq":{"den":1,"num":1}}'),
    (["geo", "dist", "lines", "point=(0,0,0) dir=(1,0,0)", "point=(0,1,0) dir=(0,0,1)"],
     "d = 1 (d^2 = 1)",
     '{"d":1.0,"d_sq":{"den":1,"num":1}}'),
    (["geo", "dist", "lines", "point=(0,0,0) dir=(1,0,0)", "point=(0,0,0) dir=(0,1,0)"],
     "kind: intersecting, d = 0",
     '{"kind":"intersecting"}'),
    (["mix", "prop", "x+9", "6", "x", "5"],
     "45",
     '{"x":{"den":1,"num":45}}'),
    (["mix", "split", "198", "1:2:3:5"],
     "18, 36, 54, 90",
     '{"parts":[{"den":1,"num":18},{"den":1,"num":36},{"den":1,"num"'
     ':54},{"den":1,"num":90}]}'),
    (["mix", "percent", "--i", "30", "--p", "32%"],
     "375/4",
     '{"value":{"den":4,"num":375}}'),
    (["mix", "chain", "--start", "100", "--", "-10", "+15"],
     "207/2",
     '{"value":{"den":2,"num":207}}'),
    (["mix", "simple", "48", "78", "60", "10"],
     "6, 4",
     '{"amounts":[{"den":1,"num":6},{"den":1,"num":4}],"degenerate":'
     "false}"),
    (["mix", "simple", "50", "50", "50", "10"],
     "10, 0 (degenerate: any split works)",
     '{"amounts":[{"den":1,"num":10},{"den":1,"num":0}],"degenerate"'
     ":true}"),
    (["mix", "star", "120", "560", "160", "140", "110", "50"],
     "280, 40, 80, 160",
     '{"amounts":[{"den":1,"num":280},{"den":1,"num":40},{"den":1,"n'
     'um":80},{"den":1,"num":160}]}'),
]


@pytest.mark.parametrize("argv,text,payload", COMMAND_GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in COMMAND_GOLDEN])
def test_command_golden(argv, text, payload, capsys):
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == text + "\n"
    assert dispatch(["--json"] + argv) == 0
    assert capsys.readouterr().out == payload + "\n"


def test_every_command_and_choice_has_goldens():
    """No command lands without text and --json goldens for each of its
    `choices` values and flags."""
    pinned = [argv for argv, _, _ in ELIMINATION_GOLDEN + COMMAND_GOLDEN]
    assert ({tuple(argv[:2]) for argv in pinned}
            == {(command.group, command.op) for command in COMMANDS})
    for command in COMMANDS:
        tokens = {token for argv in pinned if argv[:2] == [command.group, command.op]
                  for token in argv[2:]}
        for names, options in command.args:
            wanted = set(options.get("choices", ()))
            if options.get("action") == "store_true":
                wanted.add(names[0])
            assert wanted <= tokens, (command.group, command.op, wanted - tokens)


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


HUGE = "1" * 5000  # past Python's 4300-digit int/str conversion limit
LCM_A, LCM_B = "9" * 3000, "7" * 2999  # gcd 7, so their lcm has 5999 digits
# operands that parse but whose results pass the digit limit or the float range
DIAGONAL_2000 = "; ".join(" ".join("9" * 2000 if i == j else "0" for j in range(3))
                          for i in range(3))
GOOGOL_4 = "1" + "0" * 400
NINES_400 = "9" * 400  # its powers pass the digit limit long before they are formed
PAST_DIGITS = "too large: a result has more than 4300 digits"
PAST_FLOATS = "out of domain: a value is outside the float range"
TOO_LONG = "parse error: a literal of 5000 digits exceeds the limit of 4300\n"
# argvs whose parse error is pinned in full
PARSE_ERRORS = {
    ("cx", "arith", "add", "1", HUGE): TOO_LONG,
    ("set", "power", "{" + HUGE + "}"): TOO_LONG,
    ("mix", "split", HUGE, "1:2"): TOO_LONG,
    ("geo", "vec", f"(1,{HUGE},2)", "(1,0,0)"): TOO_LONG,
    ("rel", "props", f"{{(1,{HUGE})}}"): TOO_LONG,
    ("alg", "classify"): "parse error: give a table (or --addmod/--mulmod N)\n",
    ("alg", "cayley", "e a"): "parse error: table input: carrier line, then |S| rows\n",
    ("alg", "cayley", "e a\ne a"): "parse error: table shape must match the carrier\n",
    ("alg", "cayley", "e e\ne e\ne e"): "parse error: carrier elements must be distinct\n",
    ("sys", "gauss", "1 2; 3 4"): "parse error: system input is 'A | b' (or use --augmented)\n",
    ("sys", "classify", "1; 2", "--augmented"):
        "parse error: an augmented matrix needs at least 2 columns\n",
    ("mix", "prop", " ", "2", "x", "3"): "parse error: empty proportion member\n",
    ("mix", "percent", "--i", "30", "--p", "3x%"): "parse error: not a rational literal: '3x'\n",
    ("cx", "polar", "i+2i"): "parse error: two imaginary parts in 'i+2i'\n",
    ("cx", "arith", "add", "1+2", "i"): "parse error: two real parts in '1+2'\n",
}


def argv_id(argv):
    """The argv joined by spaces, with a token over 40 characters given by
    its length."""
    return " ".join(t if len(t) <= 40 else f"<{len(t)} characters>" for t in argv)


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
    *map(list, PARSE_ERRORS),
], ids=argv_id)
def test_missing_or_malformed_operand_is_a_parse_error(argv, capsys):
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ")
    assert captured.err == PARSE_ERRORS.get(tuple(argv), captured.err)


def test_a_result_past_the_digit_limit_is_a_domain_error(capsys):
    """Python cannot print the value of 5000 base-12 digits in decimal."""
    assert dispatch(["nt", "frombase", HUGE, "12"]) == 1
    assert capsys.readouterr() == (
        "", "too large: 5000 base-12 digits give more than 4300 decimal digits\n")
    assert dispatch(["nt", "frombase", HUGE, "2"]) == 0
    assert capsys.readouterr().out == str(int(HUGE, 2)) + "\n"


@pytest.mark.parametrize("argv,err", [
    (["alg", "classify", "--addmod", "0"], "out of domain: modulus must be >= 1, got 0"),
    (["alg", "classify", "--mulmod", "-1"], "out of domain: modulus must be >= 1, got -1"),
], ids=["addmod 0", "mulmod -1"])
def test_nonpositive_modulus_is_a_domain_error(argv, err, capsys):
    assert dispatch(argv) == 1
    assert capsys.readouterr() == ("", err + "\n")


@pytest.mark.parametrize("argv,err", [
    (["cx", "pow", "2", "2000"],
     "out of domain: z^n for |z| = 2, n = 2000 is outside the float range"),
    (["cx", "pow", "1/2", "2000"],
     "out of domain: z^n for |z| = 0.5, n = 2000 is outside the float range"),
    (["alg", "classify", "--addmod", "65"], "too large: carrier of 65 elements exceeds 64"),
    (["alg", "cayley", "--addmod", "100000000"],
     "too large: carrier of 100000000 elements exceeds 64"),
    (["comb", "fact", "2000"], "too large: 2000! exceeds the cap of 1500!"),
    (["--json", "comb", "fact", "2000"], "too large: 2000! exceeds the cap of 1500!"),
    (["comb", "binom", "20000", "10000"],
     "too large: binom(20000, 10000) has more than 4300 digits"),
    (["cx", "roots", "1", "10001"], "too large: 10001 roots exceed the cap of 10000"),
    (["mat", "det", "--method", "laplace", "-"],
     "too large: Laplace expansion of order 9 exceeds the cap of 8"),
    (["nt", "lcm", LCM_A, LCM_B], PAST_DIGITS),
    (["comb", "term", "10000", "0", "1/3", "1", "1", "1"], PAST_DIGITS),
    (["--json", "comb", "term", "10000", "0", "1/3", "1", "1", "1"], PAST_DIGITS),
    (["comb", "expand", "14000", "2", "1", "1", "0"], PAST_DIGITS),
    (["comb", "term", "100000", "0", NINES_400, "1", "1", "1"],
     "too large: the coefficient of term 0 has more than 4300 digits"),
    (["comb", "expand", "4000", NINES_400, "1", "1", "0"],
     "too large: an end term of the expansion has more than 4300 digits"),
    (["comb", "expand", "4000", NINES_400, "1", NINES_400, "1"],
     "too large: the merged term of the expansion has more than 4300 digits"),
    (["comb", "expand", "4000", NINES_400, "1", "1", "1"],
     "too large: the merged term of the expansion has more than 4300 digits"),
    (["comb", "sum", "squares", "1" + "0" * 1500], PAST_DIGITS),
    (["mat", "det", DIAGONAL_2000], PAST_DIGITS),
    (["--json", "mat", "det", DIAGONAL_2000], PAST_DIGITS),
    (["cx", "polar", GOOGOL_4], PAST_FLOATS),
    (["cx", "pow", GOOGOL_4, "2"], PAST_FLOATS),
    (["cx", "roots", GOOGOL_4, "3"], PAST_FLOATS),
    (["geo", "vec", f"({GOOGOL_4},0,0)", "(1,0,0)"], PAST_FLOATS),
], ids=argv_id)
def test_out_of_range_operand_is_a_domain_error(argv, err, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(IDENTITY_9))
    assert dispatch(argv) == 1
    assert capsys.readouterr() == ("", err + "\n")


def test_a_value_error_other_than_the_digit_limit_propagates(monkeypatch):
    """Only the int/str digit limit becomes an exit code: any other
    ValueError is a bug in the kernel and shows as a traceback."""
    def broken(a, b):
        raise ValueError("a kernel bug")

    monkeypatch.setattr("exactmath.arith.lcm", broken)
    with pytest.raises(ValueError, match="^a kernel bug$"):
        dispatch(["nt", "lcm", "4", "6"])


# a negative fraction or percent is an operand, not an option; '-' alone is stdin
NEGATIVE_OPERANDS = [
    (["mix", "chain", "--start", "100", "-10%", "+15%"], 0, "207/2\n", ""),
    (["mix", "percent", "--i", "30", "--p", "-3%"], 1, "",
     "non positive: p must be positive to recover G\n"),
    (["mat", "arith", "scale", "1 2; 3 4", "-1/2"], 0, "-1/2 -1\n-3/2 -2\n", ""),
    (["mix", "chain", "--start", "-", "-10%", "+15%"], 0, "207/2\n", ""),
]


@pytest.mark.parametrize("argv,code,out,err", NEGATIVE_OPERANDS,
                         ids=[" ".join(argv) for argv, *_ in NEGATIVE_OPERANDS])
def test_negative_fraction_or_percent_is_an_operand(argv, code, out, err, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("100"))
    assert dispatch(argv) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("argv,out", [
    (["comb", "expand", "3", "--", "-1", "1", "1", "0"], "1 - 3*x + 3*x^2 - x^3\n"),
    (["comb", "term", "3", "3", "1", "1", "-1", "1"], "-x^3\n"),
    (["comb", "term", "3", "1", "0", "1", "1", "1"], "0\n"),
    (["comb", "expand", "3", "--", "-1", "2", "1", "2"], "0\n"),
], ids=" ".join)
def test_binomial_terms_print_as_a_signed_sum(argv, out, capsys):
    assert dispatch(argv) == 0
    assert capsys.readouterr() == (out, "")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["mat", "det"])
    assert exc.value.code == 2


def test_stdin_placeholder(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("2 -3; 0 1"))
    assert dispatch(["mat", "det", "-"]) == 0
    assert capsys.readouterr().out == "2\n"


# argv, stdin, stdout: '-' in a geometry part, a plane point, an option, the
# second matrix operand, a mixture total and a proportion member
STDIN_CASES = [
    (["geo", "dist", "pointplane", "-", "1 0 0 0"], "(3,4,5)", "d = 3 (d^2 = 9)\n"),
    (["geo", "plane", "three", "-", "(-2,0,4)", "(2,3,-1)"], "(1,1,1)",
     "4x + 3y + 5z - 12 = 0\n"),
    (["geo", "relate", "lines", "-", "point=(0,0,0) dir=(1,0,0)"],
     "point=(1,1,0) dir=(0,1,0)", "kind: intersecting\nangle = 1.570796327\npoint: (1, 0, 0)\n"),
    (["rel", "props", "{(1,1),(2,2)}", "--on", "-"], "{1,2,3}",
     "reflexive: false\nantireflexive: false\nsymmetric: true\nantisymmetric: true\n"
     "transitive: true\nequivalence: false\npartial_order: false\n"),
    (["mat", "arith", "scale", "1 2; 3 4", "-"], "-1/2", "-1/2 -1\n-3/2 -2\n"),
    (["mix", "split", "-", "1:4"], "10\n", "2, 8\n"),
    (["mix", "prop", "-", "2", "x", "3"], "x+1", "-3\n"),
]


@pytest.mark.parametrize("argv,stdin,out", STDIN_CASES,
                         ids=[" ".join(argv) for argv, _, _ in STDIN_CASES])
def test_stdin_placeholder_in_every_literal_operand(argv, stdin, out, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert dispatch(argv) == 0
    assert capsys.readouterr() == (out, "")


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


# `--help` of all 63 parsers: the top level, each group and each op.
# cli_help.json holds what argparse printed with COLUMNS=80 under Python
# 3.11; argparse's layout differs between Python versions.
HELP = json.loads(Path(__file__).with_name("cli_help.json").read_text(encoding="utf-8"))
HELP_PREFIXES = [[], *([group] for group in GROUPS),
                 *([command.group, command.op] for command in COMMANDS)]


@pytest.mark.parametrize("prefix", HELP_PREFIXES, ids=lambda p: " ".join(["exactmath", *p]))
def test_help_text_is_pinned(prefix, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        dispatch([*prefix, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (HELP[" ".join(["exactmath", *prefix])], "")
    assert len(HELP_PREFIXES) == len(HELP) == 63


USAGE = ("usage: exactmath [-h] [--json]\n"
         "                 {nt,comb,logic,set,rel,alg,cx,mat,sys,geo,mix} ...\n")


@pytest.mark.parametrize("argv,err", [
    (["foo"], USAGE + "exactmath: error: argument group: invalid choice: 'foo' (choose from "
     "'nt', 'comb', 'logic', 'set', 'rel', 'alg', 'cx', 'mat', 'sys', 'geo', 'mix')\n"),
    (["mat"], "usage: exactmath mat [-h] {arith,det,adj,inverse,rank,solveq} ...\n"
     "exactmath mat: error: the following arguments are required: op\n"),
    (["--json"], USAGE + "exactmath: error: the following arguments are required: group\n"),
], ids=" ".join)
def test_usage_error_text(argv, err, capsys, monkeypatch):
    """A bad group, a missing op and --json alone print argparse's usage
    error, the same whichever ops the parser was built with."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", err)


# One argv per group and the kernel modules it may import besides the
# package, cli, errors and rationals, which every run imports.
IMPORT_BUDGET = [
    (["nt", "gcd", "12", "18"], {"arith"}),
    (["comb", "sum", "odd", "4"], {"combin"}),
    (["logic", "table", "p & q"], {"logic"}),
    (["set", "power", "{a,b}"], {"parsing", "sets"}),
    (["rel", "props", "{(1,1),(1,2),(2,2)}"], {"parsing", "relations", "sets"}),
    (["alg", "classify", "--addmod", "3"], {"algstruct"}),
    (["cx", "polar", "1+i"], {"complexn", "parsing"}),
    (["mat", "det", "1 2; 3 4"], {"matrices"}),
    (["--json", "sys", "gauss", "1 1; 1 -1 | 2 0"], {"matrices", "systems"}),
    (["geo", "dist", "pointplane", "(1,2,3)", "1 0 0 0"], {"geometry", "parsing"}),
    (["mix", "split", "10", "1:4"], {"ratio"}),
]


@pytest.mark.parametrize("argv,modules", IMPORT_BUDGET,
                         ids=[" ".join(argv) for argv, _ in IMPORT_BUDGET])
def test_a_run_imports_only_the_modules_its_group_uses(argv, modules):
    """A fresh interpreter runs the argv and lists the exactmath modules it
    loaded; `mat det` loads exactmath, cli, errors, rationals and matrices.
    It starts without site (-S), so that no .pth file preloads a module,
    and no run loads typing."""
    code = ("import sys\nfrom exactmath.cli import dispatch\ncode = dispatch(sys.argv[1:])\n"
            "print('typing' in sys.modules)\n"
            "print(code, *sorted(m for m in sys.modules if m.startswith('exactmath')))")
    src = str(Path(exactmath.__file__).resolve().parent.parent)
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    typing_loaded, loaded = proc.stdout.splitlines()[-2:]
    assert typing_loaded == "False"
    assert loaded.split() == ["0", "exactmath", *sorted(f"exactmath.{m}" for m in
                                                        {"cli", "errors", "rationals", *modules})]


# -- argv fuzzing ----------------------------------------------------------

SMALL_INTS = ["-1", "0", "1", "2", "3", "7", "12", "x", "1/2"]
IDENTITY_9 = "; ".join(" ".join("1" if i == j else "0" for j in range(9)) for i in range(9))
DIAGONAL_12 = "; ".join(" ".join(str(i + 1) if i == j else "0" for j in range(12))
                        for i in range(12))
# (10^9+7)(10^9+9), a prime above the Miller-Rabin bound, two 20-digit primes
FACTOR_INTS = ["1000000016000000063", "4000000000000000000000027",
               "1000000000000000001730000000000000000649"]
# operands whose size is capped, so large values end quickly
CAPPED_INTS = {
    ("nt", "factor", "n"): FACTOR_INTS,
    ("nt", "prime", "n"): FACTOR_INTS,
    ("comb", "expand", "n"): ["4000", "100000", "1000000"],
    ("nt", "lcm", "a"): [LCM_A],
    ("nt", "lcm", "b"): [LCM_B],
    ("mat", "det", "a"): [IDENTITY_9, DIAGONAL_12],
    ("comb", "fact", "n"): ["1500", "1501", "1000000"],
    ("comb", "binom", "n"): ["14000", "20000", "1000000"],
    ("comb", "binom", "k"): ["7000", "10000", "500000"],
    ("cx", "pow", "n"): ["2000", "-2000", "1000000"],
    ("cx", "roots", "n"): ["10000", "10001", "1000000000"],
    ("alg", "cayley", "--addmod"): ["65", "100000000"],
    ("alg", "cayley", "--mulmod"): ["65", "100000000"],
    ("alg", "classify", "--addmod"): ["65", "100000000"],
    ("alg", "classify", "--mulmod"): ["65", "100000000"],
}
TOKENS = [
    "2", "1/2", "-", "", "0", "1", "1/0", "x", "x+9", "2x-3", "32%", "5‰", "1:2:3", "0:0",
    "{}", "{a,b,c}", "{1,2}", "{1,a}", "{(1,1),(2,2),(1,2)}", "{(1,2),(2,3)}", "{(a,b)}", "{",
    "3+4i", "i", "2-5i", "(1,2,3)", "(0,0,0)", "(1,0,0)", "(1,2)", "1 -2 -2 3", "0 0 1 0",
    "point=(0,0,0) dir=(1,0,0)", "(x-1)/3 = (y-2)/-2 = (z-3)/1", "point=(1,1,1) dir=(0,0,0)",
    "1 2; 3 4", "3 2 -1; 1 2 4; 0 6 -2", "1 2 3", "1 2; 3", "0 0; 0 0", "1 1; 1 -1 | 2 0",
    "1 1 2; 1 1 3", "1 2 |", "p & !q", "p -> (q -> p)", "p &", "e a\ne a\na e", "a b\na c\nb b",
    HUGE, "9" * 400, "7" * 2500, "(1," + "9" * 400 + ",0)", "1" + "0" * 400 + "+i",
]
ARITY = {None: (1, 1), "?": (0, 1), "+": (1, 3), "*": (0, 3)}


def fuzz_argv(command):
    """Argvs of the right arity for one command, drawn from the alphabets above."""
    parts = [st.sampled_from([[], ["--json"]]), st.just([command.group, command.op])]
    for names, options in command.args:
        name = names[0]
        if options.get("action") == "store_true":
            parts.append(st.sampled_from([[], [name]]))
            continue
        values = st.sampled_from(
            options.get("choices")
            or CAPPED_INTS.get((command.group, command.op, name), [])
            + (SMALL_INTS if options.get("type") is int else TOKENS))
        if name.startswith("--"):
            parts.append(st.one_of(st.just([]), values.map(lambda v, name=name: [name, v])))
        else:
            low, high = ARITY.get(options.get("nargs"), (options.get("nargs"),) * 2)
            parts.append(st.lists(values, min_size=low, max_size=high))
    return st.tuples(*parts).map(lambda chunks: sum(chunks, []))


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: f"{c.group} {c.op}")
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_every_argv_ends_in_an_exit_code(command, data):
    """Any argv of the right shape exits 0, 1 or 2 (argparse's SystemExit(2)
    included), never with a traceback, and prints nothing on stdout when it
    fails.  Operands stay small except where a cap bounds the work, and
    except the long literals, whose results pass the int/str digit limit or
    the float range."""
    argv = data.draw(fuzz_argv(command))
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO("1 2; 3 4")), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = dispatch(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2, argv
    assert code in (0, 1, 2), argv
    assert code == 0 or out.getvalue() == "", argv
