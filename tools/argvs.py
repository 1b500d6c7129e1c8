"""Literal operands for each exactmath operand grammar, and how many values
an argparse nargs takes.  The command-line fuzz test (tests/test_cli.py)
draws from their union; tools/diffcli.py draws each operand from its own
grammar's list."""

ARITY = {None: (1, 1), "?": (0, 1), "+": (1, 3), "*": (0, 3)}

FORMULAS = ["p & q", "p & !q", "p -> (q -> p)", "!(p | q) <-> (!p & !q)", "p ^ q", "a1 & !a1",
            "p &", "(p -> q) & (q -> r) -> (p -> r)", "x | y | z | w", "~p | q", "p <-> p",
            "p & q ", "  p", "p q", "(p", ")", "P", "p @ q", "p -> -> q", "p &  \t#", "p)",
            "()", "p & ()", "p & !"]
SETS = ["{}", "{a,b,c}", "{1,2}", "{1,a}", "{1,2,3,4}", "{a}", "{2,3}", "{", "{1,1}"]
RELATIONS = ["{(1,1),(2,2),(1,2)}", "{(1,2),(2,3)}", "{(a,b)}", "{}", "{(1,2),(2,1)}",
             "{(1,1),(2,2),(3,3),(1,2),(2,1)}", "{(1,1)}", "{(1,2"]
TABLES = ["e a\ne a\na e", "a b\na c\nb b", "0 1\n0 1\n1 0", "a\na", "a b\na b\nb a", "x y\nx"]
COMPLEX = ["3+4i", "i", "2-5i", "0", "1/2-i", "-1", "1+i", "-i", "3+4j"]
VEC3 = ["(1,2,3)", "(0,0,0)", "(1,0,0)", "(-1,1/2,2)", "(2,4,6)", "(0,1,0)", "(1,2)"]
PLANES = ["1 -2 -2 3", "0 0 1 0", "2 -4 -4 1", "1 1 1 -1", "0 0 0 1", "1 0 0 0", "2 -4 -4 6"]
LINES = ["point=(0,0,0) dir=(1,0,0)", "(x-1)/3 = (y-2)/-2 = (z-3)/1",
         "point=(1,1,1) dir=(0,0,0)", "point=(1,2,3) dir=(2,-1,1)", "point=(0,1,0) dir=(1,0,0)"]
PERCENTS = ["10%", "32%", "40%", "25", "-3%", "5‰", "+15%", "-10%", "100", "0", "1/2"]
MEMBERS = ["x", "x+9", "2x-3", "3", "1/2", "0", "4", "3x+1"]
WEIGHTS = ["1:2:3", "0:0", "2:3", "1/2:1/3", "-1:2", "5"]
