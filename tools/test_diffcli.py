"""Self-test of the differential CLI check; needs git and a commit:

    python -m pytest -q tools/test_diffcli.py
"""

import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import diffcli  # noqa: E402
from exactmath.cli import COMMANDS  # noqa: E402


def test_a_seed_draws_the_same_argvs_for_every_command():
    argvs = diffcli.draw(COMMANDS, 7, 3)
    assert argvs == diffcli.draw(COMMANDS, 7, 3) != diffcli.draw(COMMANDS, 8, 3)
    drawn = {tuple(a for a in argv if a != "--json")[:2] for argv in argvs}
    assert drawn == {(c.group, c.op) for c in COMMANDS}


def test_no_difference_against_head_itself(tmp_path):
    """Two runs of the same revision give the same results."""
    src = diffcli.extract("HEAD", tmp_path)
    argvs = diffcli.draw(COMMANDS, 1, 2)
    before, after = (diffcli.finish(diffcli.start(src, argvs)) for _ in range(2))
    assert len(before) == len(argvs) and before == after


def test_a_changed_message_is_a_difference(tmp_path):
    """Each side's child process reports what its own src/ prints."""
    src = diffcli.ROOT / "src"
    changed = tmp_path / "src"
    shutil.copytree(src, changed, ignore=shutil.ignore_patterns("__pycache__"))
    combin = changed / "exactmath" / "combin.py"
    combin.write_text(combin.read_text().replace("expansion requires n >= 1", "n must be >= 1"))
    argvs = [["comb", "expand", "0", "1", "1", "1", "0"], ["nt", "gcd", "4", "6"]]
    before, after = (diffcli.finish(diffcli.start(str(s), argvs)) for s in (src, changed))
    assert before[0] == [1, "", "out of domain: expansion requires n >= 1, got 0\n"]
    assert after[0] == [1, "", "out of domain: n must be >= 1, got 0\n"]
    assert before[1] == after[1] == [0, "2\n", ""]
