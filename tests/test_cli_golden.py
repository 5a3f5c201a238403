"""CLI JSON of fixed commands, compared byte for byte with `cli_golden.json`.

The reference file pins the output of the whole pipeline (parse, realize,
closed forms, resolution, Swan invariants, q-bounds, reproduce) across
refactors.  Regenerate it only for an intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from eulerchar.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

COMMANDS = [
    ["reproduce"],
    ["bounds", "Q(8)"],
    ["bounds", "J(2)"],
    ["bounds", "U(5,3,1,4)"],
    ["bounds", "Usd(7,3;1,2)"],
    ["bounds", "Prod(E(3,2),C(4))"],
    ["bounds", "E(3,3)"],
    ["bounds", "C(6)"],
    ["qs4", "J(3)"],
    ["swan", "U(3,1,1,2)"],
    ["swan", "Q(12)"],
    ["series", "J(3)"],
    ["series", "Q(8)"],
    ["oracle-check", "J(2)", "--p", "2"],
    ["oracle-check", "Prod(C(2),C(4))", "--p", "2"],
    ["bounds", "J(10)", "--n", "8"],
    ["swan", "U(13,4,1,4)", "--nmax", "8"],
    ["swan", "Usd(31,30;1,7,11,13,17)", "--nmax", "8"],
    ["swan", "J(14)", "--nmax", "8"],
    ["bounds", "J(13)", "--n", "8"],
    ["swan", "Usd(2,7;1,2,4,3,6,5)", "--nmax", "6"],
]


def run_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", "json"])
    return code, out.getvalue()


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_json_matches_golden(argv):
    expected = json.loads(GOLDEN.read_text())[" ".join(argv)]
    code, out = run_json(argv)
    assert code == expected["exit_code"]
    # the CLI prints json.dumps(report, indent=2, sort_keys=True)
    assert out == json.dumps(expected["report"], indent=2, sort_keys=True) + "\n"


if __name__ == "__main__":
    golden = {}
    for argv in COMMANDS:
        code, out = run_json(argv)
        golden[" ".join(argv)] = {"exit_code": code, "report": json.loads(out)}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} commands to {GOLDEN}", file=sys.stderr)
