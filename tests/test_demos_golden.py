"""The stdout of every demo, compared byte for byte with `demos_golden.json`.

The demos walk through the public API, so their output pins the numbers
they print across refactors.  Regenerate the file only for an intended
change of output:

    PYTHONPATH=src python tests/test_demos_golden.py
"""

import contextlib
import io
import json
import runpy
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("demos_golden.json")
DEMOS = sorted(Path(__file__).resolve().parents[1].joinpath("demos").glob("*.py"))


def run_demo(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def test_every_demo_is_pinned():
    assert sorted(json.loads(GOLDEN.read_text())) == [path.name for path in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_stdout_matches_golden(path):
    assert run_demo(path) == json.loads(GOLDEN.read_text())[path.name]


if __name__ == "__main__":
    golden = {path.name: run_demo(path) for path in DEMOS}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} demos to {GOLDEN}", file=sys.stderr)
