"""numpy and the resolution engine load only when a group is realized.

Each check runs in a fresh interpreter, since the test process has long
since imported both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import eulerchar

ENGINE = ("numpy", "eulerchar.resolution", "eulerchar.oracle")
CLOSED_FORM_COMMANDS = (
    ["bounds", "J(3)", "--n", "2"],
    ["swan", "U(5,3,1,4)"],
    ["series", "E(3,2)"],
    ["qs4", "Usd(5,4;1,2)"],
    ["series", "Prod(C(30),C(29))"],  # order 870: an answer realized nothing
    ["bounds", "Usd(7,3;1)", "--n", "4"],  # the period 6 in closed form
)
EXPORTED = sorted("""
    BudgetError EulerCharError RealizeError SpecError TruncationError UnsupportedFamilyError
    ConcreteGroup GroupSpec Product Quaternion Semidirect TableGroup parse_spec realize
    cochain_cohomology_dim fixed_space_dim rank_mod_p
    KNOWN_EXACT_Q4 QBoundReport Verdict VerdictKind annotation_for bounds_from_invariants
    euler_sign_check periodic_exact_value q_bound_report
    FpModule semidirect_character_module verify_series
    DimSeries series_cyclic series_elementary_abelian trivial_series
    Exceptionality compute_en compute_mun en_value series_bundle swan_formula swan_report
""".split())


def run_fresh(code: str):
    """Run `code` in a new interpreter that imports this eulerchar; its printed JSON."""
    src = str(Path(eulerchar.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_closed_form_commands_load_neither_numpy_nor_the_engine():
    stages = run_fresh(f"""
import contextlib, io, json, sys
import eulerchar, eulerchar.cli
loaded = lambda: [name for name in {ENGINE!r} if name in sys.modules]
eulerchar.cli.build_parser()
stages = {{"import and build_parser": [0, loaded()]}}
for argv in {CLOSED_FORM_COMMANDS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = eulerchar.cli.main(argv)
    stages[" ".join(argv)] = [code, loaded()]
print(json.dumps(stages))
""")
    assert len(stages) == 1 + len(CLOSED_FORM_COMMANDS)
    assert stages == {stage: [0, []] for stage in stages}


def test_declared_period_refusals_load_neither_numpy_nor_the_engine():
    # the families' periods are closed forms: an exact value, no period where the spec shows
    # C_p x C_p, a declared exceptional pair refused on a cyclic group and on a group with no
    # period, and --period refused
    answers, loaded = run_fresh(f"""
import contextlib, io, json, sys
import eulerchar.cli
answers = {{}}
for argv in ("bounds Usd(7,3;1) --n 4", "bounds E(3,2) --n 3", "bounds Prod(C(3),C(3)) --n 3",
             "bounds Usd(7,3;0,0) --n 3", "bounds C(21) --n 3 --exceptional yes", "bounds E(3,2) --n 3 --period 4",
             "bounds E(3,2) --n 3 --exceptional yes", "bounds 1 --n 3 --exceptional yes",
             "bounds Prod(C(3),C(3)) --n 3 --exceptional yes", "swan E(3,2) --exceptional yes",
             "bounds E(3,2) --n 3 --exceptional no", "bounds 1 --n 3 --exceptional no"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = eulerchar.cli.main(argv.split() + ["--format", "json"])
    answers[argv] = [code, json.loads(out.getvalue())["exact"] if code == 0 else None]
print(json.dumps([answers, [name for name in {ENGINE!r} if name in sys.modules]]))
""")
    assert loaded == []
    assert answers == {
        "bounds Usd(7,3;1) --n 4": [0, 2],
        "bounds E(3,2) --n 3": [0, None],
        "bounds Prod(C(3),C(3)) --n 3": [0, None],
        "bounds Usd(7,3;0,0) --n 3": [0, None],
        "bounds C(21) --n 3 --exceptional yes": [2, None],
        "bounds E(3,2) --n 3 --period 4": [1, None],
        "bounds E(3,2) --n 3 --exceptional yes": [2, None],
        "bounds 1 --n 3 --exceptional yes": [2, None],
        "bounds Prod(C(3),C(3)) --n 3 --exceptional yes": [2, None],
        "swan E(3,2) --exceptional yes": [2, None],
        "bounds E(3,2) --n 3 --exceptional no": [0, None],
        "bounds 1 --n 3 --exceptional no": [0, None],
    }


def test_a_prime_not_dividing_the_order_reads_the_trivial_series():
    # C(m) is a Semidirect with no exponents over the least prime not dividing m (3 for
    # 2000000 = 2^7 5^6, 5 for 6); there the series is Maschke's, not the character kernel's,
    # which refuses a modulus m past 2^20
    outputs, loaded = run_fresh(f"""
import contextlib, io, json, sys
import eulerchar.cli
outputs = {{}}
for argv in ("series C(2000000) --p 3 --nmax 3", "series C(6) --p 5"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = eulerchar.cli.main(argv.split())
    outputs[argv] = [code, out.getvalue()]
print(json.dumps([outputs, [name for name in {ENGINE!r} if name in sys.modules]]))
""")
    assert loaded == []
    assert outputs == {
        "series C(2000000) --p 3 --nmax 3": [0, "dimension series of C(2000000), degrees 0..3\n    F3: 1 0 0 0\n"],
        "series C(6) --p 5": [0, "dimension series of C(6), degrees 0..6\n    F5: 1 0 0 0 0 0 0\n"],
    }


def test_every_exported_name_resolves():
    assert len(EXPORTED) == 40
    assert sorted(eulerchar.__all__) == EXPORTED
    as_attribute = run_fresh(f"""
import json, sys
import eulerchar
missing = [name for name in {EXPORTED!r} if not hasattr(eulerchar, name)]
print(json.dumps([missing, sorted(set({EXPORTED!r}) - set(dir(eulerchar))), "numpy" in sys.modules]))
""")
    assert as_attribute == [[], [], True]  # the engine names loaded numpy on first access
    by_import = run_fresh(f"""
import json
from eulerchar import {", ".join(EXPORTED)}
print(json.dumps(sorted(name for name in {EXPORTED!r} if name in globals())))
""")
    assert by_import == EXPORTED


def test_realizing_a_group_loads_numpy_but_not_the_engine():
    loaded = run_fresh(f"""
import json, sys
from eulerchar import parse_spec, realize
realize(parse_spec("J(2)"))
print(json.dumps([name for name in {ENGINE!r} if name in sys.modules]))
""")
    assert loaded == ["numpy"]
