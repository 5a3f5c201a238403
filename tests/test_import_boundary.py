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
)
EXPORTED = sorted("""
    CharMultiset exterior_power symmetric_power twisted_euler
    BudgetError EulerCharError MissingMetadataError RealizeError SpecError TruncationError UnsupportedFamilyError
    ConcreteGroup Cyclic ElementaryAbelian Frobenius GroupMeta GroupSpec Product Quaternion Semidirect
    SemidirectIsotypic TableGroup Trivial frobenius_exponents parse_spec realize
    RankResult cochain_cohomology_dim fixed_space_dim rank_mod_p
    KNOWN_EXACT_Q4 QBoundReport Verdict VerdictKind annotation_for bounds_from_invariants
    euler_sign_check periodic_exact_value q_bound_report qs4_verdict subgroup_refine
    ComparisonRow FpModule semidirect_character_module verify_series
    DimSeries series_cyclic series_elementary_abelian series_product trivial_series
    Exceptionality MunResult SwanReport SwanRow compute_en compute_mun en_value series_bundle swan_formula swan_report
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
    # a declared period on a spec that shows C_p x C_p is refused before any group is realized
    codes, loaded = run_fresh(f"""
import contextlib, io, json, sys
import eulerchar.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [eulerchar.cli.main(f"bounds {{spec}} --n 3 --period 4".split()) for spec in ("E(3,2)", "Prod(C(3),C(3))", "Usd(7,3;0,0)")]
print(json.dumps([codes, [name for name in {ENGINE!r} if name in sys.modules]]))
""")
    assert (codes, loaded) == ([2, 2, 2], [])


def test_every_exported_name_resolves():
    assert len(EXPORTED) == 60
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
