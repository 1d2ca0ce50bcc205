"""Import hygiene: `import treefrac` loads no submodule, each CLI command
loads only the modules it runs, numpy never loads, and mpmath loads only
where a cosine loop parameter is enclosed in an interval.

Each check runs in a fresh interpreter, since the test process itself has
long since imported everything.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys

import pytest
from test_readme import CLI_LINES

import treefrac
from treefrac.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(treefrac.__file__)))

#: The public names a star import of the package gave while every module,
#: renorm included, loaded eagerly, less those whose code has since been
#: deleted.
FORMER_NAMES = """
B1 B2 B3 Certificate CertificateFailure ClosedDiagram FElement Forest
FractionPair LoopParameter PLMap PrecisionError Q4Vector ScanReport
SweepLimitError TElement Tree VElement VertexTensor bound_check catalan
chromatic_value closed_graph coefficient coloring common_refinement
compare_square_forms compose_forests count_proper_colorings
decay_profile diagrams edge_coloring_count enumerate_trees
face_coloring_count find_certificate fraction fraction_multiply
iterate_norms m_constant parse_element parse_forest parse_pair
parse_tree random_element random_tree reduce_pair renorm renorm_map
rotation_element scan tensors thompson tree_to_partition trees
vacuum_coefficient value2_subgroup_test x_generator
""".split()

#: Prints, as the last line of stdout, the treefrac submodules loaded so
#: far and whether numpy and mpmath are among the loaded modules.
REPORT = (
    "\nimport json, sys\n"
    "print(json.dumps([sorted(m for m in sys.modules if m.startswith('treefrac.')),"
    " 'numpy' in sys.modules, 'mpmath' in sys.modules]))"
)

GROUP = ["fraction", "rationals", "thompson", "trees"]
COEFF = ["coloring", "diagrams", *GROUP]

#: Each of the README's CLI lines, as it reads there without its comment,
#: with the library modules it loads and whether it loads mpmath.
COMMANDS = {
    'group mul "((..).)|(.(..))" "(.(..))|((..).)"': (GROUP, False),
    'plmap "((..).)|(.(..))"': (["plmap", *GROUP], False),
    'coeff --model edge3 "((..).)|(.(..))"': (COEFF, False),
    'coeff --model face:3 "((..).)|(.(..))"': (COEFF, False),
    'coeff --model chromatic --d 3 "((..).)|(.(..))"': (["renorm", *COEFF], False),
    'tree refine "((..).)" "(.(..))"': (["rationals", "trees"], False),
    "renorm iterate --d 3 --steps 6": (["rationals", "renorm"], False),
    "renorm certify --d 3": (["rationals", "renorm"], False),
    "renorm scan --variant both --m-from 5 --m-to 20 --d3": (["rationals", "renorm"], True),
    "renorm decay --d 3 --steps 9": (["rationals", "renorm"], False),
}

#: The commands whose loop parameters are all exact rationals.
EXACT_COMMANDS = [command for command, (_, mpmath) in COMMANDS.items() if not mpmath]


def argv_of(command: str) -> list[str]:
    return shlex.split(command)


def command_id(command: str) -> str:
    """The command's words and numbers, without its literals and flags."""
    return "-".join(w for w in argv_of(command) if w[0] not in "(-")


def run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code: str) -> tuple[list[str], bool, bool, str]:
    """(the treefrac submodules loaded after running `code`, whether numpy
    and whether mpmath loaded, its stdout before the report)."""
    head, _, last = run_python(code + REPORT).rstrip("\n").rpartition("\n")
    modules, numpy, mpmath = json.loads(last)
    return modules, numpy, mpmath, head


@pytest.mark.parametrize("module", ["treefrac", "treefrac.cli"])
def test_import_loads_neither_numpy_nor_mpmath(module):
    # Nor any library module: the package loads its modules on first access.
    submodules = [module] if "." in module else []
    assert loaded_after(f"import {module}") == (submodules, False, False, "")


def test_the_table_covers_the_readme_commands():
    readme = [shlex.split(line, comments=True)[1:] for line in CLI_LINES]
    assert readme == [argv_of(command) for command in COMMANDS]


@pytest.mark.parametrize("command", COMMANDS, ids=command_id)
def test_each_command_loads_only_what_it_runs(command):
    modules, mpmath = COMMANDS[command]
    loaded = loaded_after(
        f"from treefrac.cli import main\nassert main({argv_of(command)!r}) == 0"
    )
    assert loaded[:3] == (sorted(["treefrac.cli", *(f"treefrac.{m}" for m in modules)]), False, mpmath)
    assert json.loads(loaded[3])["result"]


def test_exact_commands_print_the_same_bytes_without_mpmath(capsys):
    expected = []
    for command in EXACT_COMMANDS:
        assert main(argv_of(command)) == 0
        expected.append(capsys.readouterr().out)
    argvs = [argv_of(command) for command in EXACT_COMMANDS]
    out = run_python(
        "import contextlib, io, json, sys\n"
        "sys.modules['mpmath'] = None\n"
        "from treefrac.cli import main\n"
        "outs = []\n"
        f"for argv in {argvs!r}:\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        assert main(argv) == 0\n"
        "    outs.append(buf.getvalue())\n"
        "try:\n"
        "    main(['renorm', 'scan', '--m-from', '7', '--m-to', '7'])\n"
        "except ImportError:\n"
        "    blocked = True\n"
        "else:\n"
        "    blocked = False\n"
        "print(json.dumps([outs, blocked]))"
    )
    outs, blocked = json.loads(out)
    assert blocked, "mpmath was not blocked, so the check shows nothing"
    assert outs == expected


def test_pl_maps_load_on_first_use():
    out = run_python(
        "import sys, treefrac, treefrac.cli\n"
        "before = 'treefrac.plmap' in sys.modules\n"
        "m = treefrac.x_generator(0).to_pl_map()\n"
        "print(before, 'treefrac.plmap' in sys.modules,"
        " type(m) is treefrac.PLMap is treefrac.thompson.PLMap)"
    )
    assert out.split() == ["False", "True", "True"]


def test_renorm_certify_loads_renorm_and_prints_the_paper_certificate():
    modules, numpy, mpmath, out = loaded_after(
        "from treefrac.cli import main\nassert main(['renorm', 'certify', '--d', '3']) == 0"
    )
    assert (modules, numpy, mpmath) == (
        ["treefrac.cli", "treefrac.rationals", "treefrac.renorm"],
        False,
        False,
    )
    doc = json.loads(out)
    assert doc["result"]["certificate"] == {"n": 2, "K": "7/32", "MK": "105/128"}
    assert doc["config"]["digits"] == 60 and doc["config"]["nmax"] == 64
    # An interval enclosure is what loads mpmath.
    assert loaded_after("import treefrac\ntreefrac.LoopParameter.cosine(7, 'plus').interval(30)")[2]


def test_every_former_name_is_still_exposed():
    out = run_python(
        "import json, sys, treefrac\n"
        "before = 'mpmath' in sys.modules\n"
        "names = dir(treefrac)\n"
        "cert = treefrac.find_certificate(3)\n"
        "exact = 'mpmath' in sys.modules\n"
        "ns = {}\n"
        "exec('from treefrac import *', ns)\n"
        "star = 'mpmath' in sys.modules\n"
        "treefrac.m_constant(treefrac.LoopParameter.cosine(7, 'minus'))\n"
        "print(json.dumps([before, exact, star, names, sorted(ns), str(cert.product),"
        " 'mpmath' in sys.modules]))"
    )
    before, exact, star_loads, names, star, product, interval = json.loads(out)
    assert not before and not exact and not star_loads and interval
    assert set(FORMER_NAMES) <= set(names)
    assert set(FORMER_NAMES) <= set(star)
    assert set(star) - {"__builtins__"} == set(treefrac.__all__)
    assert product == "105/128"
    with pytest.raises(AttributeError):
        treefrac.no_such_name


def test_csv_loads_only_for_csv_output():
    refine = ["tree", "refine", "((..).)", "(.(..))"]
    out = run_python(
        "import contextlib, io, sys\n"
        "from treefrac.cli import main\n"
        "loaded = []\n"
        f"for argv in ({refine!r}, {['--format', 'csv', *refine]!r}):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0\n"
        "    loaded.append('csv' in sys.modules)\n"
        "print(*loaded)"
    )
    assert out.split() == ["False", "True"]
