"""Import hygiene: numpy never loads, mpmath loads only with renorm, and
the PL-map module only when a PL map is made.

Each check runs in a fresh interpreter, since the test process itself has
long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import treefrac

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

HEAVY = ("numpy", "mpmath", "treefrac.renorm")


def run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code: str) -> tuple[list[str], str]:
    """(the heavy modules loaded after running `code`, its stdout)."""
    out = run_python(
        f"{code}\nimport json, sys\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    )
    head, _, last = out.rstrip("\n").rpartition("\n")
    return json.loads(last), head


@pytest.mark.parametrize("module", ["treefrac", "treefrac.cli"])
def test_import_loads_neither_numpy_nor_mpmath(module):
    assert loaded_after(f"import {module}")[0] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "mul", "((..).)|(.(..))", "(.(..))|((..).)"],
        ["tree", "refine", "((..).)", "(.(..))"],
        ["plmap", "((..).)|(.(..))"],
        ["coeff", "--model", "edge3", "((..).)|(.(..))"],
    ],
)
def test_commands_without_renorm_do_not_load_mpmath(argv):
    loaded, out = loaded_after(f"from treefrac.cli import main\nassert main({argv!r}) == 0")
    assert loaded == []
    assert json.loads(out)["result"]


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
    loaded, out = loaded_after(
        "from treefrac.cli import main\nassert main(['renorm', 'certify', '--d', '3']) == 0"
    )
    assert loaded == ["mpmath", "treefrac.renorm"]
    doc = json.loads(out)
    assert doc["result"]["certificate"] == {"n": 2, "K": "7/32", "MK": "105/128"}
    assert doc["config"]["digits"] == 60 and doc["config"]["nmax"] == 64


def test_every_former_name_is_still_exposed():
    out = run_python(
        "import json, sys, treefrac\n"
        "before = 'mpmath' in sys.modules\n"
        "names = dir(treefrac)\n"
        "cert = treefrac.find_certificate(3)\n"
        "ns = {}\n"
        "exec('from treefrac import *', ns)\n"
        "print(json.dumps([before, names, sorted(ns), str(cert.product), 'mpmath' in sys.modules]))"
    )
    before, names, star, product, after = json.loads(out)
    assert not before and after
    assert set(FORMER_NAMES) <= set(names)
    assert set(FORMER_NAMES) <= set(star)
    assert set(star) - {"__builtins__"} == set(treefrac.__all__)
    assert product == "105/128"
    with pytest.raises(AttributeError):
        treefrac.no_such_name
