"""Groups of fractions of forest categories, diagram partition functions,
and quadratic renormalization certificates.

The package splits into five layers:

- ``trees``: planar binary trees, forests, their composition and minimal
  common refinements.
- ``fraction``: the group of fractions of the forest category: pairs of
  trees, their products and caret cancellation.
- ``thompson``: Thompson's groups F, T, V as reduced tree pairs (with a
  cyclic mark or a leaf permutation; T runs as the cyclic shifts in V),
  their PL maps of [0, 1] (``plmap``), rotation elements of T.
- ``diagrams`` / ``coloring`` / ``tensors``: closed trivalent diagrams
  from tree pairs and their partition-function values (edge and face
  colorings, the loop-parameter-d chromatic evaluation, tensor
  contraction).
- ``renorm``: the quadratic renormalization map on the three-dimensional
  four-box space, its growth constant, and rigorous decay certificates.

``renorm`` and the names taken from it load on first access, so that
importing the package (or the CLI for a command that never runs an
interval) does not pay for mpmath; ``PLMap`` (module ``plmap``) loads on
first access too.
"""

from .coloring import (
    SweepLimitError,
    chromatic_value,
    coefficient,
    count_proper_colorings,
    edge_coloring_count,
    face_coloring_count,
    value2_subgroup_test,
)
from .diagrams import ClosedDiagram, closed_graph
from .fraction import (
    FractionPair,
    fraction_multiply,
    parse_pair,
    reduce_pair,
)
from .tensors import VertexTensor, vacuum_coefficient
from .thompson import (
    FElement,
    TElement,
    VElement,
    parse_element,
    random_element,
    rotation_element,
    x_generator,
)
from .trees import (
    Forest,
    Tree,
    catalan,
    common_refinement,
    compose_forests,
    enumerate_trees,
    parse_forest,
    parse_tree,
    random_tree,
    tree_to_partition,
)

_RENORM_NAMES = frozenset(
    {
        "B1",
        "B2",
        "B3",
        "Certificate",
        "CertificateFailure",
        "LoopParameter",
        "PrecisionError",
        "Q4Vector",
        "ScanReport",
        "bound_check",
        "compare_square_forms",
        "decay_profile",
        "find_certificate",
        "iterate_norms",
        "m_constant",
        "renorm_map",
        "scan",
    }
)


#: Names that load their module on first access.
_LAZY_NAMES = {**dict.fromkeys(_RENORM_NAMES, ".renorm"), "PLMap": ".plmap"}


def __getattr__(name: str):
    if name == "renorm" or name in _LAZY_NAMES:
        import importlib

        module = importlib.import_module(_LAZY_NAMES.get(name, ".renorm"), __name__)
        if name == "renorm":
            return module
        value = globals()[name] = getattr(module, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_NAMES) | {"renorm"})


# The public names, the subpackages included, as a star import gave them
# when every module loaded eagerly.
__all__ = sorted(
    {n for n in globals() if not n.startswith("_")} | set(_LAZY_NAMES) | {"renorm"}
)

__version__ = "0.1.0"
