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

Importing the package loads none of these modules.  Each public name, and
each module name, loads its module on first access, so a caller (the CLI
command included) pays only for the modules it uses.  mpmath loads only
when a cosine loop parameter needs an interval enclosure.
"""

import importlib

#: Each module with the public names it gives the package.
_EXPORTS = {
    "coloring": """SweepLimitError chromatic_value coefficient count_proper_colorings
        edge_coloring_count face_coloring_count value2_subgroup_test""",
    "diagrams": "ClosedDiagram closed_graph",
    "fraction": "FractionPair fraction_multiply parse_pair reduce_pair",
    "plmap": "PLMap",
    "rationals": "",
    "renorm": """B1 B2 B3 Certificate CertificateFailure LoopParameter PrecisionError
        Q4Vector ScanReport bound_check compare_square_forms decay_profile
        find_certificate iterate_norms m_constant renorm_map scan""",
    "tensors": "VertexTensor vacuum_coefficient",
    "thompson": """FElement TElement VElement parse_element random_element
        rotation_element x_generator""",
    "trees": """Forest Tree catalan common_refinement compose_forests enumerate_trees
        parse_forest parse_tree random_tree tree_to_partition""",
}

#: Every name that loads on first access, with the module it comes from;
#: a module's own name maps to itself.
_LAZY_NAMES = {
    name: module for module, names in _EXPORTS.items() for name in (module, *names.split())
}


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_NAMES))


__all__ = sorted(_LAZY_NAMES)

__version__ = "0.1.0"
