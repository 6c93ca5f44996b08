"""Exact algebra of orbit configuration spaces of surfaces: group
backends with a decidable word problem, the graded Lie algebra of
decorated strand generators in Lyndon normal form, its enveloping
chord-diagram algebra with PBW straightening, the graded Poisson model
for iterated loop homology, and the cohomology ring of the configuration
space, all over exact rationals with brute-force oracles."""

import importlib

# Public names, each imported from its module on first access (PEP 562), so
# that a command loads only the modules it uses.
_EXPORTS = {
    name: module
    for module, names in {
        "assoc": ("AssocContext", "AssocElement", "LambdaElement"),
        "cohomology": ("CohomContext", "CohomElement"),
        "errors": ("ParseError", "ResourceLimitError"),
        "groups": ("FiniteGroup", "GroupContext", "GroupElement", "LatticeGroup",
                   "SurfaceGroup", "cyclic_group", "group_from_spec", "load_group"),
        "lie": ("LieContext", "LieElement"),
        "poisson": ("PoissonContext", "PoissonElement", "PoissonGrading"),
    }.items()
    for name in names
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        # an AttributeError lets ``from ocs import verify`` import the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [*sorted(_EXPORTS), "__version__"]
