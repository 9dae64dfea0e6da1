"""Regular/biregular maximum-excess Hadamard matrices from quadratic residues.

Exact finite-field arithmetic makes every decision, the Gauss-sum sign pair
and the regular family's scheme, tau and eigenvalue-table checks included;
complex character sums only cross-check them and render the eigenmatrix that
`scheme --verify` prints.

The names below load their module on first access (PEP 562), so importing
the package, or the CLI before it runs a command, loads no layer module.
"""

import importlib

__version__ = "0.1.0"

# each public name -> the module that defines it
_HOMES = {
    "FAMILIES": "character_sums",
    "ZERO": "finite_field",
    "BlockDesign": "intersection_sets",
    "ExcessReport": "matrix",
    "FieldContext": "finite_field",
    "FieldSpec": "finite_field",
    "IntersectionSet": "intersection_sets",
    "ParamChoice": "intersection_sets",
    "SchemePartition": "association_schemes",
    "SchemeReport": "association_schemes",
    "SignMatrix": "matrix",
    "build_dlh": "intersection_sets",
    "build_field": "finite_field",
    "construct_q1": "hadamard",
    "construct_q3": "hadamard",
    "find_params": "intersection_sets",
    "quadratic_tower": "finite_field",
    "transform": "hadamard",
    "verify_scheme": "association_schemes",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
