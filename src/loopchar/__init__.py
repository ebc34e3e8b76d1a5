"""Symbolic loop weights for quantum loop algebras.

Exact combinatorics over formal spectral parameters: the loop-weight
lattice and its braid-group action, the loop-root sublattice with exact
decomposition, block membership through elliptic classes, and
q-characters of the representations whose shape is forced by weight
combinatorics alone.  Everything is integer arithmetic; there are no
floating-point parameters anywhere.
"""

import importlib

__version__ = "0.1.0"

# Where each public name lives, in the order of ``__all__``.  The package
# imports a submodule only when one of its names is first read (PEP 562),
# so a bare ``import loopchar`` loads none of them and a CLI verb loads
# only the modules it runs.
_SOURCES = {
    "CartanData": "cartan",
    "DomainError": "errors",
    "EllipticCharacter": "blocks",
    "LCharacter": "lweight",
    "LieType": "cartan",
    "LWeight": "lweight",
    "ParseError": "errors",
    "SUITE_NAMES": "verify",
    "Sl2String": "qchar",
    "WeylElement": "weyl",
    "blocks_linked": "blocks",
    "braid_act": "braid",
    "braid_act_word": "braid",
    "cartan_data": "cartan",
    "classes_equal": "blocks",
    "cone_check": "braid",
    "coroot_pairing": "weyl",
    "cyclicity_order": "qchar",
    "dn_node2_char": "qchar",
    "dominance_diff": "weyl",
    "dual_lweight": "lweight",
    "element_from_word": "weyl",
    "elliptic_class": "blocks",
    "expand_lroots": "braid",
    "fundamental_char": "qchar",
    "fundamental_lweight": "lweight",
    "fundamental_weight": "weyl",
    "is_minuscule": "qchar",
    "is_reduced_word": "weyl",
    "longest_element": "weyl",
    "lroot_decompose": "braid",
    "min_coset_reps": "weyl",
    "minuscule_char": "qchar",
    "parse_elliptic": "blocks",
    "parse_lweight": "lweight",
    "positive_roots": "weyl",
    "reflect": "weyl",
    "relation_set": "blocks",
    "run_all": "verify",
    "run_suite": "verify",
    "seed_family": "blocks",
    "simple_lroot": "braid",
    "sl2_eval_char": "qchar",
    "sl2_tensor_irreducible": "qchar",
    "tensor_char": "qchar",
    "tensor_class": "blocks",
    "trivial_sets": "blocks",
    "twist_by_w0": "braid",
    "weight_of": "lweight",
    "weight_orbit": "weyl",
    "weight_projection": "qchar",
    "weyl_module_dim": "qchar",
    "zero_weight": "weyl",
}

__all__ = list(_SOURCES)


def __getattr__(name: str) -> object:
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
