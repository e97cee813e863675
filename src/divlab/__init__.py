"""divlab: ramification-based diversity experiments for parametric
families of number fields.

Each exported name is imported from its layer the first time it is
read, so `import divlab` loads no layer and a run loads only the layers
it uses.
"""

import importlib

# exported name -> the layer module that defines it
_EXPORTS = {
    **dict.fromkeys((
        "CurveCover", "IntPoly", "critical_polynomial", "discriminant_in_u", "parse_cover",
        "parse_univariate", "poly_discriminant", "resultant", "squarefree_primitive_part",
    ), "algebra"),
    **dict.fromkeys((
        "FieldFingerprint", "fiber_poly", "fingerprint", "is_fiber_irreducible", "run_census",
    ), "diversity"),
    **dict.fromkeys((
        "IntFactorization", "ModPolyFactorization", "factor_integer", "factor_mod_p",
        "factor_over_Z", "is_prime", "roots_mod_p",
    ), "factorization"),
    **dict.fromkeys(("ChebotarevSieve", "DiversityParams", "build_PF", "enumerate_MF"), "sieve"),
    **dict.fromkeys(("WitnessRecord", "primitive_witness", "rho_F"), "witnesses"),
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
