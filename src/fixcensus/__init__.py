"""fixcensus: exact fixed-point censuses of z -> z^d + c over finite fields.

The package counts fixed points of power maps on F_{p^n} by a scan of the
field and, for d = p^ell, by F_p-linear algebra; the tests hold both to a
brute force and a gcd oracle.  It checks a registry of encoded counting
claims against those counts (mismatches become witnesses, not errors),
tabulates exact average and density statistics for integer coefficients,
and counts trinomials x^d - x + c by discriminant and height.

Importing the package loads no submodule: each public name below is
imported from its submodule on first use (PEP 562).
"""

__version__ = "0.1.0"

# Each public name, listed once under the submodule that defines it.
_HOME = {
    name: module
    for module, names in {
        "ff": "DEFAULT_FIELD_CAP ArgumentError CapError FieldCapError is_prime find_irreducible"
              " certify_irreducible FieldSpec FFElement standard_field",
        "dynamics": "DEFAULT_EXP_CAP ExponentCapError Family CensusRecord OrbitCensus fixed_point_count"
                    " count_profile orbit_census classify_residue integral_fixed_points integer_root",
        "claims": "Verdict Witness ClaimSpec ClaimReport registry check_all",
        "stats": "Selector DensityKind AverageRow DensityRow prime_sieve prime_count prime_counts"
                 " average_report density_table",
        "nfcount": "IrreducibilityStatus FieldCountRow SquarefreeReport closed_form_disc"
                   " irreducibility_status count_by_disc count_by_height squarefree_disc_fraction",
    }.items()
    for name in names.split()
}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value
