"""Exact symbolic toolkit for strict-partition combinatorics, Schur-type
polynomial algebra, a neutral-fermion Fock space, and the verification
suite tying them together.

All arithmetic is exact: rationals extended by sqrt(2) for scalars, sparse
multivariate polynomials over that ring for everything else.
"""

from .exactalg import (ONE, SQRT2, T, S, Z, ZERO, SparsePoly, Sqrt2Rational,
                       svar, tvar, var_name, zvar)
from .partitions import (BarQuotient, ResidueSplit, Stats, StrictPartition,
                         bar_core, bar_quotient, color, delta0, delta1,
                         enumerate_added, is_added_member, residue_split,
                         stats)
from .symfunc import (bialternant_eval, h_poly, pfaffian, poly_det,
                      power_sum_specialize, q_poly, qq_pair, schur, schur_q,
                      schur_sum, subst_2t2, subst_odd, subst_q_u, subst_u)
from .fock import (BosonElement, FockVector, NormalWord, beta_apply,
                   core_state_image, f_apply, f_power_normalized,
                   normal_word_image, phi, phi_closed_form, to_normal_words)
from .verify import (FAMILIES, CheckResult, SuiteConfig, check_core_states,
                     check_f_power, check_main1, check_main2,
                     check_phi_consistency, check_symfunc_props,
                     check_trapezoid, run_suite)

__version__ = "0.1.0"

__all__ = [
    "ONE", "SQRT2", "T", "S", "Z", "ZERO", "SparsePoly", "Sqrt2Rational",
    "svar", "tvar", "var_name", "zvar",
    "BarQuotient", "ResidueSplit", "Stats", "StrictPartition", "bar_core",
    "bar_quotient", "color", "delta0", "delta1", "enumerate_added",
    "is_added_member", "residue_split", "stats",
    "bialternant_eval", "h_poly", "pfaffian", "poly_det",
    "power_sum_specialize", "q_poly", "qq_pair", "schur", "schur_q", "schur_sum",
    "subst_2t2", "subst_odd", "subst_q_u", "subst_u",
    "BosonElement", "FockVector", "NormalWord", "beta_apply",
    "core_state_image", "f_apply", "f_power_normalized", "normal_word_image",
    "phi", "phi_closed_form", "to_normal_words",
    "FAMILIES", "CheckResult", "SuiteConfig", "check_core_states",
    "check_f_power", "check_main1", "check_main2", "check_phi_consistency",
    "check_symfunc_props", "check_trapezoid", "run_suite",
]
