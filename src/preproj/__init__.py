"""Exact integer computations with preprojective algebras of quivers.

Quivers, their doubles, and path-algebra arithmetic over Z; noncommutative
Groebner machinery with unit leading coefficients; truncated Hilbert series;
the graded torsion of HH_0 with its divided-power generators; and the
necklace Lie bialgebra with its induced Poisson structures.
"""

from .quiver import (Quiver, QuiverClass, Forest, QuiverError, catalog, classify,
                     double, forest_for_white)
from .freealg import (CycElement, CyclicClass, Element, PathContext,
                      cyclic_project, free_context, parse_element,
                      preprojective_relation, render_cyclic, render_element,
                      w_ab, z_ab)
from .rewrite import (MonomialOrder, NonUnitLead, RewriteRule, RewriteSystem,
                      complete, render_rule)
from .intlinalg import (LatticeSolver, SNFResult, TorsionSummary, quotient_structure,
                        smith_normal_form)
from .series import (SeriesError, TruncatedSeries, cartan_t_matrix, egid_check,
                     hT, hT_of, hilbert_prep, sym_plus_series)
from .homology import (GradedTorsionReport, HomologyClass, LambdaComputation,
                       PoissonPresentation, frobenius_cyc, ghost,
                       hp0_poisson, lambda_graded, poisson_presentation,
                       preprojective_element, preprojective_system,
                       r_power_class, r_power_cyclic)
from .necklace import (CornerPoisson, WedgePair, bracket, bracket_of_wedge,
                       bv_defect, cobracket, delta_ell, delta_ell_sum,
                       double_bracket, loday_bracket)

__version__ = "0.1.0"
