"""okkit: value semigroups, Newton-Okounkov bodies, toric degenerations, and
numerically integrated gradient-Hamiltonian flows for graded algebra
presentations with valuation data.

The layering is strict: a module imports only the modules listed above
it, and the private helpers ``_lattice`` and ``_polytope`` sit below them
all.

``algebra``
    exact rationals, Laurent polynomials, the composite order on N x Z^n,
    monomial and series valuation backends;
``okounkov``
    presentations (SagbiDatum), subduction, value semigroups, exact bodies,
    Hilbert counting, quotient slicing;
``degeneration``
    weight functionals, initial forms, the one-parameter family;
``embedding``
    monomial bases of the projective realization, point embedding, torus
    weights, the moment map on the special fiber;
``flow``
    tangent frames, the gradient-Hamiltonian field, adaptive integration,
    the integrable-system evaluation and its diagnostics;
``catalog``
    self-verifying example bundles;
``cli``
    the command-line front end.
"""

from okkit.algebra import (
    BiDegree,
    Polynomial,
    Ring,
    SeriesContext,
    compare_composite,
    evaluate_complex,
    format_polynomial,
    monomial_valuation,
    parse_polynomial,
)
from okkit.degeneration import (
    FamilyPresentation,
    RelationSet,
    WeightFunctional,
    build_family,
    build_projection,
    initial_form,
)
from okkit.okounkov import (
    GradingHomomorphism,
    OkounkovBody,
    SagbiDatum,
    SagbiGenerator,
    ValueSemigroup,
    degree_check,
    okounkov_body,
    semigroup_hilbert,
    subduct,
)
from okkit.embedding import (
    ProjectivePoint,
    VdBasis,
    embed_point,
    enumerate_vd_basis,
    sample_intrinsic,
    toric_moment,
)
from okkit.flow import (
    ChartPoint,
    FlowConfig,
    FlowResult,
    flow_to,
    gradient_hamiltonian,
    integrable_system_eval,
    poisson_bracket,
    run_batch,
    symplectic_residual,
    tangent_frame,
)
from okkit.catalog import CatalogEntry, list_examples, load_entry_file, load_example

__version__ = "0.1.0"
