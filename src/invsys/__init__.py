"""Exact computer algebra for inverse systems of Gorenstein quotients.

Contraction of divided-power elements by ring elements, annihilator ideals,
Hilbert functions through the duality, admissible families with their
verification and lifting, and the finite reconstruction of graded Gorenstein
ideals from a single deep diagonal entry.
"""

from .admissible import (
    AdmissibleFamily,
    CheckReport,
    build_family,
    check_condition_one,
    check_condition_two,
    check_family,
    cone_family,
    diagonal_decompose,
    dump_family,
    is_zero_family,
    lift_space,
    load_family,
)
from .duality import (
    GradedSlice,
    Ideal,
    ann_cyclic,
    ann_module,
    hilbert_function,
    ideals_equal_mod,
    minimal_generators,
    module_span,
    perp_ideal,
    span_dim,
)
from .gorenstein import (
    GorensteinReport,
    family_from_ideal,
    finite_lift,
    gorenstein_check,
    invariants_from_H1,
    local_verify,
)
from .groebner import (
    GroebnerBasis,
    HilbertData,
    buchberger,
    hilbert_data,
    hilbert_series,
    is_regular_sequence,
    normal_form,
    socle_dim,
)
from .linalg import (
    SubspaceBasis,
    membership,
    span_intersect,
    span_reduce,
)
from .parsing import ParseError, parse_ideal_gens, parse_polynomial, parse_ring_decl
from .ring import (
    ContextMismatchError,
    DPPolynomial,
    Polynomial,
    PreconditionError,
    RingContext,
    contract,
    pairing,
    ring_context,
    shift_mul,
)

__all__ = [name for name in dir() if not name.startswith("_")]
