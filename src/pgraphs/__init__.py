"""Scale-multiplicative cone semigroups of flat groups and their
depth-truncated coset P-graphs."""

from .flat_core import (
    FlatGroupSpec,
    GroupElement,
    SubmultClass,
    make_spec,
    module_delta,
    rho,
    scale,
    submultiplicativity_class,
    uniscalar_kernel,
)
from .cone_semigroup import (
    AdmissibilityResult,
    ConeSemigroup,
    GeneratorSet,
    SignPattern,
    enumerate_admissible,
    is_admissible,
    minimal_common_upper_bounds,
    minimal_generators,
)
from .coset_model import PadicModel, TreeModel, Vertex, fiber, truncate
from .pgraph import (
    PGraphSlice,
    build_slice,
    check_factorization,
    check_fiber_regularity,
    check_product_of_trees,
    check_regularity,
    check_rooted_strongly_simple,
    common_descendants,
    external_product,
    predict_product_of_trees,
    virtually_product_subsemigroup,
)

__version__ = "0.1.0"
