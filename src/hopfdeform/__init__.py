"""Additive deformations of bialgebra and Hopf algebra products.

The package computes deformed multiplications generated by normalized
commuting 2-cocycles, classifies generators through a Hochschild-style
cochain calculus, conjugates trivial deformations by one-parameter
groups, and produces deformed antipodes, together with sampled
verification suites for every structural law.
"""
from .core import (
    AlgebraError,
    BialgebraInstance,
    CapabilityMissingError,
    Element,
    InstanceMismatchError,
    Kind,
    TensorElement,
    antipode,
    check_structure,
    comul,
    counit,
    format_element,
    format_scalar,
    format_tensor,
    iterated_comul,
    mul,
    scale,
    star,
    tensor_of,
)
from .sampling import ElementSampler
from .convolution import (
    Cochain,
    LinMap,
    NormalizationError,
    conv_exp,
    conv_power,
    convolve_functionals,
    counit_cochain,
    identity_map,
    plan_conv_exp,
    zero_cochain,
)
from .cohomology import (
    CochainClassifier,
    GeneratorValidationError,
    coboundary,
    hermitian_conjugate,
    validate_generator,
)
from .instances import (
    group_algebra_zd,
    make_grouplike_expression_cochain,
    make_primitive_bilinear_cocycle,
    make_trivializing_functional,
    make_z_cubic_coboundary,
    make_z_polynomial_cocycle,
    make_zd_matrix_cocycle,
    oscillator_cocycle,
    sweedler_h4,
    symmetric_star_algebra,
)
from .deformation import (
    Deformation,
    SplitPreconditionError,
    check_deformation_axioms,
    check_hopf_deformation,
    check_trivial_conjugation,
    check_trivial_deformation,
    deformed_antipode,
    deformed_mul,
    make_deformation,
    phi_map,
    sigma_functional,
    split_cocommutative,
    star_deformation_check,
)
from .report import Law, LawResult, Report, run_laws

__version__ = "0.1.0"
