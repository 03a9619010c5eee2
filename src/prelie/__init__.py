"""Free pre-Lie and free magmatic algebras on rooted trees."""

from .matrix import CoeffMatrix
from .monomials import (
    Generator,
    GeneratorOrder,
    MonomialBasis,
    Product,
    ag_basis,
    ag_basis_multigen,
    evaluate,
    expand_basis,
    is_tree_grounded,
    load_monomials,
    lower_energy_term,
    parse_monomial,
    section_of_basis,
)
from .orders import VertexOrder, vertex_order
from .products import (
    TreeSum,
    apply_product,
    bilinear_extend,
    binary_join,
    butcher,
    graft,
    left_butcher,
    left_graft,
    rotation,
)
from .projection import (
    Section,
    all_sections,
    alpha,
    alpha_matrix,
    beta_matrix,
    count_tilde_b,
    default_section,
    forget_planarity,
    psi_bar,
    psi_tilde,
)
from .psi import (
    coeff_c_bijections,
    coeff_c_recursive,
    decompose,
    n_statistic,
    n_statistic_total,
    psi,
    psi_inverse,
    psi_matrix,
)
from .trees import (
    BinaryTree,
    DegreeCapError,
    DomainError,
    PlanarTree,
    Tree,
    clear_caches,
    enumerate_binary,
    enumerate_nonplanar,
    enumerate_planar,
    parse_planar,
    parse_tree,
    potential_energy,
    symmetry_factor,
)
from .verify import verify_a088716

__all__ = [name for name in dir() if not name.startswith("_")]
