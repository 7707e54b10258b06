"""Exact barcodes and morphism-induced partial matchings on a finite grid."""

from .gf import (
    DimensionMismatch,
    Subspace,
    intersect,
    rank,
)
from .modules import (
    Barcode,
    GridInterval,
    Morphism,
    PersistenceBasis,
    PersistenceModule,
    ValidationError,
    barcode,
    direct_sum,
    direct_sum_morphism,
    hom_exists,
    im_minus,
    im_plus,
    image_barcode,
    image_factorization,
    image_module,
    interval_module,
    ker_minus,
    ker_plus,
    module_from_bars,
    one_eps_morphism,
    persistence_basis,
    restrict,
    shift_module,
    shift_morphism,
    v_minus,
    v_plus,
    zero_module,
)
from .matching import (
    GMatchingTable,
    MMatchingTable,
    RepMatching,
    XModule,
    g_matching,
    m_matching,
    representation,
    x_module,
    y_minus,
    y_plus,
)
from .bauer_lesnick import (
    RealizationCertificate,
    chi,
    iota,
    is_eps_matching,
    lambda_,
    realize_as_m,
)
from .ladders import (
    CATALOG_CODES,
    THICK_CODES,
    THIN_CODES,
    LadderCode,
    enumerate_catalog,
    from_code,
    random_ladder,
    random_module,
)
from .oracle import count_generators, naive_barcode
