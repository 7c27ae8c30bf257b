"""iwatower: finitely presented modules over truncated Iwasawa algebras
and finite p-group rings — coinvariant towers, growth invariants, and
K-group bookkeeping."""

from .errors import (
    ContextMismatch,
    DegreeOverflow,
    DimensionOverflow,
    GroupTooLarge,
    HypothesisViolated,
    InsufficientData,
    IwatowerError,
    MissingInvariant,
    NonIntegralCoefficient,
    NotSquare,
    OddPrimeRequired,
    PrecisionExhausted,
    ResidueCharacteristicP,
    ZeroInput,
)
from .groupring import (
    FiniteGroup,
    FiniteGroupRingModule,
    augmentation_quotients,
    corpus_groups,
    cyclic_group,
    direct_product,
    group_ring_module,
    heisenberg,
    quotient_coinvariant_check,
    semidirect_c3_c9,
)
from .invariants import (
    GrowthModel,
    InvariantReport,
    cuoco_monsky_hypothesis_check,
    exact_invariants_d1,
    fit_growth,
    mu_of_mod_pn,
    mu_positivity_equiv,
)
from .ktheory import (
    BUILTIN_KTABLE,
    ExtensionDescriptor,
    KGroupRecord,
    LocalPrimeDatum,
    TowerPrediction,
    VanishingCertificate,
    change_of_s_order,
    k_even_order_to_h2,
    mod_p_h2_dimension,
    predict_growth,
    vanishing_propagation,
)
from .modules import (
    AbelianShape,
    ModulePresentation,
    TowerDatum,
    coinvariants,
    snf,
    torsion_size_resultant_oracle,
    tower,
)
from .padic import (
    Prime,
    h1_local_order,
    h1_local_order_tower,
    ord_p,
    valuation_tower,
)
from .series import (
    PrecisionContext,
    SeriesElement,
    WeierstrassForm,
    char_poly,
    omega,
    weierstrass_divide,
    weierstrass_prepare,
)

__version__ = "0.1.0"
