"""Quantum channels that destroy discord: construction, application, classification."""

__version__ = "0.1.0"

from .states import (
    BipartiteState,
    DensityOperator,
    HermitianBasis,
    InvalidStateError,
    bell_state,
    eig_hermitian,
    hermitian_basis,
    max_entangled,
    partial_trace,
    product_state,
    random_bipartite,
    random_density,
    random_unitary,
    tensor,
    von_neumann_entropy,
)
from .channels import (
    InvalidChannelError,
    QuantumChannel,
    UnitalQubitParams,
    analyze_transfer,
    choi_distance,
    compose,
    extend,
    make_point_channel,
    make_qc_channel,
    make_unital_qubit,
    mix_channels,
    random_channel,
)
from .discord import (
    CQDecomposition,
    DiscordResult,
    Grid,
    Hybrid,
    MultiStart,
    ProjectiveMeasurement,
    classical_correlation,
    cq_decompose,
    discord,
    is_cq_exact,
    mutual_information,
)
from .cqsets import (
    ConvexCQSubsetSpec,
    Hull,
    IdentityAction,
    MultiEntry,
    PointTo,
    Rank1Entry,
    membership,
    mixing_closure_check,
    sample_state,
    validate_spec,
)
from .annihilators import (
    DAChannelSpec,
    apply_and_certify,
    build_da_channel,
    induced_cq_subset,
    random_da_spec,
    structural_match,
)
from .classify import (
    ActsOnA,
    ActsOnAB,
    ActsOnB,
    Verdict,
    classify_channel,
    is_entanglement_breaking,
    is_local_da,
    is_point_channel,
    is_qc_channel,
    sweep_to_csv,
    tetrahedron_sweep,
)
