"""Entropic quantities for multipartite quantum states.

Von Neumann, relative, and conditional entropy on labeled tensor-product
layouts; channel mutual and coherent information through Kraus channels;
finite-rank truncation convergence sweeps; and a randomized property-check
harness with reproducible, replayable reports. All entropies are in nats.
"""

import types as _types

from .catalog import (
    CATALOG,
    bell,
    build_state,
    classical_correlated,
    g_function,
    ghz,
    parse_state_spec,
    thermal_fock,
    thermal_tail_mass,
    tmsv,
    tmsv_tail_mass,
    werner,
)
from .channels import (
    KrausChannel,
    channel_mutual_information,
    coherent_information,
    complementary,
    conditional_entropy_via_coherent_info,
    purify,
    random_channel,
    require_valid_channel,
    stinespring,
    trace_out_channel,
    validate_channel,
)
from .entropy import (
    conditional_entropy,
    conditional_entropy_standard,
    min_supported_eigenvalue,
    mutual_information_states,
    nats_to_bits,
    relative_entropy,
    von_neumann_entropy,
)
from .errors import (
    DegenerateTruncationError,
    InvalidChannelError,
    InvalidStateError,
    ParseError,
    PreconditionError,
    QEntropyError,
    StructuralError,
)
from .fileio import load_channel, load_state, save_channel, save_state
from .harness import (
    CHECKS,
    PropertyReport,
    replay_report,
    report_to_dict,
    resolve_state,
    run_check,
    run_converge,
    run_suite,
)
from .states import (
    DensityMatrix,
    PureState,
    SubsystemLayout,
    partial_trace,
    permute_subsystems,
    random_density_matrix,
    random_pure_state,
    tensor,
    validate,
)
from .truncation import (
    ProjectorSequence,
    SweepPoint,
    conditional_entropy_sweep,
    diagonal_schedule,
    truncation_diagnostics,
)

__version__ = "0.1.0"

# the public names are exactly the ones imported above
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
