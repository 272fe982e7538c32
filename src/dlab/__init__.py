"""Deterministic workbench for collision-model dephasing experiments:
circuit construction, routing, simulation, tomography and the
information-theoretic analysis suite.
"""

import types as _types

__version__ = "0.1.0"
# The one gate kernel, `dlab.kernels.apply_matrix`, is numpy; run records name it.
KERNEL_IMPLEMENTATION = "python"

from .circuit import (
    Circuit,
    Gate,
    GateKind,
    build_condensed_circuit,
    build_full_circuit,
    circuit_from_text,
    circuit_to_text,
    unitary_of,
)
from .darwinism import (
    BasisGrid,
    MiCurve,
    PartitionScheme,
    SchemeMode,
    averaged_qmi,
    blp_witness,
    cmi_grid,
    cmi_joint,
    holevo_bound,
    orbit_fractions,
    partition_scheme,
    pauli_cmi_scan,
    qmi,
    system_coherence,
)
from .qstate import (
    DensityMatrix,
    KrausChannel,
    PureState,
    amplitude_damping_channel,
    apply_channel,
    depolarizing_channel,
    fidelity,
    partial_trace,
    trace_distance,
    von_neumann_entropy,
)
from .routing import (
    CouplingMap,
    RoutedCircuit,
    builtin_coupling_map,
    circuit_cnot_count,
    coupling_map_from_file,
    coupling_map_from_text,
    coupling_map_to_text,
    peephole_zero_swap,
    permutation_unitary,
    replay_permutation,
    route,
    routed_statevector_equivalent,
    routed_unitary_equivalent,
)
from .scm import (
    CanonicalTimes,
    Scenario,
    ScmParams,
    canonical_times,
    coherence_finite,
    coherence_markovian,
    collision_probability,
    ideal_global_state,
    prep_angle,
)
from .simulator import (
    MeasRecord,
    MeasSetting,
    NoiseModel,
    basis_rotation,
    born_distribution,
    pauli_settings,
    run_density,
    run_statevector,
    sample,
    sample_pauli_set,
)
from .tomography import (
    MleResult,
    TomographyJob,
    load_state_text,
    load_tomography_job,
    mle_reconstruct,
    mle_reconstruct_from_frequencies,
    qubit_tomography,
    save_state_text,
    save_tomography_job,
)

# The public surface is what the import block above binds, and the version.
__all__ = ["__version__"] + [
    name for name, value in list(globals().items()) if name[0] != "_" and not isinstance(value, _types.ModuleType)
]
