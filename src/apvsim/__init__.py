"""Isotope-chain parity-violation metrology: analytic protocol
sensitivities, an exact small-register state-vector oracle, and scan
drivers behind a scenario-file CLI."""

__version__ = "0.1.0"

from .chain import (
    DeviationPattern,
    Isotope,
    IsotopeChain,
    ProjectedPattern,
    build_chain,
    project_deviation,
    reallocate,
    weak_charge,
)
from .interference import InterferenceSpec
from .protocols import (
    GATE_COUNT_MODELS,
    PROTOCOLS,
    ProtocolConfig,
    SensitivityResult,
    UnidentifiableThetaError,
    ZeroSignalError,
    cat_contrast,
    combine_classical_fit,
    gate_counts,
    protocol_table,
    squeezing_factor,
)
from .oracle import (
    QUBIT_CAP,
    STATE_KINDS,
    DiagonalGenerator,
    NonCatStateError,
    NonInformativePointError,
    StateVector,
    build_common_generator,
    build_generator,
    build_state,
    cfi_parity,
    common_noise_check,
    parity_fringe,
    qfi,
    ramsey_evolve,
)
from .scans import (
    AllocationError,
    BeamSpec,
    ScanSpec,
    ScanTable,
    allocate_atoms,
    atom_scan,
    crossover_finder,
    time_scan,
)
from .checks import KNOWN_CHECKS, CheckResult, OracleSpec, run_oracle_checks
from .scenario import (
    Scenario,
    ScenarioError,
    bundled_scenario_path,
    canonical_json,
    parse_scenario,
    parse_scenario_dict,
    scenario_sha256,
    scenario_to_dict,
)
from .cli import RunSummary, run, validate
