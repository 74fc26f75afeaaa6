"""Uncertainty-aware evaluation of software architectures with ML components.

Architectures annotated with epistemic/stochastic uncertainty sources are
compiled into discrete Bayesian networks; exact inference then quantifies
how uncertainty propagates to downstream components.
"""

from .analysis import (ALL_ROWS, ComparisonResult, Crossing, SweepResult,
                       SweepSpec, compare, evaluate, find_crossings, sweep)
from .arch import (AnnotatedArchitecture, Component, UncertaintyAnnotation,
                   change_impact, to_network, validate_architecture)
from .bn import (BINARY_STATES, BayesianNetwork, Cpt, Factor, Finding, HIGH,
                 LOW, ValidationReport, Variable, factor_product,
                 joint_probability, marginal_brute_force, marginal_ve,
                 restrict, row_key, row_keys, sum_out, validate_network)
from .calibration import (CalibrationRecord, CalibrationResult,
                          ConditionalRow, INFINITE_THRESHOLD, ThresholdResult,
                          compute_threshold, estimate_conditional,
                          estimate_prior)
from .errors import (ArchUncertError, DataError, ImpossibleEvidenceError,
                     InvalidArchitectureError, InvalidNetworkError, ParseError,
                     UsageError, WidthLimitError)
from .formats import (CalibrationRecordSet, parse_architecture,
                      parse_architecture_document, parse_calibration_csv,
                      serialize_architecture, write_sweep_csv)
from .patterns import NVersionSpec, apply_n_version, voter_cpt_rows

__version__ = "0.1.0"


def example_path(name):
    """Path to a bundled example file (e.g. 'end-to-end.arch')."""
    from importlib.resources import files

    return files("archuncert") / "data" / name
