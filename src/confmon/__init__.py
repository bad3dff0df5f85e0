"""Conformance-based control-flow anomaly detection.

Aligns event logs against labeled accepting Petri nets, distills alignment
diagnoses (per-activity misalignment counters plus fitness), injects
synthetic control-flow anomalies, and trains one-class detectors on the
diagnoses of normal behavior.
"""

from .alignment import (Alignment, CostScheme, Move, SKIP, UNKNOWN,
                        misalignments, optimal_alignment, trace_fitness,
                        worst_case_cost)
from .detect import (DETECTOR_KINDS, Detector, ae_gradient_check, classify,
                     default_ae_layers, load_detector, save_detector,
                     score_matrix, train, train_group)
from .diagnoses import (DiagnosesMatrix, build_diagnoses, coverage,
                        diagnosis_columns, log_fitness, read_diagnoses,
                        write_diagnoses)
from .errors import (AlignmentError, ConfmonError, DetectError, InjectError,
                     LogError, MetricsError, ModelError, PlayoutError)
from .eventlog import (EventLog, LogStats, Trace, parse_log, split_log, stats,
                       write_log, write_log_csv)
from .experiment import ExperimentConfig, parse_experiment_config, run_experiment
from .inject import (ANOMALY_TYPES, DEFAULT_UNKNOWN_POOL, InjectionSpec,
                     build_eval_sets, inject_log, inject_trace)
from .metrics import Confusion, PrfResult, RocCurve, confusion, prf, roc_auc
from .petri import (NoiseParams, PetriNet, SoundnessReport, bundled_model,
                    check_soundness, enabled, fire, is_workflow_net,
                    load_model, parse_model, playout)

__version__ = "0.1.0"

# confmon.cli is imported on first use of one of these names rather than
# here, so that `python -m confmon.cli` does not find the module already in
# sys.modules when it runs it.
_CLI_NAMES = ("main",)

# The harness is exported by its names; its module stays out of __all__.
__all__ = sorted([name for name in dir() if not name.startswith("_") and name != "experiment"]
                 + ["cli", *_CLI_NAMES])


def __getattr__(name: str):
    if name == "cli" or name in _CLI_NAMES:
        from importlib import import_module

        cli = import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
