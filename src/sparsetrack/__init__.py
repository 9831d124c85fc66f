"""Sparse aerial LiDAR target detection and multi-target tracking."""

from .core import (Measurement, NumericalError, Pose, Scan, ValidationError,
                   to_global)
from .detector import (Detector, DetectorConfig, PRESETS, TemporalHistory,
                       adaptive_epsilon, dbscan, estimate_centroid,
                       get_preset, roi_filter, validate_geometric,
                       validate_jump, validate_temporal, voxel_downsample)
from .filter import FilterConfig, IMMState, imm_correct_pda, imm_init, imm_mix
from .association import (GateResult, JpdaParams, build_cost, gate, hungarian,
                          jpda)
from .trackman import (FrameRecord, Track, Tracker, TrackerConfig,
                       lifecycle_advance, run_tracker)
from .simulator import (GroundTruth, Scenario, SensorModel, gen_trajectories,
                        run_scenario)
from .metrics import DetectionReport, MotReport, eval_detection, eval_mot

__version__ = "0.1.0"
