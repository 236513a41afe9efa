"""Top-keypoint heatmap tracking pipeline: rendering, decoding, losses,
association, synthetic scenes and CLEAR-MOT/IDF1 scoring.

`import peaktrack` imports no submodule: each exported name is imported
from its submodule on first use (PEP 562), so a caller pays only for the
modules it uses, and scoring MOT files never loads numpy.
"""

import importlib

# submodule -> the names it exports
_MODULE_EXPORTS = {
    "association": "Track TrackerState TrackOutput greedy_match hungarian_match step",
    "config": "ConfigError ConfigFile",
    "evaluation": "MetricsReport compute_clear compute_idf1",
    "fileio": "list_head_frames read_grid read_head_outputs read_sparse_grid write_grid "
    "write_head_outputs",
    "geometry": "BBox Detection GridPoint PipelineConfig TopPoint",
    "heatmap": "FrameAnnotations HeadOutput ObjectAnnotation SparseGrid decode_detections "
    "draw_bumps extract_peaks gaussian_sigma",
    "losses": "FrameTargets LossBreakdown SupervisedPoint finite_difference_check focal_loss "
    "masked_l1_loss targets_from_head total_loss",
    "motfile": "FileFormatError MotColumns MotRow read_mot_columns read_mot_file "
    "read_mot_frames rows_to_frames write_mot_file",
    "simulator": "CorruptionConfig SceneConfig corrupt gen_scene pick_reference_frame "
    "synthesize_head_outputs",
}
# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names.split()}
_SUBMODULES = sorted([*_MODULE_EXPORTS, "assignment"])

__all__ = sorted([*_EXPORTS, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *__all__])
