"""Top-keypoint heatmap tracking pipeline: rendering, decoding, losses,
association, synthetic scenes and CLEAR-MOT/IDF1 scoring."""

from .association import (
    Track,
    TrackerState,
    TrackOutput,
    greedy_match,
    hungarian_match,
    predict_prev_positions,
    step,
)
from .config import ConfigError, ConfigFile
from .evaluation import (
    MetricsReport,
    bbox_iou,
    compute_clear,
    compute_idf1,
    match_frame,
)
from .fileio import (
    FileFormatError,
    MotRow,
    MotTable,
    list_head_frames,
    read_grid,
    read_head_outputs,
    read_mot_file,
    read_mot_table,
    read_sparse_grid,
    rows_to_frames,
    write_grid,
    write_head_outputs,
    write_mot_file,
)
from .geometry import (
    BBox,
    Detection,
    GridPoint,
    PipelineConfig,
    TopPoint,
    corners_from_top,
    quantize_point,
    top_point_from_bbox,
)
from .heatmap import (
    FrameAnnotations,
    HeadOutput,
    ObjectAnnotation,
    SparseGrid,
    decode_detections,
    draw_bumps,
    extract_peaks,
    gaussian_sigma,
)
from .losses import (
    FrameTargets,
    LossBreakdown,
    SupervisedPoint,
    finite_difference_check,
    focal_loss,
    masked_l1_loss,
    targets_from_head,
    total_loss,
)
from .simulator import (
    CorruptionConfig,
    SceneConfig,
    corrupt,
    gen_scene,
    pick_reference_frame,
    render_gt_heatmap,
    synthesize_head_outputs,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
