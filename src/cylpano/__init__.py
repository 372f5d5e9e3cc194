"""Deterministic core of a LiDAR + camera 3D panoptic segmentation pipeline."""

from .augment import (
    AugConfig,
    AugResult,
    MultiModalSample,
    apply_mix,
    augment,
    instance_paste_mask,
    paste_instances,
    scene_swap_mask,
    sync_image_swap,
)
from .config import PipelineConfig, QueryConfig, TokenConfig, load_config, save_config
from .geometry import (
    CameraModel,
    InstanceTransform,
    cart_to_polar,
    project_points,
    transform_instance,
)
from .grid import (
    CylGrid,
    CylGridSpec,
    PointCloud,
    pair_voxel_image,
    voxelize,
)
from .metrics import ClassTable, PanopticReport, SegLabeling, evaluate, match_segments, miou, panoptic_quality
from .queries import (
    LocationHint,
    Mask2D,
    QuerySet,
    assemble_queries,
    build_bev_heatmap,
    camera_pixels,
    dbscan,
    fps,
    frustum_points,
    lift_peaks_to_3d,
    nms_peaks,
)
from .synth import SceneConfig, SynthSample, generate_scene, render_overlay
from .tokens import (
    FeatureMap,
    SpeParams,
    TokenSet,
    VoxelFeatures,
    aggregate_image_feature,
    build_tokens,
)

__version__ = "0.1.0"
