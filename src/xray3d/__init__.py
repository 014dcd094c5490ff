"""xray3d: layered surface tensor codec for triangle meshes.

Encode a mesh from a camera view into an L x 8 x H x W tensor of
per-layer surface samples (hit, depth, normal, color), decode back to
an oriented point cloud, reconstruct a watertight mesh through a dense
Poisson solve, and score the round trip with Chamfer distance and
F-score.
"""

from .camera import (
    DEFAULT_DISTANCE,
    DEFAULT_FOV_X,
    Camera,
    camera_from_spherical,
    generate_rays,
    look_at,
    sample_view_angles,
)
from .codec import (
    PointCloud,
    XRayDataError,
    XRayFormatError,
    XRayTensor,
    decode_to_pointcloud,
    encode,
    pad_or_truncate,
    read_xray,
    storage_ratio,
    write_xray,
)
from .diffusion import (
    NoiseSchedule,
    dm_loss,
    forward_step,
    reverse_step,
    upsampler_loss,
)
from .mesh import (
    MeshError,
    RigidTransform,
    TriangleMesh,
    face_normals,
    normalize_mesh,
    surface_attributes,
)
from .meshio import (
    MeshIOError,
    load_mesh,
    load_pointcloud_ply,
    save_mesh,
    save_pointcloud_ply,
)
from .metrics import (
    IcpResult,
    MetricReport,
    NearestNeighborIndex,
    chamfer_f_score,
    evaluate_pair,
    icp_align,
    sample_surface,
)
from .poisson import (
    Field,
    GridSpec,
    PoissonError,
    SolveInfo,
    SolverConvergenceError,
    divergence,
    extract_isosurface,
    reconstruct,
    solve_poisson,
    splat_normals,
)
from .raycast import (
    BvhAccel,
    HitBatch,
    build_bvh,
    cast_rays,
)

__version__ = "0.1.0"

__all__ = [
    "Camera", "camera_from_spherical", "generate_rays",
    "look_at", "sample_view_angles", "DEFAULT_FOV_X", "DEFAULT_DISTANCE",
    "PointCloud", "XRayTensor", "XRayDataError", "XRayFormatError",
    "encode", "decode_to_pointcloud", "pad_or_truncate", "read_xray",
    "write_xray", "storage_ratio",
    "NoiseSchedule", "forward_step", "reverse_step", "dm_loss", "upsampler_loss",
    "MeshError", "RigidTransform", "TriangleMesh", "face_normals",
    "normalize_mesh", "surface_attributes",
    "MeshIOError", "load_mesh", "save_mesh", "load_pointcloud_ply",
    "save_pointcloud_ply",
    "IcpResult", "MetricReport", "NearestNeighborIndex", "chamfer_f_score",
    "evaluate_pair", "icp_align", "sample_surface",
    "GridSpec", "Field", "SolveInfo",
    "PoissonError", "SolverConvergenceError", "splat_normals", "divergence",
    "solve_poisson", "extract_isosurface", "reconstruct",
    "BvhAccel", "HitBatch", "build_bvh", "cast_rays",
]
