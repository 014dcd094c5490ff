"""BVH-accelerated multi-hit ray casting over triangle meshes.

Each ray's nearest `max_hits` intersections are returned sorted by
distance and ranked along the ray: the codec records each crossing as
one layer, and its layer count is the cast's only depth limit. The tree
is a complete binary median-split BVH in heap order: node i has children
2i+1 and 2i+2, the 2^depth leaves are nodes 2^depth - 1 onward, and
`leaf_bounds` holds each leaf's slice of the sorted triangles. Building
it takes one numpy pass per level. Casting is wavefront-vectorized: a
frontier of (ray, node) pairs descends one level per pass, then one pass
tests the leaves' triangles, so a full pixel grid costs a handful of
numpy passes. Every mesh, down to a single triangle (a tree of one leaf
at the root), is cast through the tree.

The rays are cast in cache-sized blocks of consecutive rays, each
traced, sorted, merged and capped on its own. A block's frontier and
kernel temporaries then stay near the L2 cache instead of spanning tens
to hundreds of megabytes for a whole image, which makes casts faster
and bounds their memory by the block rather than the image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import MeshError, TriangleMesh, _frozen, _ramp

EPS_MIN = 1e-6  # reject hits this close to the ray origin (self-hits)
EPS_DUP = 1e-6  # merge coincident hits (shared edge/vertex double-counts)

_LEAF_SIZE = 4
# Rays per cast block. Cast as one block, a 256^2 image of these meshes
# peaks at 29-101 MB of frontier and kernel arrays (tracemalloc), far past
# the L2 cache; 2^12-ray blocks peak at 8-16 MB, result included. Much
# smaller blocks pay numpy's per-call overhead once per tree level and
# block. Per-view cast time (ms, median of 5 rounds over 3 sampled views of
# each normalized mesh; 2-CPU Xeon, 4 MB L2 per core):
#
#   mesh (faces)           res   2^10 2^11 2^12 2^13 2^14 2^15 2^16 | 2^18
#   cube (12)              256     64   58   78   95  100  107  119 |  115
#   cube                   512    249  218  226  263  356  411  420 |  454
#   nested cubes (36)      256    118  105  103  105  113  113  131 |  134
#   nested cubes           512    506  438  436  474  584  655  693 |  785
#   torus (2,304)          256     84   65   56   53   51   49   51 |   50
#   torus                  512    345  254  226  216  200  253  258 |  303
#   icosphere(4) (5,120)   256    136  116  104  101  100  101  119 |  116
#   icosphere(4)           512    508  438  393  379  396  455  587 |  783
#   icosphere(6) (81,920)  256    182  153  140  134  133  130  145 |  147
#   icosphere(6)           512    729  597  541  496  491  573  703 | 1021
#
# 2^12 and 2^13 have the lowest totals (2,303 and 2,316 ms), and 2^12 the
# lower geometric mean against one 2^18-ray block (0.70 vs 0.71) and half
# the working memory. Any block size gives bitwise the same hits.
_RAY_CHUNK = 1 << 12


@dataclass(frozen=True)
class HitBatch:
    """Hits for a batch of rays, sorted by (ray, depth), duplicates merged."""

    ray: np.ndarray    # (n,) index into the input ray arrays
    depth: np.ndarray  # (n,)
    face: np.ndarray   # (n,)
    bary_u: np.ndarray
    bary_v: np.ndarray
    layer: np.ndarray  # (n,) int64 rank along the ray: 0 for the nearest hit


class BvhAccel:
    """Complete median-split BVH in heap order. Immutable; share freely.

    Node i has children 2i+1 and 2i+2, so only the node boxes are stored.
    Leaf k is node 2^depth - 1 + k and holds the triangles
    tri_order[leaf_bounds[k]:leaf_bounds[k + 1]]. Triangle data is stored
    as per-component rows (shape (3, n_faces)) so gathered kernels stay
    cache-friendly.
    """

    __slots__ = (
        "node_min", "node_max", "depth", "leaf_bounds",
        "tri_order", "tri_v0", "tri_e1", "tri_e2", "n_faces",
    )

    def __init__(self, node_min, node_max, depth, leaf_bounds,
                 tri_order, tri_v0, tri_e1, tri_e2):
        self.node_min, self.node_max = _frozen(node_min.T), _frozen(node_max.T)
        self.depth = depth
        self.leaf_bounds, self.tri_order = _frozen(leaf_bounds), _frozen(tri_order)
        self.tri_v0, self.tri_e1, self.tri_e2 = (_frozen(a.T) for a in (tri_v0, tri_e1, tri_e2))
        self.n_faces = self.tri_v0.shape[1]


def _segment_starts(m: int, level: int) -> np.ndarray:
    """First tri_order slot of each of the 2^level nodes on a tree level."""
    return (np.arange(1 << level, dtype=np.int64) * m) >> level


def build_bvh(mesh: TriangleMesh) -> BvhAccel:
    """Median-split BVH: a complete binary tree in heap order.

    The 2^depth leaves hold 1-4 triangles each. Segment k of level l is
    tri_order[(k*m) >> l : ((k+1)*m) >> l]; one sort per level orders
    every segment by centroid along its longest centroid extent, so its
    two halves are the children's segments. Leaf boxes bound their
    triangles, and each parent box bounds its two children.

    Traversal answers exactly the same hit sets as brute-force testing
    of every triangle; the tree only prunes.
    """
    if mesh.is_empty:
        raise MeshError("cannot build a BVH over an empty mesh")
    v0, v1, v2 = mesh.triangle_corners()
    tri_min = np.minimum(np.minimum(v0, v1), v2)
    tri_max = np.maximum(np.maximum(v0, v1), v2)
    centroids = 0.5 * (tri_min + tri_max)
    scene_diag = float(np.linalg.norm(tri_max.max(axis=0) - tri_min.min(axis=0)))
    pad = 1e-9 * (scene_diag + 1.0)  # guards against edge-on-box culling

    m = mesh.n_faces
    depth = ((m - 1) // _LEAF_SIZE).bit_length()  # least depth with m <= 4 * 2^depth
    tri_order = np.arange(m, dtype=np.int64)
    for level in range(depth):
        starts = _segment_starts(m, level)
        cen = centroids[tri_order]
        extent = np.maximum.reduceat(cen, starts) - np.minimum.reduceat(cen, starts)
        segment = np.repeat(np.arange(1 << level), np.diff(starts, append=m))
        key = cen[np.arange(m), np.argmax(extent, axis=1)[segment]]
        tri_order = tri_order[np.lexsort((key, segment))]

    starts = _segment_starts(m, depth)
    box_min = np.minimum.reduceat(tri_min[tri_order], starts) - pad
    box_max = np.maximum.reduceat(tri_max[tri_order], starts) + pad
    level_min, level_max = [box_min], [box_max]
    for _ in range(depth):
        box_min = np.minimum(box_min[0::2], box_min[1::2])
        box_max = np.maximum(box_max[0::2], box_max[1::2])
        level_min.append(box_min)
        level_max.append(box_max)

    return BvhAccel(
        node_min=np.concatenate(level_min[::-1]),
        node_max=np.concatenate(level_max[::-1]),
        depth=depth,
        leaf_bounds=np.append(starts, m),
        tri_order=tri_order,
        tri_v0=v0,
        tri_e1=v1 - v0,
        tri_e2=v2 - v0,
    )


def _moller_trumbore_components(
    ox, oy, oz, dx, dy, dz, v0x, v0y, v0z, e1x, e1y, e1z, e2x, e2y, e2z
):
    """Intersection kernel on broadcastable component arrays.

    Returns (accept, t, u, v) with the shared broadcast shape. Edge and
    vertex grazes are accepted inclusively (u, v >= 0, u + v <= 1);
    duplicate records from shared edges merge downstream.
    """
    # pvec = cross(d, e2), det = dot(e1, pvec)
    px = dy * e2z - dz * e2y
    py = dz * e2x - dx * e2z
    pz = dx * e2y - dy * e2x
    det = e1x * px + e1y * py + e1z * pz
    nonparallel = np.abs(det) > 1e-12
    inv_det = 1.0 / np.where(nonparallel, det, 1.0)
    sx = ox - v0x
    sy = oy - v0y
    sz = oz - v0z
    u = (sx * px + sy * py + sz * pz) * inv_det
    # qvec = cross(s, e1)
    qx = sy * e1z - sz * e1y
    qy = sz * e1x - sx * e1z
    qz = sx * e1y - sy * e1x
    v = (dx * qx + dy * qy + dz * qz) * inv_det
    t = (e2x * qx + e2y * qy + e2z * qz) * inv_det
    accept = nonparallel & (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0) & (t > EPS_MIN)
    return accept, t, u, v


def _safe_inverse(dirs_t: np.ndarray) -> np.ndarray:
    """Per-component reciprocal with zeros replaced by a denormal-scale
    stand-in, so slab intervals stay finite: an origin exactly on a
    parallel slab plane yields t = 0 (non-constraining), an origin
    outside yields a same-signed huge interval (correctly culled)."""
    tiny = 1e-300
    safe = np.where(np.abs(dirs_t) < tiny, np.where(dirs_t < 0, -tiny, tiny), dirs_t)
    return 1.0 / safe


def _slab_pairs(accel, inv_t, oinv_t, rays, nodes):
    """Ray/AABB overlap for (ray, node) pairs over [EPS_MIN, inf).

    inv_t is the precomputed per-ray direction reciprocal (3, n) and
    oinv_t = origin * inv (3, n), so each bound costs one gather, one
    multiply, and one subtract per axis.
    """
    bmin, bmax = accel.node_min, accel.node_max
    ix, iy, iz = inv_t[0][rays], inv_t[1][rays], inv_t[2][rays]
    px, py, pz = oinv_t[0][rays], oinv_t[1][rays], oinv_t[2][rays]
    t1 = bmin[0][nodes] * ix - px
    t2 = bmax[0][nodes] * ix - px
    near = np.minimum(t1, t2)
    far = np.maximum(t1, t2)
    t1 = bmin[1][nodes] * iy - py
    t2 = bmax[1][nodes] * iy - py
    near = np.maximum(near, np.minimum(t1, t2))
    far = np.minimum(far, np.maximum(t1, t2))
    t1 = bmin[2][nodes] * iz - pz
    t2 = bmax[2][nodes] * iz - pz
    near = np.maximum(near, np.minimum(t1, t2))
    far = np.minimum(far, np.maximum(t1, t2))
    return (far >= near) & (far >= EPS_MIN)


def _cast_chunk(accel: BvhAccel, origins, dirs, first_ray: int):
    """Unsorted hits (ray, t, face, u, v) of the rays numbered from first_ray.

    A frontier of (ray, node) pairs descends one level per pass: each
    pair whose box the ray crosses is replaced by the node's two
    children. Every leaf is on the last level, so one pass then tests
    the surviving pairs' triangles.
    """
    origins_t = np.ascontiguousarray(origins.T)
    dirs_t = np.ascontiguousarray(dirs.T)
    inv_t = _safe_inverse(dirs_t)
    oinv_t = origins_t * inv_t
    ray = np.arange(len(origins), dtype=np.int64)
    node = np.zeros(len(origins), dtype=np.int64)
    for level in range(accel.depth + 1):
        if level:
            ray = np.concatenate([ray, ray])
            node = np.concatenate([2 * node + 1, 2 * node + 2])
        keep = _slab_pairs(accel, inv_t, oinv_t, ray, node)
        ray, node = ray[keep], node[keep]

    leaf = node - ((1 << accel.depth) - 1)
    first = accel.leaf_bounds[leaf]
    count = accel.leaf_bounds[leaf + 1] - first
    rr = np.repeat(ray, count)
    tris = accel.tri_order[np.repeat(first, count) + _ramp(count)]
    accept, t, u, v = _moller_trumbore_components(
        origins_t[0][rr], origins_t[1][rr], origins_t[2][rr],
        dirs_t[0][rr], dirs_t[1][rr], dirs_t[2][rr],
        accel.tri_v0[0][tris], accel.tri_v0[1][tris], accel.tri_v0[2][tris],
        accel.tri_e1[0][tris], accel.tri_e1[1][tris], accel.tri_e1[2][tris],
        accel.tri_e2[0][tris], accel.tri_e2[1][tris], accel.tri_e2[2][tris],
    )
    return rr[accept] + first_ray, t[accept], tris[accept], u[accept], v[accept]


def _sort_merge_cap(max_hits, ray, t, face, u, v):
    """Sort hits by (ray, depth), merge near-duplicates, rank and keep each ray's nearest."""
    order = np.lexsort((face, t, ray))
    ray, t, face, u, v = ray[order], t[order], face[order], u[order], v[order]
    # Merge a hit into the previous one on its ray when they are closer than EPS_DUP.
    dup = (np.diff(ray, prepend=-1) == 0) & (np.diff(t, prepend=0.0) < EPS_DUP)
    ray, t, face, u, v = ray[~dup], t[~dup], face[~dup], u[~dup], v[~dup]
    layer = np.arange(ray.size) - np.searchsorted(ray, ray)
    keep = layer < max_hits
    return ray[keep], t[keep], face[keep], u[keep], v[keep], layer[keep]


def cast_rays(accel: BvhAccel, origins: np.ndarray, directions: np.ndarray,
              max_hits: int) -> HitBatch:
    """Each ray's nearest `max_hits` (>= 1) hits, ranked along it; unit directions."""
    if max_hits < 1:
        raise ValueError(f"max_hits must be at least 1, got {max_hits!r}")
    # Not copied: each block transposes its slice, and a camera's rays share one origin.
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    directions = np.ascontiguousarray(directions, dtype=np.float64).reshape(-1, 3)
    # Blocks are disjoint, increasing ray ranges, so sorting each block on
    # its own and concatenating equals one global sort, merge and cap, and
    # a hit's rank in its block is its rank along its ray.
    blocks = [
        _sort_merge_cap(max_hits, *_cast_chunk(
            accel, origins[lo:lo + _RAY_CHUNK], directions[lo:lo + _RAY_CHUNK], lo
        ))
        for lo in range(0, max(len(origins), 1), _RAY_CHUNK)  # one block even for no rays
    ]
    return HitBatch(*(np.concatenate(column) for column in zip(*blocks)))
