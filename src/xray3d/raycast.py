"""BVH-accelerated multi-hit casting of a ray fan over triangle meshes.

Every ray of a cast starts at one origin, as an encode's rays start at
the camera centre. Each ray's nearest `max_hits` intersections are
returned sorted by distance and ranked along the ray: the codec records
each crossing as one layer, and its layer count is the cast's only depth
limit. The tree is a complete binary median-split BVH in heap order:
node i has children 2i+1 and 2i+2, the 2^depth leaves are nodes
2^depth - 1 onward, and `leaf_bounds` holds each leaf's slice of the
sorted triangles. Building it takes one numpy pass per level. Casting is
wavefront-vectorized, and each origin term is computed once per cast:
the node boxes are taken relative to the origin, and Moller-Trumbore's
s = o - v0, q = s x e1 and e2 . q are kept per triangle. A frontier of
(ray, node) pairs descends two levels per pass, then one pass tests the
leaves' triangles, so a full pixel grid costs a handful of numpy passes.
Every mesh, down to a single triangle (a tree of one leaf at the root),
is cast through the tree.

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
# peaks at 24-75 MB of frontier and kernel arrays (tracemalloc), far past
# the L2 cache; 2^12-ray blocks peak at 7-15 MB, result included. Much
# smaller blocks pay numpy's per-call overhead once per tree level and
# block. Per-view cast time (ms, median of 5 rounds over 3 sampled views of
# each normalized mesh, 12 layers; 2-CPU Xeon, 4 MB L2 per core):
#
#   mesh (faces)           res   2^10 2^11 2^12 2^13 2^14 2^15 2^16 | 2^18
#   cube (12)              256     34   28   36   43   47   51   61 |   61
#   cube                   512    136  117  109  107  193  212  232 |  291
#   nested cubes (36)      256     47   42   38   41   48   63   83 |   86
#   nested cubes           512    201  181  161  167  235  287  315 |  359
#   torus (2,304)          256     38   28   25   23   22   22   25 |   24
#   torus                  512    186  128  115  111  108  113  142 |  194
#   icosphere(4) (5,120)   256     63   53   48   47   51   52   77 |   78
#   icosphere(4)           512    233  196  205  198  198  265  369 |  384
#   icosphere(6) (81,920)  256    112   88   69   78   77   63   70 |   72
#   icosphere(6)           512    302  250  217  218  244  289  441 |  528
#
# 2^12 has the lowest total (1,023 ms; 2^13 1,033) and the lowest geometric
# mean against one 2^18-ray block (0.57; 2^13 0.58). Any block size gives
# bitwise the same hits.
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

    Node i has children 2i+1 and 2i+2 (grandchildren 4i+3 ... 4i+6), so
    only the node boxes are stored; each cast takes them relative to its
    fan's origin. Leaf k is node 2^depth - 1 + k and holds the triangles
    tri_order[leaf_bounds[k]:leaf_bounds[k + 1]]. Triangle data is stored
    as per-component rows (shape (3, n_faces)), as are a cast's origin terms.
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


def _moller_trumbore(dirs_t, tri_terms, rr, tris):
    """Hits (ray, t, triangle, u, v) of the (ray, triangle) pairs (rr, tris).

    tri_terms holds e1, e2, s, q and e2 . q per triangle. Grazes are
    accepted inclusively (u, v >= 0, u + v <= 1); shared-edge duplicates
    merge downstream. A pair with u outside [0, 1] fails u >= 0 or (as
    v >= 0) u + v <= 1, so it is dropped before v and t are computed.
    """
    dx, dy, dz = (a.take(rr) for a in dirs_t)
    e1x, e1y, e1z, e2x, e2y, e2z, sx, sy, sz = (a.take(tris) for a in tri_terms[:9])
    # pvec = cross(d, e2), det = dot(e1, pvec)
    px = dy * e2z - dz * e2y
    py = dz * e2x - dx * e2z
    pz = dx * e2y - dy * e2x
    det = e1x * px + e1y * py + e1z * pz
    nonparallel = np.abs(det) > 1e-12
    inv_det = 1.0 / np.where(nonparallel, det, 1.0)
    u = (sx * px + sy * py + sz * pz) * inv_det
    live = np.flatnonzero(nonparallel & (u >= 0.0) & (u <= 1.0))
    rr, tris, u, inv_det = rr.take(live), tris.take(live), u.take(live), inv_det.take(live)
    dx, dy, dz = (a.take(rr) for a in dirs_t)
    qx, qy, qz, e2q = (a.take(tris) for a in tri_terms[9:])
    v = (dx * qx + dy * qy + dz * qz) * inv_det
    t = e2q * inv_det
    hit = np.flatnonzero((v >= 0.0) & (u + v <= 1.0) & (t > EPS_MIN))
    return rr.take(hit), t.take(hit), tris.take(hit), u.take(hit), v.take(hit)


def _safe_inverse(dirs_t: np.ndarray) -> np.ndarray:
    """Per-component reciprocal with zeros replaced by a denormal-scale
    stand-in, so slab intervals stay finite: an origin exactly on a
    parallel slab plane yields t = 0 (non-constraining), an origin
    outside yields a same-signed huge interval (correctly culled)."""
    tiny = 1e-300
    safe = np.where(np.abs(dirs_t) < tiny, np.where(dirs_t < 0, -tiny, tiny), dirs_t)
    return 1.0 / safe


def _slab_pairs(box_min, box_max, inv_t, rays, nodes):
    """Ray/AABB overlap for (ray, node) pairs over [EPS_MIN, inf).

    The boxes are relative to the fan's origin and inv_t is the per-ray
    direction reciprocal (3, n), so each bound costs one multiply.
    """
    ix, iy, iz = (a.take(rays) for a in inv_t)
    t1 = box_min[0].take(nodes) * ix
    t2 = box_max[0].take(nodes) * ix
    near = np.minimum(t1, t2)
    far = np.maximum(t1, t2)
    t1 = box_min[1].take(nodes) * iy
    t2 = box_max[1].take(nodes) * iy
    near = np.maximum(near, np.minimum(t1, t2))
    far = np.minimum(far, np.maximum(t1, t2))
    t1 = box_min[2].take(nodes) * iz
    t2 = box_max[2].take(nodes) * iz
    near = np.maximum(near, np.minimum(t1, t2))
    far = np.minimum(far, np.maximum(t1, t2))
    return (far >= near) & (far >= EPS_MIN)


def _cast_chunk(accel: BvhAccel, fan, dirs):
    """Unsorted hits (ray, t, face, u, v) of a block of the fan's rays.

    A frontier of (ray, node) pairs descends from the root two levels per
    pass (one first when the depth is odd): each pair whose box the ray
    crosses becomes the node's grandchildren 4i+3 ... 4i+6, the same leaf
    set as one level per pass, since a box holds its descendants'. Every
    leaf is on the last level; one pass then tests their triangles.
    """
    box_min, box_max, tri_terms = fan
    dirs_t = np.ascontiguousarray(dirs.T)
    inv_t = _safe_inverse(dirs_t)
    ray = np.arange(len(dirs), dtype=np.int64)
    node = np.zeros(len(dirs), dtype=np.int64)
    for fanout in [1] + [2] * (accel.depth % 2) + [4] * (accel.depth // 2):
        if fanout > 1:
            ray = np.tile(ray, fanout)
            node = (fanout * node + np.arange(fanout - 1, 2 * fanout - 1)[:, None]).ravel()
        keep = np.flatnonzero(_slab_pairs(box_min, box_max, inv_t, ray, node))
        ray, node = ray.take(keep), node.take(keep)

    leaf = node - ((1 << accel.depth) - 1)
    first = accel.leaf_bounds.take(leaf)
    count = accel.leaf_bounds.take(leaf + 1) - first
    tris = accel.tri_order.take(np.repeat(first, count) + _ramp(count))
    return _moller_trumbore(dirs_t, tri_terms, np.repeat(ray, count), tris)


def _sort_merge_cap(max_hits, first_ray, ray, t, face, u, v):
    """Sort hits by (ray, depth), merge near-duplicates, rank and keep each
    ray's nearest. The ray key is the block-local ray in the narrowest type
    holding -_RAY_CHUNK (int16: radix-sorted); first_ray is added after.

    A ray crosses a triangle at most once, so the (ray, t, face) keys are
    unique and any exact sort on them gives one order: an unstable sort on
    t, a stable one on the ray, then the rare runs of exactly equal t on a
    ray are put in face order."""
    ray = ray.astype(np.min_scalar_type(-_RAY_CHUNK))
    order = np.argsort(t)
    order = order[np.argsort(ray[order], kind="stable")]
    r, s = ray[order], t[order]
    tie = np.flatnonzero((r[1:] == r[:-1]) & (s[1:] == s[:-1]))
    if tie.size:
        run = np.union1d(tie, tie + 1)
        order[run] = order[run][np.lexsort((face[order[run]], s[run], r[run]))]
    # Reordering within a run of equal (ray, t) leaves r and s as they are.
    ray, t, face, u, v = r, s, face[order], u[order], v[order]
    # Merge a hit into the previous one on its ray when they are closer than EPS_DUP.
    dup = (np.diff(ray, prepend=-1) == 0) & (np.diff(t, prepend=0.0) < EPS_DUP)
    ray, t, face, u, v = ray[~dup], t[~dup], face[~dup], u[~dup], v[~dup]
    layer = np.arange(ray.size) - np.searchsorted(ray, ray)
    keep = layer < max_hits
    return ray[keep].astype(np.int64) + first_ray, t[keep], face[keep], u[keep], v[keep], layer[keep]


def cast_rays(accel: BvhAccel, origins: np.ndarray, directions: np.ndarray,
              max_hits: int) -> HitBatch:
    """Each ray's nearest `max_hits` (>= 1) hits, ranked along it; unit directions.

    The rays are a fan: every row of `origins` is the same point, as for a
    camera's rays (pass it with np.broadcast_to), whose terms are computed once.
    """
    if max_hits < 1:
        raise ValueError(f"max_hits must be at least 1, got {max_hits!r}")
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)  # not copied
    directions = np.ascontiguousarray(directions, dtype=np.float64).reshape(-1, 3)
    if len(origins) != len(directions):
        raise ValueError(f"got {len(origins)} ray origins for {len(directions)} directions")
    o = origins[:1].T if len(origins) else np.zeros((3, 1))
    stray = np.flatnonzero(np.any(origins != o.T, axis=1))
    if stray.size:
        raise ValueError(f"cast_rays casts a fan from one origin {o.ravel().tolist()}, but "
                         f"ray {stray[0]} starts at {origins[stray[0]].tolist()}")
    (sx, sy, sz), (e1x, e1y, e1z) = o - accel.tri_v0, accel.tri_e1
    q = (sy * e1z - sz * e1y, sz * e1x - sx * e1z, sx * e1y - sy * e1x)
    e2q = accel.tri_e2[0] * q[0] + accel.tri_e2[1] * q[1] + accel.tri_e2[2] * q[2]
    fan = accel.node_min - o, accel.node_max - o, (*accel.tri_e1, *accel.tri_e2, sx, sy, sz, *q, e2q)
    # Blocks are disjoint, increasing ray ranges, so sorting each block on
    # its own and concatenating equals one global sort, merge and cap, and
    # a hit's rank in its block is its rank along its ray.
    blocks = [
        _sort_merge_cap(max_hits, lo, *_cast_chunk(accel, fan, directions[lo:lo + _RAY_CHUNK]))
        for lo in range(0, max(len(directions), 1), _RAY_CHUNK)  # one block even for no rays
    ]
    return HitBatch(*(np.concatenate(column) for column in zip(*blocks)))
