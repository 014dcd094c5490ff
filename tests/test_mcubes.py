import tracemalloc

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from conftest import closed_two_manifold
from xray3d import mcubes
from xray3d.mcubes import _TRI_TABLE, marching_cubes

# Bourke's numbering, written out here rather than read from the module:
# corners 0-3 ring the cube's lower z face, 4-7 its upper one, and edge e
# joins the two corners listed for it.
_CORNERS = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
            (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6),
          (6, 7), (7, 4), (0, 4), (1, 5), (2, 6), (3, 7)]

# The classic triangle table (Lorensen & Cline, SIGGRAPH 1987, as listed in
# Bourke, "Polygonising a scalar field", 1994): edge triples per corner
# configuration, bit c set when corner c is below iso, each triangle's
# normal facing the corners below iso. The module derives its own table
# from a rule; this one is the oracle for its loops.
_BOURKE_ROWS = (
    (-1,),
    (0, 8, 3),
    (0, 1, 9),
    (1, 8, 3, 9, 8, 1),
    (1, 2, 10),
    (0, 8, 3, 1, 2, 10),
    (9, 2, 10, 0, 2, 9),
    (2, 8, 3, 2, 10, 8, 10, 9, 8),
    (3, 11, 2),
    (0, 11, 2, 8, 11, 0),
    (1, 9, 0, 2, 3, 11),
    (1, 11, 2, 1, 9, 11, 9, 8, 11),
    (3, 10, 1, 11, 10, 3),
    (0, 10, 1, 0, 8, 10, 8, 11, 10),
    (3, 9, 0, 3, 11, 9, 11, 10, 9),
    (9, 8, 10, 10, 8, 11),
    (4, 7, 8),
    (4, 3, 0, 7, 3, 4),
    (0, 1, 9, 8, 4, 7),
    (4, 1, 9, 4, 7, 1, 7, 3, 1),
    (1, 2, 10, 8, 4, 7),
    (3, 4, 7, 3, 0, 4, 1, 2, 10),
    (9, 2, 10, 9, 0, 2, 8, 4, 7),
    (2, 10, 9, 2, 9, 7, 2, 7, 3, 7, 9, 4),
    (8, 4, 7, 3, 11, 2),
    (11, 4, 7, 11, 2, 4, 2, 0, 4),
    (9, 0, 1, 8, 4, 7, 2, 3, 11),
    (4, 7, 11, 9, 4, 11, 9, 11, 2, 9, 2, 1),
    (3, 10, 1, 3, 11, 10, 7, 8, 4),
    (1, 11, 10, 1, 4, 11, 1, 0, 4, 7, 11, 4),
    (4, 7, 8, 9, 0, 11, 9, 11, 10, 11, 0, 3),
    (4, 7, 11, 4, 11, 9, 9, 11, 10),
    (9, 5, 4),
    (9, 5, 4, 0, 8, 3),
    (0, 5, 4, 1, 5, 0),
    (8, 5, 4, 8, 3, 5, 3, 1, 5),
    (1, 2, 10, 9, 5, 4),
    (3, 0, 8, 1, 2, 10, 4, 9, 5),
    (5, 2, 10, 5, 4, 2, 4, 0, 2),
    (2, 10, 5, 3, 2, 5, 3, 5, 4, 3, 4, 8),
    (9, 5, 4, 2, 3, 11),
    (0, 11, 2, 0, 8, 11, 4, 9, 5),
    (0, 5, 4, 0, 1, 5, 2, 3, 11),
    (2, 1, 5, 2, 5, 8, 2, 8, 11, 4, 8, 5),
    (10, 3, 11, 10, 1, 3, 9, 5, 4),
    (4, 9, 5, 0, 8, 1, 8, 10, 1, 8, 11, 10),
    (5, 4, 0, 5, 0, 11, 5, 11, 10, 11, 0, 3),
    (5, 4, 8, 5, 8, 10, 10, 8, 11),
    (9, 7, 8, 5, 7, 9),
    (9, 3, 0, 9, 5, 3, 5, 7, 3),
    (0, 7, 8, 0, 1, 7, 1, 5, 7),
    (1, 5, 3, 3, 5, 7),
    (9, 7, 8, 9, 5, 7, 10, 1, 2),
    (10, 1, 2, 9, 5, 0, 5, 3, 0, 5, 7, 3),
    (8, 0, 2, 8, 2, 5, 8, 5, 7, 10, 5, 2),
    (2, 10, 5, 2, 5, 3, 3, 5, 7),
    (7, 9, 5, 7, 8, 9, 3, 11, 2),
    (9, 5, 7, 9, 7, 2, 9, 2, 0, 2, 7, 11),
    (2, 3, 11, 0, 1, 8, 1, 7, 8, 1, 5, 7),
    (11, 2, 1, 11, 1, 7, 7, 1, 5),
    (9, 5, 8, 8, 5, 7, 10, 1, 3, 10, 3, 11),
    (5, 7, 0, 5, 0, 9, 7, 11, 0, 1, 0, 10, 11, 10, 0),
    (11, 10, 0, 11, 0, 3, 10, 5, 0, 8, 0, 7, 5, 7, 0),
    (11, 10, 5, 7, 11, 5),
    (10, 6, 5),
    (0, 8, 3, 5, 10, 6),
    (9, 0, 1, 5, 10, 6),
    (1, 8, 3, 1, 9, 8, 5, 10, 6),
    (1, 6, 5, 2, 6, 1),
    (1, 6, 5, 1, 2, 6, 3, 0, 8),
    (9, 6, 5, 9, 0, 6, 0, 2, 6),
    (5, 9, 8, 5, 8, 2, 5, 2, 6, 3, 2, 8),
    (2, 3, 11, 10, 6, 5),
    (11, 0, 8, 11, 2, 0, 10, 6, 5),
    (0, 1, 9, 2, 3, 11, 5, 10, 6),
    (5, 10, 6, 1, 9, 2, 9, 11, 2, 9, 8, 11),
    (6, 3, 11, 6, 5, 3, 5, 1, 3),
    (0, 8, 11, 0, 11, 5, 0, 5, 1, 5, 11, 6),
    (3, 11, 6, 0, 3, 6, 0, 6, 5, 0, 5, 9),
    (6, 5, 9, 6, 9, 11, 11, 9, 8),
    (5, 10, 6, 4, 7, 8),
    (4, 3, 0, 4, 7, 3, 6, 5, 10),
    (1, 9, 0, 5, 10, 6, 8, 4, 7),
    (10, 6, 5, 1, 9, 7, 1, 7, 3, 7, 9, 4),
    (6, 1, 2, 6, 5, 1, 4, 7, 8),
    (1, 2, 5, 5, 2, 6, 3, 0, 4, 3, 4, 7),
    (8, 4, 7, 9, 0, 5, 0, 6, 5, 0, 2, 6),
    (7, 3, 9, 7, 9, 4, 3, 2, 9, 5, 9, 6, 2, 6, 9),
    (3, 11, 2, 7, 8, 4, 10, 6, 5),
    (5, 10, 6, 4, 7, 2, 4, 2, 0, 2, 7, 11),
    (0, 1, 9, 4, 7, 8, 2, 3, 11, 5, 10, 6),
    (9, 2, 1, 9, 11, 2, 9, 4, 11, 7, 11, 4, 5, 10, 6),
    (8, 4, 7, 3, 11, 5, 3, 5, 1, 5, 11, 6),
    (5, 1, 11, 5, 11, 6, 1, 0, 11, 7, 11, 4, 0, 4, 11),
    (0, 5, 9, 0, 6, 5, 0, 3, 6, 11, 6, 3, 8, 4, 7),
    (6, 5, 9, 6, 9, 11, 4, 7, 9, 7, 11, 9),
    (10, 4, 9, 6, 4, 10),
    (4, 10, 6, 4, 9, 10, 0, 8, 3),
    (10, 0, 1, 10, 6, 0, 6, 4, 0),
    (8, 3, 1, 8, 1, 6, 8, 6, 4, 6, 1, 10),
    (1, 4, 9, 1, 2, 4, 2, 6, 4),
    (3, 0, 8, 1, 2, 9, 2, 4, 9, 2, 6, 4),
    (0, 2, 4, 4, 2, 6),
    (8, 3, 2, 8, 2, 4, 4, 2, 6),
    (10, 4, 9, 10, 6, 4, 11, 2, 3),
    (0, 8, 2, 2, 8, 11, 4, 9, 10, 4, 10, 6),
    (3, 11, 2, 0, 1, 6, 0, 6, 4, 6, 1, 10),
    (6, 4, 1, 6, 1, 10, 4, 8, 1, 2, 1, 11, 8, 11, 1),
    (9, 6, 4, 9, 3, 6, 9, 1, 3, 11, 6, 3),
    (8, 11, 1, 8, 1, 0, 11, 6, 1, 9, 1, 4, 6, 4, 1),
    (3, 11, 6, 3, 6, 0, 0, 6, 4),
    (6, 4, 8, 11, 6, 8),
    (7, 10, 6, 7, 8, 10, 8, 9, 10),
    (0, 7, 3, 0, 10, 7, 0, 9, 10, 6, 7, 10),
    (10, 6, 7, 1, 10, 7, 1, 7, 8, 1, 8, 0),
    (10, 6, 7, 10, 7, 1, 1, 7, 3),
    (1, 2, 6, 1, 6, 8, 1, 8, 9, 8, 6, 7),
    (2, 6, 9, 2, 9, 1, 6, 7, 9, 0, 9, 3, 7, 3, 9),
    (7, 8, 0, 7, 0, 6, 6, 0, 2),
    (7, 3, 2, 6, 7, 2),
    (2, 3, 11, 10, 6, 8, 10, 8, 9, 8, 6, 7),
    (2, 0, 7, 2, 7, 11, 0, 9, 7, 6, 7, 10, 9, 10, 7),
    (1, 8, 0, 1, 7, 8, 1, 10, 7, 6, 7, 10, 2, 3, 11),
    (11, 2, 1, 11, 1, 7, 10, 6, 1, 6, 7, 1),
    (8, 9, 6, 8, 6, 7, 9, 1, 6, 11, 6, 3, 1, 3, 6),
    (0, 9, 1, 11, 6, 7),
    (7, 8, 0, 7, 0, 6, 3, 11, 0, 11, 6, 0),
    (7, 11, 6),
    (7, 6, 11),
    (3, 0, 8, 11, 7, 6),
    (0, 1, 9, 11, 7, 6),
    (8, 1, 9, 8, 3, 1, 11, 7, 6),
    (10, 1, 2, 6, 11, 7),
    (1, 2, 10, 3, 0, 8, 6, 11, 7),
    (2, 9, 0, 2, 10, 9, 6, 11, 7),
    (6, 11, 7, 2, 10, 3, 10, 8, 3, 10, 9, 8),
    (7, 2, 3, 6, 2, 7),
    (7, 0, 8, 7, 6, 0, 6, 2, 0),
    (2, 7, 6, 2, 3, 7, 0, 1, 9),
    (1, 6, 2, 1, 8, 6, 1, 9, 8, 8, 7, 6),
    (10, 7, 6, 10, 1, 7, 1, 3, 7),
    (10, 7, 6, 1, 7, 10, 1, 8, 7, 1, 0, 8),
    (0, 3, 7, 0, 7, 10, 0, 10, 9, 6, 10, 7),
    (7, 6, 10, 7, 10, 8, 8, 10, 9),
    (6, 8, 4, 11, 8, 6),
    (3, 6, 11, 3, 0, 6, 0, 4, 6),
    (8, 6, 11, 8, 4, 6, 9, 0, 1),
    (9, 4, 6, 9, 6, 3, 9, 3, 1, 11, 3, 6),
    (6, 8, 4, 6, 11, 8, 2, 10, 1),
    (1, 2, 10, 3, 0, 11, 0, 6, 11, 0, 4, 6),
    (4, 11, 8, 4, 6, 11, 0, 2, 9, 2, 10, 9),
    (10, 9, 3, 10, 3, 2, 9, 4, 3, 11, 3, 6, 4, 6, 3),
    (8, 2, 3, 8, 4, 2, 4, 6, 2),
    (0, 4, 2, 4, 6, 2),
    (1, 9, 0, 2, 3, 4, 2, 4, 6, 4, 3, 8),
    (1, 9, 4, 1, 4, 2, 2, 4, 6),
    (8, 1, 3, 8, 6, 1, 8, 4, 6, 6, 10, 1),
    (10, 1, 0, 10, 0, 6, 6, 0, 4),
    (4, 6, 3, 4, 3, 8, 6, 10, 3, 0, 3, 9, 10, 9, 3),
    (10, 9, 4, 6, 10, 4),
    (4, 9, 5, 7, 6, 11),
    (0, 8, 3, 4, 9, 5, 11, 7, 6),
    (5, 0, 1, 5, 4, 0, 7, 6, 11),
    (11, 7, 6, 8, 3, 4, 3, 5, 4, 3, 1, 5),
    (9, 5, 4, 10, 1, 2, 7, 6, 11),
    (6, 11, 7, 1, 2, 10, 0, 8, 3, 4, 9, 5),
    (7, 6, 11, 5, 4, 10, 4, 2, 10, 4, 0, 2),
    (3, 4, 8, 3, 5, 4, 3, 2, 5, 10, 5, 2, 11, 7, 6),
    (7, 2, 3, 7, 6, 2, 5, 4, 9),
    (9, 5, 4, 0, 8, 6, 0, 6, 2, 6, 8, 7),
    (3, 6, 2, 3, 7, 6, 1, 5, 0, 5, 4, 0),
    (6, 2, 8, 6, 8, 7, 2, 1, 8, 4, 8, 5, 1, 5, 8),
    (9, 5, 4, 10, 1, 6, 1, 7, 6, 1, 3, 7),
    (1, 6, 10, 1, 7, 6, 1, 0, 7, 8, 7, 0, 9, 5, 4),
    (4, 0, 10, 4, 10, 5, 0, 3, 10, 6, 10, 7, 3, 7, 10),
    (7, 6, 10, 7, 10, 8, 5, 4, 10, 4, 8, 10),
    (6, 9, 5, 6, 11, 9, 11, 8, 9),
    (3, 6, 11, 0, 6, 3, 0, 5, 6, 0, 9, 5),
    (0, 11, 8, 0, 5, 11, 0, 1, 5, 5, 6, 11),
    (6, 11, 3, 6, 3, 5, 5, 3, 1),
    (1, 2, 10, 9, 5, 11, 9, 11, 8, 11, 5, 6),
    (0, 11, 3, 0, 6, 11, 0, 9, 6, 5, 6, 9, 1, 2, 10),
    (11, 8, 5, 11, 5, 6, 8, 0, 5, 10, 5, 2, 0, 2, 5),
    (6, 11, 3, 6, 3, 5, 2, 10, 3, 10, 5, 3),
    (5, 8, 9, 5, 2, 8, 5, 6, 2, 3, 8, 2),
    (9, 5, 6, 9, 6, 0, 0, 6, 2),
    (1, 5, 8, 1, 8, 0, 5, 6, 8, 3, 8, 2, 6, 2, 8),
    (1, 5, 6, 2, 1, 6),
    (1, 3, 6, 1, 6, 10, 3, 8, 6, 5, 6, 9, 8, 9, 6),
    (10, 1, 0, 10, 0, 6, 9, 5, 0, 5, 6, 0),
    (0, 3, 8, 5, 6, 10),
    (10, 5, 6),
    (11, 5, 10, 7, 5, 11),
    (11, 5, 10, 11, 7, 5, 8, 3, 0),
    (5, 11, 7, 5, 10, 11, 1, 9, 0),
    (10, 7, 5, 10, 11, 7, 9, 8, 1, 8, 3, 1),
    (11, 1, 2, 11, 7, 1, 7, 5, 1),
    (0, 8, 3, 1, 2, 7, 1, 7, 5, 7, 2, 11),
    (9, 7, 5, 9, 2, 7, 9, 0, 2, 2, 11, 7),
    (7, 5, 2, 7, 2, 11, 5, 9, 2, 3, 2, 8, 9, 8, 2),
    (2, 5, 10, 2, 3, 5, 3, 7, 5),
    (8, 2, 0, 8, 5, 2, 8, 7, 5, 10, 2, 5),
    (9, 0, 1, 5, 10, 3, 5, 3, 7, 3, 10, 2),
    (9, 8, 2, 9, 2, 1, 8, 7, 2, 10, 2, 5, 7, 5, 2),
    (1, 3, 5, 3, 7, 5),
    (0, 8, 7, 0, 7, 1, 1, 7, 5),
    (9, 0, 3, 9, 3, 5, 5, 3, 7),
    (9, 8, 7, 5, 9, 7),
    (5, 8, 4, 5, 10, 8, 10, 11, 8),
    (5, 0, 4, 5, 11, 0, 5, 10, 11, 11, 3, 0),
    (0, 1, 9, 8, 4, 10, 8, 10, 11, 10, 4, 5),
    (10, 11, 4, 10, 4, 5, 11, 3, 4, 9, 4, 1, 3, 1, 4),
    (2, 5, 1, 2, 8, 5, 2, 11, 8, 4, 5, 8),
    (0, 4, 11, 0, 11, 3, 4, 5, 11, 2, 11, 1, 5, 1, 11),
    (0, 2, 5, 0, 5, 9, 2, 11, 5, 4, 5, 8, 11, 8, 5),
    (9, 4, 5, 2, 11, 3),
    (2, 5, 10, 3, 5, 2, 3, 4, 5, 3, 8, 4),
    (5, 10, 2, 5, 2, 4, 4, 2, 0),
    (3, 10, 2, 3, 5, 10, 3, 8, 5, 4, 5, 8, 0, 1, 9),
    (5, 10, 2, 5, 2, 4, 1, 9, 2, 9, 4, 2),
    (8, 4, 5, 8, 5, 3, 3, 5, 1),
    (0, 4, 5, 1, 0, 5),
    (8, 4, 5, 8, 5, 3, 9, 0, 5, 0, 3, 5),
    (9, 4, 5),
    (4, 11, 7, 4, 9, 11, 9, 10, 11),
    (0, 8, 3, 4, 9, 7, 9, 11, 7, 9, 10, 11),
    (1, 10, 11, 1, 11, 4, 1, 4, 0, 7, 4, 11),
    (3, 1, 4, 3, 4, 8, 1, 10, 4, 7, 4, 11, 10, 11, 4),
    (4, 11, 7, 9, 11, 4, 9, 2, 11, 9, 1, 2),
    (9, 7, 4, 9, 11, 7, 9, 1, 11, 2, 11, 1, 0, 8, 3),
    (11, 7, 4, 11, 4, 2, 2, 4, 0),
    (11, 7, 4, 11, 4, 2, 8, 3, 4, 3, 2, 4),
    (2, 9, 10, 2, 7, 9, 2, 3, 7, 7, 4, 9),
    (9, 10, 7, 9, 7, 4, 10, 2, 7, 8, 7, 0, 2, 0, 7),
    (3, 7, 10, 3, 10, 2, 7, 4, 10, 1, 10, 0, 4, 0, 10),
    (1, 10, 2, 8, 7, 4),
    (4, 9, 1, 4, 1, 7, 7, 1, 3),
    (4, 9, 1, 4, 1, 7, 0, 8, 1, 8, 7, 1),
    (4, 0, 3, 7, 4, 3),
    (4, 8, 7),
    (9, 10, 8, 10, 11, 8),
    (3, 0, 9, 3, 9, 11, 11, 9, 10),
    (0, 1, 10, 0, 10, 8, 8, 10, 11),
    (3, 1, 10, 11, 3, 10),
    (1, 2, 11, 1, 11, 9, 9, 11, 8),
    (3, 0, 9, 3, 9, 11, 1, 2, 9, 2, 11, 9),
    (0, 2, 11, 8, 0, 11),
    (3, 2, 11),
    (2, 3, 8, 2, 8, 10, 10, 8, 9),
    (9, 10, 2, 0, 9, 2),
    (2, 3, 8, 2, 8, 10, 0, 1, 8, 1, 10, 8),
    (1, 10, 2),
    (1, 3, 8, 9, 1, 8),
    (0, 9, 1),
    (0, 3, 8),
    (-1,),
)


def _triangles(row):
    return [tuple(row[t:t + 3]) for t in range(0, len(row) - 2, 3)]


def _boundary(triangles):
    """The directed sides that no other triangle of the row runs back
    along: the cell's surface loops."""
    sides = {(t[i], t[(i + 1) % 3]) for t in triangles for i in range(3)}
    return {s for s in sides if s[::-1] not in sides}


def _generated(config):
    row = _TRI_TABLE[config]
    return _triangles(row[row >= 0].tolist())


def test_generated_table_has_bourkes_loops():
    """Every configuration has Bourke's directed loops, reversed to wind
    along the gradient, and Bourke's triangle count."""
    for config, row in enumerate(_BOURKE_ROWS):
        bourke = [(a, c, b) for a, b, c in _triangles(row)]
        got = _generated(config)
        assert _boundary(got) == _boundary(bourke), config
        assert len(got) == len(bourke), config


def test_generated_diagonals_cross_the_cell():
    """No triangle side inside a loop joins two edges of one cube face,
    where a neighbouring cell's triangles may also lie."""
    def one_face(e, f):
        corners = np.array([_CORNERS[c] for c in _EDGES[e] + _EDGES[f]])
        return bool((corners == corners[0]).all(axis=0).any())

    diagonals = 0
    for config in range(256):
        triangles = _generated(config)
        loop = _boundary(triangles)
        for t in triangles:
            for side in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
                if side not in loop:
                    diagonals += 1
                    assert not one_face(*side), (config, t)
    assert diagonals > 0


def _reference_marching_cubes(values, iso, origin, spacing):
    """Oracle: visit the cells in C order, emit each triangle of the
    module's table, interpolate an edge the first time a triangle uses
    it, weld by the key (i, j, k, axis) of the edge's lower node, number
    the vertices in key order, and drop triangles that repeat a vertex or
    whose cross product is zero. Also returns how many triangles were
    dropped."""
    nx, ny, nz = values.shape
    position, triangles = {}, []
    for i in range(nx - 1):
        for j in range(ny - 1):
            for k in range(nz - 1):
                nodes = [(i + dx, j + dy, k + dz) for dx, dy, dz in _CORNERS]
                config = sum(1 << bit for bit, node in enumerate(nodes) if values[node] < iso)
                for triangle in _generated(config):
                    keys = []
                    for e in triangle:
                        lo, hi = sorted(nodes[c] for c in _EDGES[e])
                        axis = [a != b for a, b in zip(lo, hi)].index(True)
                        key = lo + (axis,)
                        if key not in position:
                            v0, v1 = float(values[lo]), float(values[hi])
                            frac = 0.5 if abs(v1 - v0) < 1e-300 else (iso - v0) / (v1 - v0)
                            frac = min(max(frac, 0.0), 1.0)
                            position[key] = [
                                origin[a] + (lo[a] + (frac if a == axis else 0.0)) * spacing
                                for a in range(3)
                            ]
                        keys.append(key)
                    triangles.append(tuple(keys))
    order = sorted(position)
    index = {key: n for n, key in enumerate(order)}
    faces = []
    for tri in triangles:
        a, b, c = (position[key] for key in tri)
        u = [b[n] - a[n] for n in range(3)]
        v = [c[n] - a[n] for n in range(3)]
        cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        if len(set(tri)) == 3 and any(cross):
            faces.append([index[key] for key in tri])
    vertices = np.array([position[key] for key in order], dtype=np.float64).reshape(-1, 3)
    return vertices, np.array(faces, dtype=np.int64).reshape(-1, 3), len(triangles) - len(faces)


def _fields():
    rng = np.random.default_rng(14)
    cases = []
    for r in range(2, 13):  # cubic grids, integer values, iso on nodes and between them
        values = rng.integers(-2, 3, size=(r, r, r)).astype(np.float64)
        cases.append((f"int{r}", values, float(rng.integers(-1, 2))))
        cases.append((f"int{r}_half", values, 0.5))
    for shape in [(2, 7, 5), (9, 2, 4), (5, 6, 2), (3, 11, 8), (12, 4, 7)]:
        values = rng.integers(-3, 4, size=shape).astype(np.float64)
        cases.append((f"int{shape}", values, 0.0))
        cases.append((f"normal{shape}", rng.normal(size=shape), 0.1))
    # a sphere the grid boundary cuts, so crossings sit on the border edges
    g = np.arange(10.0)
    X, Y, Z = np.meshgrid(g, g, g[:7], indexing="ij")
    sphere = np.sqrt((X - 2) ** 2 + (Y - 8) ** 2 + (Z - 3) ** 2)
    cases.append(("sphere_cut", sphere, 4.0))
    cases.append(("sphere_cut_off_node", sphere, 4.3))
    cases.append(("all_inside", np.zeros((4, 3, 5)), 1.0))
    cases.append(("all_outside", np.zeros((4, 3, 5)), -1.0))
    return cases


_FIELDS = _fields()


@pytest.mark.parametrize("values, iso", [c[1:] for c in _FIELDS], ids=[c[0] for c in _FIELDS])
def test_marching_cubes_matches_cell_by_cell_oracle(values, iso):
    origin, spacing = np.array([-0.3, 0.25, 1.5]), 0.37
    got = marching_cubes(values, iso, origin, spacing)
    vertices, faces, _ = _reference_marching_cubes(values, iso, origin, spacing)
    assert got.vertices.shape == vertices.shape and got.vertices.tobytes() == vertices.tobytes()
    assert got.faces.dtype == np.int64 and np.array_equal(got.faces, faces)


@pytest.mark.parametrize("block", [1, 7])
def test_sliver_filter_block_edges(monkeypatch, block):
    """Blocks of 1 and 7 faces put block edges between every pair of
    faces and at uneven places, on the grids whose slivers are dropped;
    the faces must not change."""
    want = [marching_cubes(values, iso, np.zeros(3), 1.0) for _, values, iso in _FIELDS]
    monkeypatch.setattr(mcubes, "_FACE_BLOCK", block)
    for (name, values, iso), w in zip(_FIELDS, want):
        got = marching_cubes(values, iso, np.zeros(3), 1.0)
        assert np.array_equal(got.faces, w.faces), name
        assert got.vertices.tobytes() == w.vertices.tobytes(), name


def test_oracle_cases_cover_slivers_and_borders():
    """The grids above reach what the oracle is there for: iso levels on
    nodes whose zero-area slivers are dropped, and crossings on edges of
    the grid's border."""
    dropped = border = 0
    for _, values, iso in _FIELDS:
        vertices, _, n = _reference_marching_cubes(values, iso, np.zeros(3), 1.0)
        hi = np.array(values.shape) - 1
        border += np.count_nonzero(((vertices == 0) | (vertices == hi)).any(axis=1))
        dropped += n
    assert dropped > 0 and border > 0


def _winding_numbers(points, triangles):
    """Winding numbers at each point of a closed set of (n, 3, 3)
    triangles: their solid angles over 4 pi (Van Oosterom & Strackee,
    IEEE Trans. Biomed. Eng., 1983)."""
    a, b, c = (triangles[None, :, i] - points[:, None] for i in range(3))
    la, lb, lc = (np.linalg.norm(x, axis=2) for x in (a, b, c))

    def dot(u, v):
        return (u * v).sum(axis=2)

    num = dot(a, np.cross(b, c))
    den = la * lb * lc + dot(a, b) * lc + dot(b, c) * la + dot(c, a) * lb
    return np.arctan2(num, den).sum(axis=1) / (2 * np.pi)


def test_random_closed_fields_give_manifolds_wound_along_the_gradient():
    """200 random 9^3 fields, their boundary nodes above iso so that each
    level set is closed, extract to closed two-manifolds in which every
    directed side occurs once, so each component is wound one way. That
    way is along the gradient when the component's winding number drops
    by one from the below-iso to the above-iso end of the grid edge that
    one of its vertices lies on."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(9, 9, 9))
        values[[0, -1]] = values[:, [0, -1]] = values[:, :, [0, -1]] = 1.0
        mesh = marching_cubes(values, 0.0, np.zeros(3), 1.0)
        assert closed_two_manifold(mesh), seed
        sides = mesh.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        assert len(np.unique(sides, axis=0)) == len(sides), seed
        n = mesh.n_vertices
        graph = coo_matrix((np.ones(len(sides)), tuple(sides.T)), shape=(n, n))
        count, label = connected_components(graph, directed=False)
        for component in range(count):
            faces = mesh.faces[label[mesh.faces[:, 0]] == component]
            vertex = mesh.vertices[faces[0, 0]]
            node = np.floor(vertex).astype(np.int64)
            ends = np.stack([node, node + np.eye(3, dtype=np.int64)[np.argmax(vertex - node)]])
            ends = ends[np.argsort(values[tuple(ends.T)])]  # below iso, then above
            below, above = _winding_numbers(ends.astype(np.float64), mesh.vertices[faces])
            assert abs(below - above - 1) < 1e-9, (seed, component)

def test_marching_cubes_memory_bounded():
    """The node pass holds at most 5 bytes per node (`inside`, the corner
    bits and one comparison mask, then `inside` and the 3-byte crossing
    mask) and frees them. The vertex pass holds about 19 float64 per
    vertex (indices, end values, steps, positions), and the sliver filter
    about 23 per face (face ids, three corner positions, two differences,
    their cross product and its squares); with two faces per vertex that
    is about 270 bytes per face, so 320 bounds it. Building the corner
    bits in int64 and gathering (cells x 16) int64 table rows, as a sort-
    based weld does, peaks at 104 MB here."""
    r = 128
    g = np.arange(r, dtype=np.float64) - (r - 1) / 2
    values = np.sqrt(g[:, None, None] ** 2 + g[:, None] ** 2 + g ** 2) - 60.0
    tracemalloc.start()
    try:
        mesh = marching_cubes(values, 0.0, np.zeros(3), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.n_faces > 100_000
    assert peak <= 5 * values.size + 320 * mesh.n_faces
