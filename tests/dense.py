"""J as a dense matrix: the tests read jacobian_sparse's stored entries through it."""

import numpy as np

from prescurv.mesh import jet_operators


def dense(mesh, entries):
    """The n x n matrix holding entries at jet_operators(mesh)'s coordinates, zero elsewhere."""
    rows, cols, _ = jet_operators(mesh)
    out = np.zeros((mesh.n_nodes,) * 2)
    out[rows, cols] = entries
    return out
