"""J as a dense matrix: the tests read jacobian_sparse's stored entries through it."""

import numpy as np

from prescurv.mesh import jet_operators


def dense(mesh, entries):
    """The n x n matrix holding entries on jet_operators(mesh)'s CSC pattern, zero elsewhere."""
    indices, indptr, _ = jet_operators(mesh)
    n = mesh.n_nodes
    out = np.zeros((n, n))
    out[indices, np.repeat(np.arange(n), np.diff(indptr))] = entries
    return out
