"""The thermal operator applied as a stencil, independently of hotmesh.thermal.

G x is formed node by node from the network's links, with no matrix: each
block links to its four mesh neighbors by g_lat (a neighbor off the mesh
is no link: Neumann edges) and to the sink by g_vert, and the sink links
to ambient by g_amb. That is O(n) per row, so it reaches meshes whose dense
G (dense_oracle.py) would not fit. With |G||x| alongside, the tests bound
componentwise residuals in the sense of Oettli & Prager (Numer. Math. 6,
1964), which hold at every node however large the sink's row sums grow.
"""

import numpy as np


def _scalars(grid, params):
    """(g_lat, g_vert, g_amb, c_b, c_s) from the material constants and the
    block area: W/K between neighbors, to the sink, sink to ambient; J/K of
    a block and of the sink."""
    return (params.k_si * params.die_thickness, 1.0 / params.r_vertical,
            1.0 / params.r_sink, params.c_v * (grid.cell_area * 1e-6) * params.die_thickness,
            params.c_sink)


def _neighbor_sum(b):
    """Per block of b (..., ny, nx): the sum of its mesh neighbors' values."""
    s = np.zeros(b.shape)
    s[..., :, 1:] += b[..., :, :-1]
    s[..., :, :-1] += b[..., :, 1:]
    s[..., 1:, :] += b[..., :-1, :]
    s[..., :-1, :] += b[..., 1:, :]
    return s


def _stencil(grid, params, x, sign):
    """D x + sign A x of node rows x (..., n + 1), where G = D - A splits
    into its diagonal D and its links A: G x for sign -1, |G| x for +1."""
    g_lat, g_vert, g_amb, _, _ = _scalars(grid, params)
    lead = x.shape[:-1]
    blocks, sink = x[..., :-1].reshape(*lead, grid.ny, grid.nx), x[..., -1:]
    degree = _neighbor_sum(np.ones((grid.ny, grid.nx)))
    out = np.empty(x.shape)
    out[..., :-1] = ((g_lat * degree + g_vert) * blocks
                     + sign * g_lat * _neighbor_sum(blocks)).reshape(*lead, -1)
    out[..., :-1] += sign * g_vert * sink
    out[..., -1] = ((grid.n_cells * g_vert + g_amb) * x[..., -1]
                    + sign * g_vert * x[..., :-1].sum(axis=-1))
    return out


def apply_conductance(grid, params, x):
    """(G x, |G| |x|) of node rows x (..., n + 1): blocks row-major, then
    the sink; x are deviations from ambient."""
    x = np.asarray(x, dtype=float)
    return _stencil(grid, params, x, -1.0), _stencil(grid, params, np.abs(x), 1.0)


def _in_eps(residual, allowance):
    """max |residual| / allowance, in units of eps; a node whose allowance
    is 0 (x and p 0 on it and its links) has a residual of exactly 0."""
    ratio = np.divide(np.abs(residual), allowance, out=np.zeros(residual.shape),
                      where=allowance > 0)
    return float(ratio.max()) / np.finfo(float).eps


def _node_powers(p):
    """Per-block powers p (..., n) as node powers: the sink dissipates nothing."""
    p = np.asarray(p, dtype=float)
    return np.append(p, np.zeros((*p.shape[:-1], 1)), axis=-1)


def steady_backward_error(grid, params, x, p):
    """max over nodes of |G x - p| / (|G||x| + |p|), in units of eps, with p
    the per-block powers."""
    p = _node_powers(p)
    gx, ax = apply_conductance(grid, params, x)
    return _in_eps(gx - p, ax + np.abs(p))


def step_backward_error(grid, params, x_prev, x, h, p):
    """max over nodes of |C (x - x_prev) / h + G x - p| / (C (|x| + |x_prev|)
    / h + |G||x| + |p|), in units of eps: how far each row of x is from a
    backward-Euler step of length h from x_prev under per-block powers p;
    a stack of rows takes a column of step lengths."""
    _, _, _, c_b, c_s = _scalars(grid, params)
    c_h = np.append(np.full(grid.n_cells, c_b), c_s) / h
    p = _node_powers(p)
    gx, ax = apply_conductance(grid, params, x)
    return _in_eps(c_h * (x - x_prev) + gx - p,
                   c_h * (np.abs(x) + np.abs(x_prev)) + ax + np.abs(p))
