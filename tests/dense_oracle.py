"""The dense thermal operator, assembled independently of hotmesh.thermal.

hotmesh never forms the (n+1)^2 conductance matrix G: every solve reads the
closed-form modal basis. The tests compare against this dense G and the
capacitance vector C, with numpy.linalg as the solver.
"""

import numpy as np

from hotmesh.grid import Coord


def reference_conductance(grid, params):
    """G assembled link by link with a per-cell loop. Its sink diagonal is
    the float64 sum that thermal._sink_diagonal reproduces bit for bit."""
    n = grid.n_cells
    g = np.zeros((n + 1, n + 1))
    g_lat = params.k_si * params.die_thickness
    for c in grid.cells():
        i = grid.index(c)
        for nb in (Coord(c.x + 1, c.y), Coord(c.x, c.y + 1)):
            if grid.in_bounds(nb):
                j = grid.index(nb)
                g[i, j] -= g_lat
                g[j, i] -= g_lat
                g[i, i] += g_lat
                g[j, j] += g_lat
    g_vert = 1.0 / params.r_vertical
    for i in range(n):
        g[i, n] -= g_vert
        g[n, i] -= g_vert
        g[i, i] += g_vert
        g[n, n] += g_vert
    g[n, n] += 1.0 / params.r_sink
    return g


def reference_capacitance(grid, params):
    """C = [c_b, ..., c_b, c_s], J/K: one block's silicon volume times c_v,
    then the sink."""
    c_b = params.c_v * (grid.cell_area * 1e-6) * params.die_thickness
    return np.append(np.full(grid.n_cells, c_b), params.c_sink)
