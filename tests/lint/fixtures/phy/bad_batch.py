"""R008 fixture: a batched kernel with dtype-less stacked scratch.

The batched PHY path's contract is dtype-pinned scratch: a dtype-less
stacked allocation silently promotes every candidate row to float64.
This fixture seeds that violation in the shape the real batch kernels
use: a ``(rows, width)`` stacked gather buffer.
"""

import numpy as np


def gather_candidates_stacked(grid, starts, width):
    stacked = np.empty((len(starts), width))
    energies = np.zeros(len(starts))
    for row, start in enumerate(starts):
        stacked[row] = grid[start:start + width]
        energies[row] = abs(stacked[row]).mean()
    return stacked, energies
