"""Time-invariant test channel for synthesis scenarios with known taps."""

import numpy as np


class StaticChannel:
    """Fixed complex taps, the same for every symbol."""

    def __init__(self, taps):
        self._taps = np.atleast_1d(np.asarray(taps, dtype=np.complex128))
        self.num_taps = self._taps.shape[0]

    def taps_for(self, symbols):
        return np.tile(self._taps, (np.asarray(symbols).shape[0], 1))
