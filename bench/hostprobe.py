"""A fixed reference computation that measures how fast the host is running.

On a shared 2-core VM the host's speed drifted by up to a third over
seconds to minutes, so a wall-clock rate did not repeat from one run to the
next.  The benchmark runs this probe after every operation, for about
``SHARE`` of that operation's time, and reports an operation's time in
units of one probe unit measured alongside it.  That ratio follows the
program's speed but much less the host's.  Over ten 15 s runs per workload
on that VM, the quartile distance over the median was, for the wall-clock
rate and for the ratio: ``qubit_discord`` 0.18 and 0.03, ``qudit_discord``
0.22 and 0.03, ``da_accept`` 0.08 and 0.05, ``channel_reject`` 0.24 and
0.12.  ``channel_reject`` slowed about 1.5 times as much as the probe when
the host slowed, so its ratio still moved with the host.

The unit mixes what the discordkit operations spend their time on:
interpreted Python, small LAPACK calls and a medium complex matrix product.
It uses numpy only, never discordkit, so that a change to the program
cannot change the unit.

The same drift moved the median ``setup_s`` of ten ``qudit_discord`` runs
by 25 % between two sets, so set-up times are scaled by the probe too.
"""

from __future__ import annotations

import time

import numpy as np

SHARE = 0.1
# A unit's median time over 40 runs on the 2-core 2.1 GHz Xeon VM the
# benchmark was tuned on.  Set-up times are reported as seconds on that
# host: wall time times REFERENCE_UNIT_S over the unit time measured with it.
REFERENCE_UNIT_S = 1.4e-4


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.small = g @ g.conj().T
        self.medium = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.units = 0
        self.seconds = 0.0

    def _unit(self) -> int:
        total = 0
        for i in range(300):
            total += i * i
        for _ in range(4):
            np.linalg.eigh(self.small)
        self.medium @ self.medium
        return total

    def sample(self, op_seconds: float) -> None:
        """Run whole units for ``SHARE`` of ``op_seconds``, at least one."""
        start = time.perf_counter()
        while True:
            self._unit()
            self.units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= SHARE * op_seconds:
                break
        self.seconds += elapsed

    def unit_s(self) -> float:
        return self.seconds / self.units
