"""Helpers the unit tests import by name.

They live here, not in ``conftest.py``: ``benchmarks/`` has a
``conftest.py`` too, and a ``from conftest import ...`` resolves to
whichever of the two pytest imported last, which breaks
``pytest tests benchmarks``.
"""

from __future__ import annotations

from repro.sim import Simulator


def run_gen(sim: Simulator, gen, until=None):
    """Spawn a generator process, run the sim, return its value."""
    proc = sim.spawn(gen)
    if until is None:
        sim.run()
    else:
        sim.run(until=until)
    if not proc.triggered:
        raise AssertionError("process did not finish by t=%r" % sim.now)
    return proc.value
