"""Host-cost benchmark of the simulator: four figure workloads, measured
end to end and per layer from outside ``src/``.  Run ``python -m perf``;
see ``perf/README.md``."""
