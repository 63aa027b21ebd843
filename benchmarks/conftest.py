"""Registers the benchmark suite's hooks; they and the helpers the
benchmarks import live in :mod:`bench_record`."""

from bench_record import (  # noqa: F401  (pytest finds hooks by name)
    pytest_runtest_logreport,
    pytest_terminal_summary,
)
