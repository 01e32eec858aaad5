"""Runtime invariant checking and differential conformance.

Three entry points, all built on the same machinery:

* ``simulate(..., verify=True)`` / ``SystemSimulator(..., verify=True)``
  attach an :class:`InvariantMonitor` to every specialized xloop
  invocation, raising :class:`InvariantViolation` (cycle- and
  lane-stamped) on the first breach without perturbing timing or
  energy;
* the ``repro verify`` CLI subcommand runs the
  :mod:`~repro.verify.conformance` traditional-vs-specialized sweep
  over registered kernels and generated loops (``--ladder`` instead
  checks every backend rung bit-identical to ``interp`` at every
  design point); and
* the ``tests/verify`` suite, which shares the random loop generators
  in :mod:`~repro.verify.genloops` with the hypothesis fuzz tests.
"""

from .conformance import (ConformanceResult, check_case,
                          check_counterexample, check_kernel,
                          check_ladder, run_conformance, run_ladder)
from .genloops import (LPSU_SWEEP, GenCase, RandomChooser,
                       case_from_counterexample, random_cases)
from .invariants import InvariantMonitor, InvariantViolation
from .oracle import OracleError, SerialOracle

__all__ = [
    "ConformanceResult", "check_case", "check_counterexample",
    "check_kernel", "check_ladder", "run_conformance", "run_ladder",
    "LPSU_SWEEP",
    "GenCase", "RandomChooser", "case_from_counterexample",
    "random_cases", "InvariantMonitor", "InvariantViolation",
    "OracleError", "SerialOracle",
]
