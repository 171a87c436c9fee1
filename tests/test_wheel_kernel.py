"""Stress-golden replay ids kept from the retired timing-wheel suite.

The timing-wheel kernel is gone; ``repro.sim.Engine`` is the one
production kernel. This module used to collect the seed-kernel stress
golden (``TestGoldenKernelStress``) next to its wheel variants, and it
still does, so those test ids keep running against ``Engine``. The
class itself lives in ``tests/test_kernel_fastlane.py``.
"""

from tests.test_kernel_fastlane import TestGoldenKernelStress

__all__ = ["TestGoldenKernelStress"]
