"""Packaging for the VersaSlot reproduction.

The package is dependency-free: every command runs on the standard
library alone.  numpy, scipy and networkx serve only as optional test
oracles; ``repro[test]`` installs the test runner.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def read_version() -> str:
    """``repro.__version__``, parsed from the source without importing it."""
    init = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
    return re.search(r'^__version__ = "([^"]+)"$', init.read_text(), re.M).group(1)


setup(
    name="repro",
    version=read_version(),
    description=(
        "Discrete-event reproduction of VersaSlot (DAC 2025): "
        "spatio-temporal FPGA sharing with Big.Little slots"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[],
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
)
