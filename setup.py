"""Packaging for the VersaSlot reproduction.

The package is dependency-free: every command runs on the standard
library alone.  numpy and scipy are needed only by the optional
``allocate_slots_milp`` reference formulation and by some test oracles;
``repro[test]`` installs the test runner.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.6.0",
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
