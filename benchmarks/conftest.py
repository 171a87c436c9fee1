"""Shared configuration for the benchmark harness.

Every bench regenerates one of the paper's figures on a reduced-but-
representative configuration (fewer random sequences than the paper's ten,
so the suite completes in minutes) and prints the measured values next to
the paper's.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--paper-scale",
        action="store_true",
        default=False,
        help="run benches at the paper's full scale (10 sequences, 80-app "
        "switching workloads); slower but tighter confidence intervals",
    )


@pytest.fixture(scope="session")
def sequence_count(request):
    """Random sequences per condition (paper: 10)."""
    return 10 if request.config.getoption("--paper-scale") else 2
