"""Output checks and accuracy figures, computed with the program's own code.

Imported by ``run.py`` only after its timed region (it imports ``repro``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.campaign import COUNTER_FIELDS, RunRecord, load_records
from repro.cli import main as repro_main
from repro.experiments import PAPER_FIG5, PAPER_FIG8
from repro.experiments.fig5 import reductions_from_records
from repro.verify.oracle import check_store

__all__ = [
    "check_store",
    "fig5_err_pct",
    "fig8_err_pct",
    "fig8_reductions",
    "load_records",
    "model_counters",
    "records_digest",
    "run_cli",
    "sim_digest",
]


def run_cli(argv: Sequence[str]) -> Tuple[int, str]:
    """Run one ``repro`` command in this process: exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = repro_main(list(argv))
    return code, out.getvalue()


def records_digest(records: Sequence[RunRecord]) -> str:
    """SHA-256 over every record field, in persisted order.

    Every :class:`RunRecord` field is a deterministic function of the
    command and its seed, so two runs of one seed must agree exactly.
    """
    payload = json.dumps([r.to_dict() for r in records], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def relative_error_pct(pairs: Iterable[tuple]) -> float:
    """Mean absolute relative error, in percent, of (simulated, paper) pairs."""
    errors = [abs(sim - paper) / paper for sim, paper in pairs]
    if not errors:
        raise ValueError("no (simulated, paper) pairs to compare")
    return 100.0 * sum(errors) / len(errors)


def fig5_err_pct(records: Sequence[RunRecord]) -> float:
    """Error of the 20 system x condition Fig. 5 reductions against
    :data:`PAPER_FIG5`, each condition reduced by ``reductions_from_records``."""
    by_condition: Dict[str, List[RunRecord]] = {}
    for record in records:
        by_condition.setdefault(record.condition, []).append(record)
    pairs = []
    for system, paper in PAPER_FIG5.items():
        for condition, value in paper.items():
            if condition not in by_condition:
                raise ValueError(f"no {condition!r} records for Fig. 5")
            reductions = reductions_from_records(by_condition[condition])
            pairs.append((reductions[system], value))
    return relative_error_pct(pairs)


_FIG8_LINE = re.compile(r"^(Switching|Only Big\.Little)\s.*?([0-9.]+)x\s+\(paper")


def fig8_reductions(stdout: str) -> Dict[str, float]:
    """The two Fig. 8 reductions as ``repro fig8`` prints them (2 decimals)."""
    found = {}
    for line in stdout.splitlines():
        match = _FIG8_LINE.match(line)
        if match:
            found[match.group(1)] = float(match.group(2))
    missing = set(PAPER_FIG8) - set(found)
    if missing:
        raise ValueError(f"fig8 output lacks {', '.join(sorted(missing))}")
    return found


def fig8_err_pct(stdouts: Sequence[str]) -> float:
    """Error against :data:`PAPER_FIG8` of the Fig. 8 reductions averaged
    over several ``repro fig8`` outputs (the paper, too, averages several
    workloads)."""
    found = [fig8_reductions(stdout) for stdout in stdouts]
    return relative_error_pct(
        (sum(f[k] for f in found) / len(found), v) for k, v in PAPER_FIG8.items()
    )


def model_counters(records: Iterable[RunRecord]) -> Dict[str, float]:
    """Simulated counters summed over records, in record order."""
    totals = {name: 0 for name in COUNTER_FIELDS}
    for record in records:
        for name in COUNTER_FIELDS:
            totals[name] += record.counters.get(name, 0)
    return totals


def sim_digest(counters: Mapping[str, float], fig5: float, fig8: float) -> str:
    """Short digest of every simulated statistic the workload reports.

    Equal digests between two commits mean the simulated model counters
    and both accuracy figures are bit-identical.
    """
    payload = json.dumps(
        {"counters": {k: repr(v) for k, v in counters.items()},
         "fig5_err_pct": repr(fig5), "fig8_err_pct": repr(fig8)},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
