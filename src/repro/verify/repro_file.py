"""Repro-file format: the marker, the schema and a cheap file sniffer.

Kept apart from :mod:`repro.verify.fuzz` so ``repro replay`` can tell a
fuzzer repro from a records file without loading the fuzzer (and, through
it, the fleet, the oracle and the campaign backend).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

#: Marker distinguishing repro files from RunRecord JSONL results.
REPRO_KIND = "verify-repro"

#: Bumped whenever the repro file shape changes incompatibly.
REPRO_SCHEMA = 1


def is_repro_payload(payload: object) -> bool:
    """True when a parsed JSON document is a verify repro file."""
    return isinstance(payload, dict) and payload.get("kind") == REPRO_KIND


def sniff_repro_file(path: Union[str, Path]) -> Optional[Dict[str, object]]:
    """The parsed repro payload when ``path`` is one, else None.

    Cheap first: only a bounded prefix is read to rule out results JSONL
    files (whose first line is one complete record, never a bare ``{``,
    and which never contain the ``kind`` marker).  Only a plausible repro
    is then parsed in full; the marker separates repros from any other
    single-document JSON.
    """
    target = Path(path)
    with target.open("r", encoding="utf-8") as handle:
        prefix = handle.read(4096)
    if not prefix.lstrip().startswith("{"):
        return None
    first_line = prefix.splitlines()[0].strip()
    if first_line != "{" and f'"kind": "{REPRO_KIND}"' not in prefix:
        return None
    try:
        payload = json.loads(target.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    return payload if is_repro_payload(payload) else None
