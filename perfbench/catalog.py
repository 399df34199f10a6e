"""The metric catalogue, kept in ``manifest.json`` beside this file."""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

MANIFEST_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "manifest.json")


def manifest() -> Dict:
    with open(MANIFEST_PATH) as handle:
        return json.load(handle)


def metrics(kind: str) -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every ``end_to_end`` or ``per_layer`` metric."""
    return [(m["name"], m["unit"], m["better"]) for m in manifest()[kind]]
