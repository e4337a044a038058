"""``BENCHMARK.json``: the benchmark's fixed names, units and bounds."""

import json
import os
from typing import Any, Dict

PATH = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir,
    "BENCHMARK.json"))


def load() -> Dict[str, Any]:
    with open(PATH) as fh:
        return json.load(fh)
