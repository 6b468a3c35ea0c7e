"""The benchmark's tracer wraps psop functions by name: every name it lists
must resolve, or `perfbench/run.py --trace 1` fails when it installs."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves_on_the_psop_modules():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for table in (tracer.SPANS, tracer.COUNTED):
        for module, names in table.items():
            obj = importlib.import_module(f"psop.{module}")
            for qual in names:
                target = obj
                for part in qual.split("."):
                    target = getattr(target, part, None)
                if not callable(target):
                    missing.append(f"{module}.{qual}")
    assert missing == []
