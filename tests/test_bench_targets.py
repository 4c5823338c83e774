"""Every library entry point the benchmark's tracer wraps still exists.

`perfbench/tracer.py` refuses a traced run when one of its TARGETS is
missing, so a rename or a merge would otherwise surface only in the traced
benchmark.  This test loads TARGETS and repeats the tracer's lookup (the
attribute must sit in the module's or class's own namespace), without
installing any wrapper.  The benchmark file is only read.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def test_every_tracer_target_resolves():
    missing = []
    for layer, path in _load_targets():
        owner = importlib.import_module(f"tadic.{layer}")
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        if owner is None or parts[-1] not in vars(owner):
            missing.append(f"tadic.{layer}.{path}")
    assert not missing
