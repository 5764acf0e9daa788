"""Every function the benchmark tracer wraps still exists.

``bench/tracing.py`` patches each ``TRACED`` name after importing the CLI
and fails on a name that is gone, so a rename in the library would break
``bench/run.py --trace 1`` without failing any other test.
"""

import importlib.util
import sys
from pathlib import Path

import discordkit.cli  # noqa: F401  (imports every module the tracer patches)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = []
    for layer, module_name, attr in _load_tracing().TRACED:
        owner = sys.modules.get(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr}")
    assert not missing, missing
