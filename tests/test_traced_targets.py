"""Every name the perfbench tracer patches is defined by the package.

The tracer skips a missing name with a note on standard error, so its
metrics would read zero calls while the perfbench smoke test still passes.
The tracer is loaded from its file and only its TARGETS table is read:
its install() rebinds module attributes, which would outlive this test.
"""

import importlib
import importlib.util
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves():
    targets = load_targets()
    assert targets
    missing = []
    for name, modname, path in targets:
        owner = importlib.import_module(modname)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []
