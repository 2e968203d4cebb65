"""The benchmark's layer hooks still find their targets.

``perfbench/tracing.py`` wraps compfade's entry points under the module
attribute each caller looks them up by.  A name that leaves ``src/`` would
break every traced run; this test names the first such attribute.  The
file is loaded by path, so ``sys.path`` stays as it is.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_entry_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing._targets()
    assert len(targets) >= 36
    missing = [f"{mod.__name__}.{attr}" for mod, attr, *_ in targets
               if not callable(getattr(mod, attr, None))]
    assert missing == []
