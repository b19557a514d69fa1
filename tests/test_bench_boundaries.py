"""Every boundary the benchmark's traced run wraps must still exist.

``perfbench/tracing.py`` replaces each ``(owner, attribute)`` in its
``BOUNDARIES`` table at run time.  A refactor that renames or drops one
(say ``opfuse.model.build_subgraph``) would otherwise only show up as a
failed ``--trace 1`` run.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def resolve(owner):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@pytest.mark.parametrize("owner, attr", [(o, a) for o, a, *_ in tracing.BOUNDARIES],
                         ids=[f"{o}.{a}" for o, a, *_ in tracing.BOUNDARIES])
def test_traced_boundary_exists(owner, attr):
    assert callable(getattr(resolve(owner), attr, None)), f"{owner} has no {attr}"
