import sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).parent))

import pytest

from polyinfer import twolayer


@pytest.fixture
def decompose_calls(monkeypatch) -> list:
    """Wrap `twolayer.decompose` at every polyinfer module attribute that
    holds it; the list records each call's (graph, rho)."""
    calls = []
    original = twolayer.decompose

    def counted(g, rho):
        calls.append((g, rho))
        return original(g, rho)

    modules = [m for name, m in sys.modules.items()
               if name.startswith("polyinfer") and getattr(m, "decompose", None) is original]
    assert "polyinfer.twolayer" in {m.__name__ for m in modules}
    for m in modules:
        monkeypatch.setattr(m, "decompose", counted)
    return calls
