import pytest

from troprr import hypersurface


@pytest.fixture
def subdivision_calls(monkeypatch):
    """Empties the subdivision memo and records the term set of every real
    ``regular_subdivision`` construction."""
    monkeypatch.setattr(hypersurface, "_subdivisions", {}, raising=False)
    calls = []
    original = hypersurface.regular_subdivision

    def counting(f):
        calls.append(tuple(sorted(f.terms.items())))
        return original(f)

    monkeypatch.setattr(hypersurface, "regular_subdivision", counting)
    return calls
