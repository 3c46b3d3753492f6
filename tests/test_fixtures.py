"""The bundled fixtures and the Pauli probe states are built once per process
and shared read-only; a failed lookup caches nothing."""

import numpy as np
import pytest

from povmsim import cli, fixtures
from povmsim.core import pauli_eigenstates
from povmsim.naimark import naimark_dilation
from povmsim.simulation import postselection_scheme, rank_one_refinement


def _count_calls(monkeypatch):
    """Count eigensolves and fixture document reads from here on."""
    counts = {"eigensolves": 0, "documents": 0}

    def counting(fn, key):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name), "eigensolves"))
    monkeypatch.setattr(fixtures, "_load_document",
                        counting(fixtures._load_document, "documents"))
    return counts


class TestLoadedOnce:
    def test_ideal_povm_reads_and_repairs_once(self, monkeypatch):
        fixtures.ideal_povm.cache_clear()
        counts = _count_calls(monkeypatch)
        first = fixtures.ideal_povm("random4")
        assert counts["documents"] == 1
        assert counts["eigensolves"] > 0  # the rank-one repair and the validation
        before = dict(counts)
        assert fixtures.ideal_povm("random4") is first
        assert counts == before

    def test_reconstruction_is_shared_and_read_only(self, monkeypatch):
        first = fixtures.reconstruction("trine", "naimark")
        counts = _count_calls(monkeypatch)
        again = fixtures.reconstruction("trine", "naimark")
        assert again is first and counts["documents"] == 0
        with pytest.raises(ValueError, match="read-only"):
            first[0][0, 0] = 1.0
        assert not any(m.flags.writeable for m in first)

    def test_pauli_eigenstates_are_shared(self):
        assert pauli_eigenstates() is pauli_eigenstates()

    def test_named_qubit_states_index_the_shared_tuple(self):
        for name, state in zip(cli.STATE_NAMES, pauli_eigenstates()):
            assert cli._state_by_name(name, 2) is state


def test_the_cached_povm_keeps_no_state_between_callers(monkeypatch, capsys):
    # a loaded document has no pieces, so every scheme build still solves
    povm = fixtures.ideal_povm("tetrahedral")
    postselection_scheme(povm)
    naimark_dilation(rank_one_refinement(povm)[0])
    assert cli.main(["compare", "--povm", "tetrahedral", "--shots", "64", "--seed", "1"]) == 0
    capsys.readouterr()
    assert fixtures.ideal_povm("tetrahedral") is povm
    assert povm.rank_one is None and povm.glued_from is None
    counts = _count_calls(monkeypatch)
    postselection_scheme(povm)
    assert counts["eigensolves"] >= 1


class TestUnknownNames:
    @pytest.mark.parametrize("name", ["nope", 3, None])
    def test_unknown_ideal_raises_and_caches_nothing(self, name):
        size = fixtures.ideal_povm.cache_info().currsize
        with pytest.raises(KeyError, match=f"unknown fixture {name!r}; available: tetrahedral"):
            fixtures.ideal_povm(name)
        assert fixtures.ideal_povm.cache_info().currsize == size

    @pytest.mark.parametrize("name, method, message", [
        ("trivial", "naimark", "no reconstruction fixture for 'trivial'"),
        ("trine", "exact", "unknown method 'exact'; available: postselection, naimark"),
    ])
    def test_unknown_reconstruction_raises_and_caches_nothing(self, name, method, message):
        size = fixtures.reconstruction.cache_info().currsize
        with pytest.raises(KeyError, match=message):
            fixtures.reconstruction(name, method)
        assert fixtures.reconstruction.cache_info().currsize == size

    def test_unhashable_name_is_a_type_error(self):
        with pytest.raises(TypeError, match="unhashable"):
            fixtures.ideal_povm(["trine"])

    def test_cli_lists_the_fixtures(self, capsys):
        assert cli.main(["compare", "--povm", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown fixture 'nope'; available: tetrahedral, trine, random4, trivial" in err
