"""The package's public names: every name in ``rentgam.__all__`` and
``rentgam.splines.__all__`` must resolve, so a deleted function cannot
linger as a stale export."""

import rentgam
from rentgam import listings, splines

REMOVED = ("Listing", "GeocodedListing", "PostcodeEntry", "geocode", "dedup_key")


def test_every_exported_name_resolves():
    assert [name for name in rentgam.__all__ if not hasattr(rentgam, name)] == []
    assert len(set(rentgam.__all__)) == len(rentgam.__all__)
    namespace = {}
    exec("from rentgam import *", namespace)
    assert set(rentgam.__all__) <= set(namespace)


def test_listing_record_names_are_gone():
    for name in REMOVED:
        assert name not in rentgam.__all__, name
        assert not hasattr(rentgam, name), name
        assert not hasattr(listings, name), name


def test_every_spline_export_resolves():
    assert [name for name in splines.__all__ if not hasattr(splines, name)] == []
    assert len(set(splines.__all__)) == len(splines.__all__)


def test_penalty_matrix_is_gone():
    # penalties are plain D'D arrays; nothing reads a penalty root
    assert "PenaltyMatrix" not in splines.__all__
    assert not hasattr(splines, "PenaltyMatrix")
    assert not hasattr(rentgam, "PenaltyMatrix")
