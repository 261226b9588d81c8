"""The atlas pins the canonical outputs of both main results, over every
finite facet of ten small data, as one digest per (datum, facet): see
`reference.atlas_rows` for what each digest covers.

A digest changes only with a change that says which outputs change and why.
A change to how the digests are made keeps every digest.  To regenerate the
file after such a change, from the repository root:

    PYTHONPATH=src:tests python -c "import reference; reference.write_atlas('tests/atlas.json')"
"""

import json
import pathlib

import pytest

from reference import atlas_digests

ATLAS = json.loads((pathlib.Path(__file__).parent / "atlas.json").read_text())


@pytest.mark.parametrize("spec", sorted(ATLAS))
def test_atlas_digests_are_unchanged(spec):
    expected = ATLAS[spec]["digests"]
    got = atlas_digests(spec, ATLAS[spec]["radius"])
    changed = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    assert not changed, f"{spec}: atlas digests changed at facets {changed}"
