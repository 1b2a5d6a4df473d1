"""The charge-site list of tests/tools/mutate_charges.py matches the source it mutates."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "mutate_charges", Path(__file__).resolve().parent / "tools" / "mutate_charges.py")
mutate_charges = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutate_charges)


def test_charge_site_names_are_unique():
    names = [site.name for site in mutate_charges.SITES]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("site", mutate_charges.SITES, ids=lambda site: site.name)
def test_charge_site_text_occurs_once_in_its_function(site):
    source = (mutate_charges.REPO / site.path).read_text()
    start, end = mutate_charges.function_span(source, site.function)
    assert source.count(site.text, start, end) == 1
    mutated = mutate_charges.mutate(source, site)
    assert mutated.count(site.mutant) == source.count(site.mutant) + 1
    compile(mutated, site.path, "exec")

