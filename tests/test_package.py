"""The package namespace resolves its re-exports lazily (PEP 562)."""

import json

import pytest

import cycletheta

# The public names of the package and the module that defines each.
EXPORTS = {
    "DiscriminantForm": "quadlattice", "Lattice": "quadlattice",
    "direct_sum": "quadlattice", "discriminant_form": "quadlattice",
    "gauss_sum": "quadlattice",
    "named_lattice": "quadlattice", "new_lattice": "quadlattice",
    "VectorValuedQSeries": "enumeration", "rep_number": "enumeration",
    "rep_number_genus2": "enumeration", "theta_qseries": "enumeration",
    "vectors_with_norm": "enumeration",
    "WeilRepMatrix": "weilrep", "rho_S": "weilrep", "rho_T": "weilrep",
    "rho_word": "weilrep", "theta_transform_check": "weilrep",
    "verify_relations": "weilrep",
    "HeegnerCycle": "heegner", "forms_with_disc": "heegner",
    "gamma0_classes": "heegner", "heegner_cycle": "heegner",
    "orbit_cross_check": "heegner",
    "cohen": "eisenstein", "cohen_number": "eisenstein",
    "eisenstein_k": "eisenstein", "hurwitz": "eisenstein",
    "local_density": "eisenstein", "siegel_product": "eisenstein",
}


@pytest.fixture
def fresh_json(fresh_python):
    """Run ``code`` in a new interpreter and parse the JSON it prints last."""

    def run(code: str):
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    return run


def test_all_lists_exactly_the_exports():
    assert len(EXPORTS) == 29
    assert sorted(cycletheta.__all__) == sorted(EXPORTS)
    assert set(EXPORTS) <= set(dir(cycletheta))


def test_import_loads_no_layer(fresh_json):
    loaded = fresh_json(
        "import json, sys, cycletheta\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'numpy' or m.startswith('cycletheta.'))))"
    )
    assert loaded == []


def test_each_name_is_the_defining_modules_object(fresh_json):
    result = fresh_json(
        "import importlib, json, cycletheta\n"
        f"exports = {EXPORTS!r}\n"
        "print(json.dumps([name for name, mod in exports.items() if getattr(cycletheta, name)"
        " is not getattr(importlib.import_module('cycletheta.' + mod), name)]))"
    )
    assert result == []


def test_resolved_names_are_cached(fresh_json):
    result = fresh_json(
        "import json, cycletheta\n"
        "before = 'heegner_cycle' in vars(cycletheta)\n"
        "fn = cycletheta.heegner_cycle\n"
        "print(json.dumps([before, vars(cycletheta).get('heegner_cycle') is fn]))"
    )
    assert result == [False, True]


def test_star_import_binds_every_export(fresh_json):
    result = fresh_json(
        "import json\n"
        "from cycletheta import *\n"
        f"print(json.dumps(sorted(n for n in {sorted(EXPORTS)!r} if n not in globals())))"
    )
    assert result == []


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        cycletheta.not_a_name  # noqa: B018
