import importlib

import hisparse

# deleted with no caller left in the package, the harness or the benchmark
# ("operators.HierarchicalOperator" names a class inside a module)
REMOVED = {
    "operators": ("save_operator", "load_operator", "DENSE_ENTRY_BUDGET"),
    "operators.HierarchicalOperator": ("assemble_dense",),
    "riplab": ("rip_constant_randomized", "gram_matrix"),
    "solvers": ("least_squares_on_support",),
    "blocks": ("restrict",),
}


def test_public_names_resolve_and_removed_names_stay_gone():
    for name in hisparse.__all__:
        assert getattr(hisparse, name, None) is not None, name
    for owner, names in REMOVED.items():
        module, _, attr = owner.partition(".")
        obj = importlib.import_module(f"hisparse.{module}")
        if attr:
            obj = getattr(obj, attr)
        for name in names:
            assert not hasattr(hisparse, name), name
            assert not hasattr(obj, name), f"{owner}.{name}"
