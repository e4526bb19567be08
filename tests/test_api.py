import importlib

import hisparse

# deleted with no caller left in the package, the harness or the benchmark
REMOVED = {
    "operators": ("save_operator", "load_operator"),
    "riplab": ("rip_constant_randomized", "gram_matrix"),
    "solvers": ("least_squares_on_support",),
    "blocks": ("restrict",),
}


def test_public_names_resolve_and_removed_names_stay_gone():
    for name in hisparse.__all__:
        assert getattr(hisparse, name, None) is not None, name
    for module, names in REMOVED.items():
        mod = importlib.import_module(f"hisparse.{module}")
        for name in names:
            assert not hasattr(hisparse, name), name
            assert not hasattr(mod, name), f"{module}.{name}"
