import importlib

import numpy as np

import hisparse
from hisparse import BlockVector, HiSparsity, hihtp, kronecker_operator

# deleted with no caller left in the package, the harness or the benchmark
# ("operators.HierarchicalOperator" names a class inside a module)
REMOVED = {
    "operators": ("save_operator", "load_operator", "DENSE_ENTRY_BUDGET"),
    "operators.HierarchicalOperator": ("assemble_dense",),
    "riplab": ("rip_constant_randomized", "gram_matrix"),
    "solvers": ("least_squares_on_support",),
    "blocks": ("restrict",),
    "ensembles": ("PHASE_TABLE_MAX_ENTRIES", "_dft_phase_table"),
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


def test_equality_of_array_holders_is_identity():
    # their fields hold arrays, so a field-wise == would raise on the
    # ambiguous truth value of an array
    def make():
        H = kronecker_operator(np.eye(2), np.eye(3))
        x = BlockVector.zeros(H.structure)
        x.coeffs[1] = 1.0
        return H, x, hihtp(H, H.apply(x), HiSparsity.uniform(1, 1, 2))

    for a, b in zip(make(), make()):
        assert (a == a) is True
        assert (a == b) is False
        assert (a != b) is True
