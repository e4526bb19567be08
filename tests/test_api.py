import importlib

import numpy as np

import hisparse
from hisparse import BlockVector, HiSparsity, hihtp, kronecker_operator

# deleted with no caller left in the package, the harness or the benchmark
# (a key names a module under hisparse, or a class inside one, as in
# "operators.HierarchicalOperator")
REMOVED = {
    "operators": ("save_operator", "load_operator", "DENSE_ENTRY_BUDGET"),
    "operators.HierarchicalOperator": ("assemble_dense", "_with_blocks", "_of_checked",
                                       "_check_shapes"),
    "operators._DFTOperator": ("_local",),
    "riplab": ("rip_constant_randomized", "gram_matrix"),
    "solvers": ("least_squares_on_support",),
    "blocks": ("restrict",),
    "blocks.BlockStructure": ("runs", "of"),
    "ensembles": ("PHASE_TABLE_MAX_ENTRIES", "_dft_phase_table"),
    "harness.signals": ("PLACEMENT_UNIFORM", "PLACEMENT_FRONT"),
    "harness.experiments": ("PLACEMENT_FRONT",),
    "harness.config.ExperimentConfig": ("short_blocks", "designated_short_blocks"),
}


def _resolve(owner: str):
    try:
        return importlib.import_module(f"hisparse.{owner}")
    except ModuleNotFoundError:
        module, _, cls = owner.rpartition(".")
        return getattr(importlib.import_module(f"hisparse.{module}"), cls)


def test_public_names_resolve_and_removed_names_stay_gone():
    for name in hisparse.__all__:
        assert getattr(hisparse, name, None) is not None, name
    for owner, names in REMOVED.items():
        obj = _resolve(owner)
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
