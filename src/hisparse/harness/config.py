"""Experiment configuration: presets for desk and paper scale, JSON io."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field

from ..solvers import SolverConfig

SCENARIO_RECOVERY = "recovery-grid"
SCENARIO_DETECTION = "block-detection"
SCENARIO_THEOREM = "theorem-verify"
SCENARIOS = (SCENARIO_RECOVERY, SCENARIO_DETECTION, SCENARIO_THEOREM)


def _dump_json(obj, path) -> None:
    """The writer of every harness JSON file: indent 2, sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# The least value of each count a trial can run with.  Recovery and
# detection run every entry of a sweep, so each entry is checked.
# theorem-verify draws each instance's sizes and budgets from ranges capped
# by a field's largest entry, which must leave every range non-empty.
_LEAST = {"trials": 1, "front_width": 1, "M": 1, "N": 1, "m": 1, "block_lengths": 1,
          "s_values": 1, "sigma_values": 0}
_LEAST_THEOREM = dict(_LEAST, M=2, N=2, m=2, block_lengths=2, sigma_values=1)


@dataclass
class ExperimentConfig:
    """One Monte Carlo run.

    M may be a single antenna count or a sequence of them (the block
    detection scenario sweeps several).  block_lengths is either one
    uniform length or an explicit per-block list.  For theorem-verify the
    dimension fields act as sampler upper bounds rather than exact sizes.
    """

    scenario: str
    M: tuple[int, ...] = (12,)
    N: int = 16
    m: int = 16
    block_lengths: tuple[int, ...] | int = 32
    s_values: tuple[int, ...] = (1,)
    sigma_values: tuple[int, ...] = (1,)
    snr_db: tuple[float, ...] = (10.0,)
    trials: int = 20
    master_seed: int = 20240601
    solver: SolverConfig = field(default_factory=SolverConfig)
    output_path: str | None = None
    # block-detection: the first N // 2 blocks are short-delay users whose
    # energy lies in their first front_width coordinates
    front_width: int = 10
    # wall_millis is zeroed in trials.csv unless this is set, keeping two
    # identical runs byte-identical.
    measured_timing: bool = False

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if isinstance(self.M, numbers.Integral):
            self.M = (self.M,)
        self.check()
        self.M = tuple(int(v) for v in self.M)
        self.s_values = tuple(int(v) for v in self.s_values)
        self.sigma_values = tuple(int(v) for v in self.sigma_values)
        self.snr_db = tuple(float(v) for v in self.snr_db)
        if isinstance(self.block_lengths, numbers.Integral):
            self.block_lengths = int(self.block_lengths)
        else:
            self.block_lengths = tuple(int(v) for v in self.block_lengths)

    def check(self) -> None:
        """ValueError for a value no trial can run with.  Run on
        construction, and by each runner before any trial, so a field set
        after construction is refused up front as well."""
        for name in ("M", "s_values", "sigma_values", "snr_db"):
            value = getattr(self, name)
            if not hasattr(value, "__len__") or len(value) == 0:
                raise ValueError(f"{name} must be a non-empty sequence, got {value!r}")
        kinds = dict.fromkeys(("M", "s_values", "sigma_values", "block_lengths", "N", "m",
                               "trials", "front_width", "master_seed"), numbers.Integral)
        kinds["snr_db"] = numbers.Real
        for name, kind in kinds.items():
            value = getattr(self, name)
            # a value that is not a sequence, None included, is one value
            values = (value,) if isinstance(value, str) or not hasattr(value, "__len__") else value
            # bool is a number, and True would read as a count of one or as 1 dB
            if any(isinstance(v, bool) or not isinstance(v, kind) for v in values):
                raise ValueError(f"{name} must hold {kind.__name__.lower()} numbers, got {value!r}")
        if not isinstance(self.measured_timing, bool):
            raise ValueError(f"measured_timing must be true or false, got {self.measured_timing!r}")
        if not isinstance(self.block_lengths, numbers.Number) and len(self.block_lengths) != self.N:
            raise ValueError(
                f"block_lengths must be one length or N = {self.N} of them, "
                f"got {self.block_lengths!r}"
            )
        theorem = self.scenario == SCENARIO_THEOREM
        for name, least in (_LEAST_THEOREM if theorem else _LEAST).items():
            value = getattr(self, name)
            sweep = hasattr(value, "__len__")
            values = value if sweep else (value,)
            if (max(values) if theorem else min(values)) < least:
                where = " at its largest entry" if theorem and sweep else ""
                raise ValueError(f"{name} must be >= {least}{where}, got {value!r}")
        if any(math.isnan(v) or v == -math.inf for v in self.snr_db):
            raise ValueError(f"snr_db must be finite or +inf, got {self.snr_db}")
        # sigma = 0 plants a zero signal, and no finite SNR can scale one
        if (not theorem and 0 in self.sigma_values
                and any(math.isfinite(snr) for snr in self.snr_db)):
            raise ValueError(
                "sigma = 0 plants a zero signal, which cannot be measured at a finite "
                "snr_db; use snr_db = inf for sigma = 0"
            )

    def block_sizes(self) -> tuple[int, ...]:
        if isinstance(self.block_lengths, int):
            return (self.block_lengths,) * self.N
        return self.block_lengths

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        solver = d.pop("solver", {})
        if not isinstance(solver, SolverConfig):
            if not isinstance(solver, dict):
                raise ValueError(f"solver must be an object of solver settings, got {solver!r}")
            unknown = set(solver) - {f.name for f in dataclasses.fields(SolverConfig)}
            if unknown:
                raise ValueError(f"unknown solver config keys: {sorted(unknown)}")
            solver = SolverConfig(**solver)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d, solver=solver)

    def to_json(self, path) -> None:
        _dump_json(self.to_dict(), path)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def desk_recovery_grid() -> ExperimentConfig:
    """CI-sized recovery phase diagram (a couple of seconds per cell)."""
    return ExperimentConfig(
        scenario=SCENARIO_RECOVERY,
        M=(12,),
        N=16,
        m=16,
        block_lengths=32,
        s_values=(1, 2, 4, 8, 16),
        sigma_values=(1, 2, 4, 8, 16),
        snr_db=(10.0,),
        trials=20,
    )


def paper_recovery_grid() -> ExperimentConfig:
    """Full-size noisy recovery grid: 2000 measurements of 5000 unknowns,
    block counts 1..25 against in-block sparsities 1..20 at 10 dB."""
    return ExperimentConfig(
        scenario=SCENARIO_RECOVERY,
        M=(40,),
        N=50,
        m=50,
        block_lengths=100,
        s_values=tuple(range(1, 26)),
        sigma_values=tuple(range(1, 21)),
        snr_db=(10.0,),
        trials=50,
    )


def desk_block_detection() -> ExperimentConfig:
    """CI-sized active-block detection with mixed block lengths."""
    return ExperimentConfig(
        scenario=SCENARIO_DETECTION,
        M=(4, 8),
        N=8,
        m=16,
        block_lengths=40,
        s_values=(3,),
        sigma_values=(2,),
        snr_db=(0.0, 10.0),
        trials=8,
        front_width=6,
    )


def paper_block_detection() -> ExperimentConfig:
    """Active-block detection at full scale: 20 users, 50 probed
    frequencies, budget (6, 5), antenna sweep 10..40, SNR down to -10 dB;
    half the users have their energy in the first 10 taps."""
    return ExperimentConfig(
        scenario=SCENARIO_DETECTION,
        M=(10, 20, 30, 40),
        N=20,
        m=50,
        block_lengths=200,
        s_values=(6,),
        sigma_values=(5,),
        snr_db=(-10.0, 0.0, 10.0, 20.0),
        trials=50,
        front_width=10,
    )


def desk_theorem_verify(instances: int = 200) -> ExperimentConfig:
    """Random-instance verification of the isometry bounds; the dimension
    fields are upper bounds for the instance sampler."""
    return ExperimentConfig(
        scenario=SCENARIO_THEOREM,
        M=(10,),
        N=10,
        m=12,
        block_lengths=6,
        s_values=(3,),
        sigma_values=(2,),
        trials=instances,
    )


def preset(scenario: str, paper_scale: bool = False) -> ExperimentConfig:
    """The desk (or paper_scale) preset.  theorem-verify has only a desk
    one, so asking for its paper-scale preset raises ValueError."""
    if scenario == SCENARIO_RECOVERY:
        return paper_recovery_grid() if paper_scale else desk_recovery_grid()
    if scenario == SCENARIO_DETECTION:
        return paper_block_detection() if paper_scale else desk_block_detection()
    if scenario == SCENARIO_THEOREM:
        if paper_scale:
            raise ValueError("theorem-verify has no paper-scale preset")
        return desk_theorem_verify()
    raise ValueError(f"unknown scenario {scenario!r}")
