"""Experiment configuration: presets for desk and paper scale, JSON io."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field

from ..blocks import BlockStructure, HiSparsity
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


# Each numeric field's (type, sweep, least, least cap): integral (int) or
# real (float) values, cast to the type on construction; a sweep is a
# non-empty sequence, block_lengths (None) one length or one per block.
# Recovery and detection run every entry, each at least `least`.
# theorem-verify caps the ranges it draws sizes and budgets from by a
# field's largest entry, at least `least cap` to leave every range non-empty.
_FIELDS = {
    "M": (int, True, 1, 2),
    "s_values": (int, True, 1, 1),
    "sigma_values": (int, True, 0, 1),
    "snr_db": (float, True, None, None),
    "block_lengths": (int, None, 1, 2),
    "N": (int, False, 1, 2),
    "m": (int, False, 1, 2),
    "trials": (int, False, 1, 1),
    "front_width": (int, False, 1, 1),
    "master_seed": (int, False, None, None),
}


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
        # the field rules only, not check(): a config may only describe a prior
        for name, v in self._cast_fields().items():
            setattr(self, name, v)

    def _cast_fields(self) -> dict:
        """The _FIELDS values, which _check_fields must pass, each cast to
        its type (a sequence entry by entry): construction stores them and
        to_dict writes them, so a numpy number set later writes as one."""
        self._check_fields()
        cast_fields = {}
        for name, (cast, *_) in _FIELDS.items():
            v = getattr(self, name)
            cast_fields[name] = tuple(map(cast, v)) if hasattr(v, "__len__") else cast(v)
        return cast_fields

    def _check_fields(self) -> None:
        """ValueError for a field value no trial can run with."""
        theorem = self.scenario == SCENARIO_THEOREM
        for name, (cast, sweep, least, cap) in _FIELDS.items():
            value, kind = getattr(self, name), numbers.Integral if cast is int else numbers.Real
            if sweep and (not hasattr(value, "__len__") or len(value) == 0):
                raise ValueError(f"{name} must be a non-empty sequence, got {value!r}")
            # a value that is not a sequence, None included, is one entry
            many = sweep is not False and hasattr(value, "__len__")
            values = tuple(value) if many else (value,)
            # bool is a number, and True would read as a count of one or as 1 dB
            if any(isinstance(v, bool) or not isinstance(v, kind) for v in values):
                raise ValueError(f"{name} must hold {kind.__name__.lower()} numbers, got {value!r}")
            bound = cap if theorem else least
            if bound is not None and (max if theorem else min)(values, default=bound) < bound:
                where = " at its largest entry" if theorem and many else ""
                raise ValueError(f"{name} must be >= {bound}{where}, got {value!r}")
        if not isinstance(self.measured_timing, bool):
            raise ValueError(f"measured_timing must be true or false, got {self.measured_timing!r}")
        if not isinstance(self.output_path, (str, type(None))):
            raise ValueError(f"output_path must be a string or null, got {self.output_path!r}")
        if not isinstance(self.block_lengths, numbers.Number) and len(self.block_lengths) != self.N:
            raise ValueError(
                f"block_lengths must be one length or N = {self.N} of them, "
                f"got {self.block_lengths!r}"
            )
        if any(math.isnan(v) or v == -math.inf for v in self.snr_db):
            raise ValueError(f"snr_db must be finite or +inf, got {self.snr_db}")
        # sigma = 0 plants a zero signal, and no finite SNR can scale one
        if (not theorem and 0 in self.sigma_values
                and any(math.isfinite(snr) for snr in self.snr_db)):
            raise ValueError(
                "sigma = 0 plants a zero signal, which cannot be measured at a finite "
                "snr_db; use snr_db = inf for sigma = 0"
            )

    def check(self) -> None:
        """ValueError for a config its scenario cannot run: the field rules
        of construction, then its runner's.  The one gate: every runner calls
        it before any trial, and the CLI on loading a config file."""
        self._check_fields()
        if self.scenario == SCENARIO_THEOREM:
            return  # theorem-verify takes m above its block lengths by design
        if self.scenario == SCENARIO_RECOVERY and len(self.M) != 1:
            raise ValueError("the recovery grid uses a single antenna count")
        if self.scenario == SCENARIO_DETECTION and (
                len(self.s_values) != 1 or len(self.sigma_values) != 1):
            raise ValueError("block detection uses a single (s, sigma) cell")
        # every trial draws m distinct DFT rows from each block
        shortest = min(self.block_sizes())
        if self.m > shortest:
            raise ValueError(f"m = {self.m} exceeds the shortest block length {shortest}")
        if self.scenario == SCENARIO_DETECTION:
            prior = BlockStructure(self.windows())
            HiSparsity.uniform(self.s_values[0], self.sigma_values[0], self.N).validate_for(prior)

    def block_sizes(self) -> tuple[int, ...]:
        if isinstance(self.block_lengths, numbers.Integral):
            return (self.block_lengths,) * self.N
        return self.block_lengths

    def windows(self) -> tuple[int, ...]:
        """The block-detection prior's window lengths: front_width for the
        first N // 2 (short-delay) blocks, the full n_i for the rest.
        ValueError when front_width exceeds one of those first blocks."""
        n, half = self.block_sizes(), self.N // 2
        if half and self.front_width > min(n[:half]):
            raise ValueError(f"front_width {self.front_width} exceeds the shortest short block "
                             f"({min(n[:half])} columns)")
        return (self.front_width,) * half + n[half:]

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), **self._cast_fields()}

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
