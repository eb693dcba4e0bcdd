"""Random testbench (stimulus) generation and the columnar stimulus suite.

Replaces GoldMine's testbench generator: given a parsed module it
identifies the clock and reset inputs by naming convention, asserts reset
for an initial window, and drives every other input with constrained
random values.  A hold probability keeps signals stable across cycles so
sequential behaviors (FSM transitions, counters) are actually exercised
rather than washed out by white noise.

A suite of stimuli is a :class:`StimulusSuite`: one ``[traces, cycles,
inputs]`` value array plus lane lengths (and, for suites converted from
hand-written frames, a driven mask).  The vector engine packs it into
lanes straight from the array; everything else sees a sequence whose
items are lazy per-trace lists of ``{input: value}`` frames.

Every trace draws from its own MT19937 stream, bit-identical to the
per-bit ``random.Random(seed).random()`` walk (kept as the oracle in the
tests): a numpy ``RandomState`` seeded with the same ``init_by_array``
key as ``random.Random`` yields the same floats, so a trace's whole
entropy comes from one bulk draw.
"""

from __future__ import annotations

import array
import operator
from dataclasses import dataclass, field

import numpy as np

from ..verilog.ast_nodes import Module
from .trace import _LazyList

#: Input names treated as clocks (never randomized).
CLOCK_NAMES = frozenset({"clk", "clock", "clk_i", "wb_clk_i", "clk_in"})

#: Input names treated as resets, mapped to active level.
RESET_NAMES: dict[str, int] = {
    "rst": 1,
    "reset": 1,
    "wb_rst_i": 1,
    "rst_i": 1,
    "rst_n": 0,
    "rst_ni": 0,
    "resetn": 0,
    "reset_n": 0,
    "nreset": 0,
}


@dataclass
class TestbenchConfig:
    """Knobs for random stimulus generation.

    Attributes:
        n_cycles: Number of simulated cycles per trace.
        reset_cycles: Cycles to hold reset active at the start.
        hold_probability: Per-cycle probability that an input keeps its
            previous value instead of being re-randomized.
        one_probability: Probability of each bit being 1 when randomized.
        forced: Input name -> constant value overrides.
        biases: Input name -> per-bit one-probability override (used to
            make rare events such as address matches reachable).
        engine: Simulation engine used by consumers that build simulators
            from this config: "vector" (default; the lockstep engine) or
            "interpreted" (the reference oracle).
    """

    # Not a test class despite the Test* name (silences pytest collection).
    __test__ = False

    n_cycles: int = 30
    reset_cycles: int = 2
    hold_probability: float = 0.5
    one_probability: float = 0.5
    forced: dict[str, int] = field(default_factory=dict)
    biases: dict[str, float] = field(default_factory=dict)
    engine: str = "vector"


def identify_clock(module: Module) -> str | None:
    """Name of the clock input, or None for purely combinational designs."""
    for name in module.inputs:
        if name in CLOCK_NAMES:
            return name
    return None


def identify_reset(module: Module) -> tuple[str, int] | None:
    """(name, active_level) of the reset input, or None."""
    for name in module.inputs:
        if name in RESET_NAMES:
            return name, RESET_NAMES[name]
    return None


# ----------------------------------------------------------------------
# Columnar suites
# ----------------------------------------------------------------------


class StimulusSuite:
    """A batch of stimuli of one design, stored column-wise.

    Attributes:
        inputs: Input names, one per column of ``values``.
        values: ``[traces, cycles, inputs]`` array, ``uint64`` unless some
            value needs ``object`` (wider than 64 bits or negative).
            Cells past a trace's length are padding.
        lengths: Cycles per trace (``int64``).
        driven: ``[traces, cycles, inputs]`` bool mask of the cells a
            frame actually drives, or None when every trace drives every
            input each cycle (generated suites).  Undriven inputs hold
            their previous value, as a frame that omits them does.

    As a sequence, item ``i`` is trace ``i``'s list of ``{input: value}``
    frames, built on first use (:class:`_LazyStimulus`); slices are
    suites.  The arrays are shared with every view and trace made from
    the suite, so treat them as read-only.
    """

    __slots__ = ("inputs", "values", "lengths", "driven")

    def __init__(self, inputs, values: np.ndarray, lengths, driven=None):
        self.inputs: tuple[str, ...] = tuple(inputs)
        self.values = values
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.driven: np.ndarray | None = driven

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, index):
        if isinstance(index, slice):
            driven = None if self.driven is None else self.driven[index]
            return StimulusSuite(
                self.inputs, self.values[index], self.lengths[index], driven
            )
        lane = operator.index(index)
        if lane < 0:
            lane += len(self)
        if not 0 <= lane < len(self):
            raise IndexError("stimulus suite index out of range")
        return _LazyStimulus(self, lane)

    def __iter__(self):
        return (_LazyStimulus(self, lane) for lane in range(len(self)))

    def __eq__(self, other):
        try:
            if len(other) != len(self):
                return False
        except TypeError:
            return NotImplemented
        return all(mine == theirs for mine, theirs in zip(self, other))

    def __repr__(self) -> str:
        return (
            f"StimulusSuite({len(self)} traces x {self.values.shape[1]} cycles,"
            f" inputs={list(self.inputs)})"
        )

    def frames(self, lane: int) -> list[dict[str, int]]:
        """Trace ``lane`` as a fresh list of per-cycle input frames."""
        length = int(self.lengths[lane])
        rows = self.values[lane, :length].tolist()
        inputs = self.inputs
        if self.driven is None:
            return [dict(zip(inputs, row)) for row in rows]
        return [
            {name: value for name, value, on in zip(inputs, row, drive) if on}
            for row, drive in zip(rows, self.driven[lane, :length].tolist())
        ]

    @classmethod
    def from_frames(cls, stimuli) -> "StimulusSuite":
        """The suite of a list of per-trace frame lists (suites pass through).

        Inputs are ordered by first appearance; an input a frame omits
        is marked undriven there, so it holds its previous value.
        """
        if isinstance(stimuli, StimulusSuite):
            return stimuli
        stimuli = list(stimuli)
        column: dict[str, int] = {}
        for stimulus in stimuli:
            for frame in stimulus:
                for name in frame:
                    if name not in column:
                        column[name] = len(column)
        width = len(column)
        lengths = [len(stimulus) for stimulus in stimuli]
        cycles = max(lengths, default=0)
        values = []
        driven = []
        for stimulus in stimuli:
            for frame in stimulus:
                value_row = [0] * width
                driven_row = [False] * width
                for name, value in frame.items():
                    value_row[column[name]] = value
                    driven_row[column[name]] = True
                values.append(value_row)
                driven.append(driven_row)
            pad = cycles - len(stimulus)
            values.extend([[0] * width] * pad)
            driven.extend([[False] * width] * pad)
        shape = (len(stimuli), cycles, width)
        try:
            array = np.array(values, dtype=np.uint64).reshape(shape)
        except OverflowError:
            array = np.empty(len(values) * width, dtype=object)
            array[:] = [value for row in values for value in row]
            array = array.reshape(shape)
        return cls(column, array, lengths, np.array(driven, dtype=bool).reshape(shape))

    @classmethod
    def concat(cls, suites) -> "StimulusSuite":
        """The suites' traces, in order, as one suite (inputs unioned)."""
        suites = [cls.from_frames(suite) for suite in suites]
        inputs = tuple(dict.fromkeys(name for suite in suites for name in suite.inputs))
        cycles = max((suite.values.shape[1] for suite in suites), default=0)
        lengths = np.concatenate(
            [suite.lengths for suite in suites] or [np.zeros(0, np.int64)]
        )
        uniform = all(
            suite.driven is None and suite.inputs == inputs for suite in suites
        )
        if suites and uniform and all(suite.values.shape[1] == cycles for suite in suites):
            return cls(inputs, np.concatenate([suite.values for suite in suites]), lengths)
        wide = any(suite.values.dtype == object for suite in suites)
        values = np.zeros(
            (len(lengths), cycles, len(inputs)), dtype=object if wide else np.uint64
        )
        driven = None if uniform else np.zeros(values.shape, dtype=bool)
        start = 0
        for suite in suites:
            stop = start + len(suite)
            span = suite.values.shape[1]
            columns = [inputs.index(name) for name in suite.inputs]
            values[start:stop, :span, columns] = suite.values
            if driven is not None:
                driven[start:stop, :span, columns] = (
                    True if suite.driven is None else suite.driven
                )
            start = stop
        return cls(inputs, values, lengths, driven)


class _LazyStimulus(_LazyList):
    """One trace of a :class:`StimulusSuite` as a list of input frames.

    Compares, indexes and iterates like the ``list[dict[str, int]]`` it
    stands for; the dicts are built on first access.  Recorded traces
    hold one of these as ``Trace.stimulus`` instead of their own frame
    copies.
    """

    __slots__ = ("suite", "lane")

    def __init__(self, suite: StimulusSuite, lane: int):
        super().__init__()
        self.suite = suite
        self.lane = lane

    def _build(self) -> list[dict[str, int]]:
        return self.suite.frames(self.lane)

    def __len__(self) -> int:
        return int(self.suite.lengths[self.lane])


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------


def _replay_stream(seed: int, n: int) -> np.ndarray:
    """The first ``n`` floats ``random.Random(seed).random()`` would yield.

    Both RNGs are MT19937 with the same float construction.  CPython
    seeds an int with ``init_by_array`` over the 32-bit words of
    ``abs(seed)``, least significant first (one zero word for 0), and
    ``RandomState.seed`` runs the same ``init_by_array`` for a key that
    is not a scalar.  An ``array.array`` key is never a scalar, one word
    included; a one-word numpy array would squeeze to the scalar
    (``init_genrand``) path and yield another stream.
    """
    magnitude = abs(seed)
    key = array.array(
        "I",
        [
            (magnitude >> shift) & 0xFFFFFFFF
            for shift in range(0, max(magnitude.bit_length(), 1), 32)
        ],
    )
    global _NP_STATE
    if _NP_STATE is None:
        # Constructing a RandomState draws OS entropy; reuse one and
        # reseed it per call (every draw is a pure function of ``seed``
        # regardless of prior use).
        _NP_STATE = np.random.RandomState()
    _NP_STATE.seed(key)
    return _NP_STATE.random_sample(n)


#: Shared RandomState used purely as an MT19937 replay engine.
_NP_STATE: np.random.RandomState | None = None


def _walk(
    stream: np.ndarray,
    n_cycles: int,
    randomized: list[tuple[int, float]],
    hold_probability: float,
    out: list[int],
) -> None:
    """Append one trace's randomized cells to ``out``, cycle-major.

    Consumes ``stream`` exactly as the per-bit ``random.Random`` walk
    would: per cycle and randomized input, one hold decision (from the
    second cycle on), then — unless held — one float per bit, bit 0
    first.  ``randomized`` holds ``(width, one-probability)`` per input.
    Multi-bit values are read off a reversed ``'0'``/``'1'`` string of
    the whole stream per probability, one slice and one ``int(.., 2)``
    per value.
    """
    draws = stream.tolist()
    total = len(draws)
    bit_strings: dict[float, str] = {}
    for width, density in randomized:
        if width > 1 and density not in bit_strings:
            ones = stream[::-1] < density
            bit_strings[density] = (ones.view(np.uint8) + 48).tobytes().decode("ascii")
    inputs = [
        (width, density, bit_strings.get(density, "")) for width, density in randomized
    ]
    back = len(inputs)
    cursor = 0
    for cycle in range(n_cycles):
        for width, density, bits in inputs:
            if cycle:
                held = draws[cursor] < hold_probability
                cursor += 1
                if held:
                    out.append(out[-back])
                    continue
            if width == 1:
                out.append(1 if draws[cursor] < density else 0)
            else:
                end = total - cursor
                out.append(int(bits[end - width : end], 2))
            cursor += width


def _generate(module: Module, config: TestbenchConfig, seeds: list[int]) -> StimulusSuite:
    """One trace per seed, written straight into the suite's arrays.

    Clock inputs are held at 0 (the cycle-based simulator implies the
    edge), the reset input follows the reset window, forced inputs are
    constant, and every other input is constrained-random.  The constant
    columns are filled once for all traces; each trace's walk writes its
    randomized cells, which convert to the array in one go.
    """
    clock = identify_clock(module)
    reset = identify_reset(module)
    inputs = list(module.inputs)
    widths = [module.decls[name].width for name in inputs]
    n_cycles = config.n_cycles
    forced = config.forced
    wide = max(widths, default=0) > 64 or any(
        not 0 <= value < 1 << 64 for value in forced.values()
    )
    dtype = object if wide else np.uint64
    values = np.zeros((len(seeds), n_cycles, len(inputs)), dtype=dtype)
    columns: list[int] = []
    randomized: list[tuple[int, float]] = []
    for column, (name, width) in enumerate(zip(inputs, widths)):
        if name == clock:
            continue
        if reset is not None and name == reset[0]:
            level = reset[1]
            values[:, :, column] = [
                level if cycle < config.reset_cycles else 1 - level
                for cycle in range(n_cycles)
            ]
        elif name in forced:
            values[:, :, column] = forced[name]
        else:
            columns.append(column)
            randomized.append((width, config.biases.get(name, config.one_probability)))
    if randomized and n_cycles > 0:
        bound = n_cycles * sum(1 + width for width, _ in randomized)
        cells: list[int] = []
        for seed in seeds:
            _walk(
                _replay_stream(seed, bound),
                n_cycles,
                randomized,
                config.hold_probability,
                cells,
            )
        shape = (len(seeds), n_cycles, len(columns))
        if wide:
            block = np.empty(len(cells), dtype=object)
            block[:] = cells
        else:
            block = np.array(cells, dtype=np.uint64)
        values[:, :, columns] = block.reshape(shape)
    return StimulusSuite(inputs, values, np.full(len(seeds), n_cycles, dtype=np.int64))


def generate_stimulus(
    module: Module,
    config: TestbenchConfig | None = None,
    seed: int = 0,
) -> list[dict[str, int]]:
    """Generate one random stimulus (list of per-cycle input frames).

    Args:
        module: The design to stimulate.
        config: Generation knobs; defaults to :class:`TestbenchConfig`.
        seed: RNG seed; the same seed always yields the same stimulus.

    Returns:
        A list of ``config.n_cycles`` dicts, each driving every input.
    """
    return _generate(module, config or TestbenchConfig(), [seed]).frames(0)


def generate_testbench_suite(
    module: Module,
    n_traces: int,
    config: TestbenchConfig | None = None,
    seed: int = 0,
) -> StimulusSuite:
    """``n_traces`` independent stimuli; trace ``i`` is seeded ``seed * 100003 + i``.

    Trace ``i`` equals ``generate_stimulus(module, config, seed * 100003
    + i)``.
    """
    seeds = [seed * 100003 + idx for idx in range(n_traces)]
    return _generate(module, config or TestbenchConfig(), seeds)
