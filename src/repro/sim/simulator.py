"""Reference model simulator.

Interprets the model graph directly through the block property library's
numpy semantics — the role Simulink's own simulation engine plays in the
paper's correctness methodology ("we generated a large number of random
test cases for the code generated by FRODO and compared the results with
those from model simulations", §4).

Stateful blocks (delays) read their state at step start and commit their
input at step end, mirroring the generated code's state-update placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.blocks import spec_for
from repro.blocks.delay import DelaySpec, UnitDelaySpec
from repro.core.analysis import AnalyzedModel, analyze
from repro.errors import SimulationError
from repro.model.graph import Model


@dataclass
class SimulationTrace:
    """Outputs of one simulation run.

    ``outputs`` maps Outport block names to their final-step values;
    ``history`` holds per-step output snapshots when requested.
    """

    outputs: dict[str, np.ndarray]
    history: list[dict[str, np.ndarray]] = field(default_factory=list)
    #: Final values of every block's output signal (last step).
    values: dict[str, np.ndarray] = field(default_factory=dict)


class Simulator:
    """Multi-step interpreter over an analyzed model."""

    def __init__(self, model: Model | AnalyzedModel):
        self.analyzed = model if isinstance(model, AnalyzedModel) else analyze(model)
        self.state: dict[str, np.ndarray] = {}
        self.reset()

    def reset(self) -> None:
        self.state.clear()
        analyzed = self.analyzed
        for name in analyzed.schedule:
            block = analyzed.block(name)
            spec = spec_for(block)
            if spec.is_stateful:
                initial = spec.initial_state(
                    block, analyzed.input_signals(name), analyzed.signal_of(name))
                self.state[name] = np.asarray(initial).copy()

    def _coerce_inputs(self, inputs: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        analyzed = self.analyzed
        coerced: dict[str, np.ndarray] = {}
        for block in analyzed.inports:
            if block.name not in inputs:
                raise SimulationError(f"missing input for Inport {block.name!r}")
            sig = analyzed.signal_of(block.name)
            value = np.asarray(inputs[block.name], dtype=sig.dtype)
            if value.size != sig.size:
                raise SimulationError(
                    f"Inport {block.name!r} expects {sig.size} elements, "
                    f"got {value.size}"
                )
            coerced[block.name] = value.reshape(sig.shape if sig.shape else ())
        unknown = set(inputs) - set(coerced)
        if unknown:
            raise SimulationError(f"unknown inport name(s): {sorted(unknown)}")
        return coerced

    def step(self, inputs: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Advance one step; returns every block's output value."""
        analyzed = self.analyzed
        inport_values = self._coerce_inputs(inputs)
        values: dict[str, np.ndarray] = {}
        pending_state: list[tuple[str, np.ndarray]] = []

        for name in analyzed.schedule:
            block = analyzed.block(name)
            spec = spec_for(block)
            if block.block_type == "Inport":
                values[name] = inport_values[name]
            elif spec.is_stateful:
                assert isinstance(spec, (UnitDelaySpec, DelaySpec))
                values[name] = spec.read_state(
                    block, self.state, analyzed.signal_of(name))
                pending_state.append((name, None))  # committed below
            else:
                in_values = [values[src] for src, _ in analyzed.drivers[name]]
                sig = analyzed.signal_of(name)
                result = np.asarray(spec.step(block, in_values, self.state),
                                    dtype=sig.dtype)
                values[name] = result.reshape(sig.shape if sig.shape else ())

        # Commit delay states from this step's inputs (end-of-step update).
        for name, _ in pending_state:
            block = analyzed.block(name)
            spec = spec_for(block)
            assert isinstance(spec, (UnitDelaySpec, DelaySpec))
            in_values = [values[src] for src, _ in analyzed.drivers[name]]
            spec.write_state(block, self.state, in_values[0])
        return values

    def run(self, inputs: Mapping[str, np.ndarray], steps: int = 1,
            record_history: bool = False) -> SimulationTrace:
        """Run ``steps`` steps with constant inputs; collect Outport values."""
        self.reset()
        history: list[dict[str, np.ndarray]] = []
        values: dict[str, np.ndarray] = {}
        for _ in range(steps):
            values = self.step(inputs)
            if record_history:
                history.append({
                    port.name: values[port.name].copy()
                    for port in self.analyzed.outports
                })
        outputs = {port.name: values[port.name] for port in self.analyzed.outports}
        return SimulationTrace(outputs, history, values)


def simulate(model: Model, inputs: Mapping[str, np.ndarray],
             steps: int = 1) -> dict[str, np.ndarray]:
    """One-shot convenience: outputs keyed by Outport block name."""
    return Simulator(model).run(inputs, steps).outputs


def random_inputs(model: Model | AnalyzedModel, seed: int = 0,
                  scale: float = 1.0) -> dict[str, np.ndarray]:
    """Deterministic random input vectors for every Inport.

    Floats are uniform in [-scale, scale]; uint32 signals get full-range
    words; complex signals get independent real/imaginary parts.
    """
    return draw_inputs(inport_specs(model), seed=seed, scale=scale)


def inport_specs(model: Model | AnalyzedModel) -> list[tuple]:
    """Each Inport's ``(name, shape, dtype)``, in the model's inport order
    (the analysis step of :func:`random_inputs`)."""
    analyzed = model if isinstance(model, AnalyzedModel) else analyze(model)
    specs = []
    for block in analyzed.inports:
        sig = analyzed.signal_of(block.name)
        specs.append((block.name, sig.shape if sig.shape else (), sig.dtype))
    return specs


def draw_inputs(specs, seed: int = 0,
                scale: float = 1.0) -> dict[str, np.ndarray]:
    """The seeded draws of :func:`random_inputs` over ``(name, shape,
    dtype)`` specs — the one place the input rng stream is defined."""
    rng = np.random.default_rng(seed)
    inputs: dict[str, np.ndarray] = {}
    for name, shape, dtype in specs:
        if dtype == "uint32":
            inputs[name] = rng.integers(
                0, 2 ** 32, size=shape, dtype="uint64").astype("uint32")
        elif dtype == "complex128":
            inputs[name] = (
                rng.uniform(-scale, scale, size=shape)
                + 1j * rng.uniform(-scale, scale, size=shape)
            )
        else:
            inputs[name] = rng.uniform(-scale, scale, size=shape)
    return inputs
