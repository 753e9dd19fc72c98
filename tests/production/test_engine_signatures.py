"""Signature-consistency contract over every WaferEngine implementation.

``make_engine`` (and the screening line behind it) drives all four batch
engines through one calling convention; these tests pin that convention so
a drifting keyword name or parameter order in any engine breaks loudly
here instead of deep inside a campaign run.
"""

import inspect

import pytest

from repro.campaign import Scenario, make_engine
from repro.production import (
    BatchBistEngine,
    BatchDynamicSuite,
    BatchHistogramTest,
    BatchPartialBistEngine,
    Wafer,
    WaferSpec,
)

ENGINE_SCENARIOS = {
    BatchBistEngine: Scenario(),
    BatchPartialBistEngine: Scenario(q=2),
    BatchHistogramTest: Scenario(method="histogram"),
    BatchDynamicSuite: Scenario(method="dynamic"),
}

ENGINES = sorted(ENGINE_SCENARIOS, key=lambda cls: cls.__name__)

#: Methods every engine must expose with identical parameter lists.
UNIFORM_METHODS = {
    "run_wafer": ["self", "wafer", "rng", "chunk_size", "plan"],
    "run_transitions": ["self", "transitions", "full_scale", "sample_rate",
                        "rng", "chunk_size", "plan"],
    "prepare": ["self", "transitions", "full_scale", "sample_rate"],
    "run_shard": ["self", "context", "transitions", "rng", "chunk_size",
                  "first"],
    "merge": ["self", "shard_results"],
}

#: Methods only the BIST engines carry (chip grouping, truth scoring) —
#: also pinned to one shared parameter list.
BIST_ONLY_METHODS = {
    "run_chips": ["self", "wafer", "converters_per_chip", "rng",
                  "chunk_size", "plan"],
    "run_population": ["self", "population", "rng", "dnl_spec_lsb",
                       "inl_spec_lsb", "plan"],
}


def _parameter_names(cls, method):
    return list(inspect.signature(
        inspect.unwrap(getattr(cls, method))).parameters)


class TestSignatureConsistency:
    @pytest.mark.parametrize("method", sorted(UNIFORM_METHODS))
    @pytest.mark.parametrize("engine_cls", ENGINES,
                             ids=lambda cls: cls.__name__)
    def test_uniform_method_signatures(self, engine_cls, method):
        assert _parameter_names(engine_cls, method) == \
            UNIFORM_METHODS[method]

    @pytest.mark.parametrize("method", sorted(BIST_ONLY_METHODS))
    @pytest.mark.parametrize(
        "engine_cls", [BatchBistEngine, BatchPartialBistEngine],
        ids=lambda cls: cls.__name__)
    def test_bist_chip_and_population_signatures(self, engine_cls, method):
        assert _parameter_names(engine_cls, method) == \
            BIST_ONLY_METHODS[method]

    @pytest.mark.parametrize("engine_cls", ENGINES,
                             ids=lambda cls: cls.__name__)
    def test_run_defaults_agree(self, engine_cls):
        """Shared keywords must also share their defaults, so a kwargs
        dict built for one engine means the same thing for every other."""
        params = inspect.signature(engine_cls.run_transitions).parameters
        assert params["full_scale"].default == 1.0
        assert params["sample_rate"].default == 1e6
        for name in ("rng", "chunk_size", "plan"):
            assert params[name].default is None
        wafer_params = inspect.signature(engine_cls.run_wafer).parameters
        for name in ("rng", "chunk_size", "plan"):
            assert wafer_params[name].default is None


class TestUniformDriving:
    def test_one_kwargs_dict_drives_every_engine(self):
        """The property the factory relies on: identical call sites work
        for every engine make_engine can return."""
        wafer = Wafer.draw(WaferSpec(n_bits=6, n_devices=32), rng=4)
        kwargs = dict(rng=7, chunk_size=16, plan=None)
        for engine_cls in ENGINES:
            engine = make_engine(ENGINE_SCENARIOS[engine_cls])
            assert isinstance(engine, engine_cls)
            result = engine.run_wafer(wafer, **kwargs)
            assert result.n_devices == 32
            via_matrix = engine.run_transitions(
                wafer.transitions, full_scale=wafer.spec.full_scale,
                sample_rate=wafer.spec.sample_rate, **kwargs)
            assert (via_matrix.passed == result.passed).all()

    def test_chip_mode_accepts_chunk_size(self):
        """run_chips gained the shared chunk argument: chunking is a pure
        memory knob there too and must never change chip verdicts."""
        wafer = Wafer.draw(WaferSpec(n_bits=6, n_devices=32), rng=4)
        for scenario in (Scenario(transition_noise_lsb=0.05),
                         Scenario(q=2, transition_noise_lsb=0.05)):
            engine = make_engine(scenario)
            reference = engine.run_chips(wafer, 4, rng=11)
            chunked = engine.run_chips(wafer, 4, rng=11, chunk_size=5)
            assert (chunked.chip_passed == reference.chip_passed).all()
