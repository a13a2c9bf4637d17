"""Frozen reference counts for the shipped example models.

Each model is parsed from disk, run through the explicit oracle, and
synthesized with both presets; the counts below were derived once with
the oracle and act as regression pins.
"""

import itertools

import pytest

from efasynth.model import validate
from efasynth.oracle import ExplicitOracle
from efasynth.parser import parse_file
from efasynth.synthesis import SynthesisConfig, synthesize
from efasynth.transform import linearize, plantify

# model file -> (universe, uncontrolled reachable, controlled reachable)
COUNTS = {
    "agv_mutex.efa": (432, 166, 91),
    "cat_mouse.efa": (12, 12, 6),
    "dining_philosophers.efa": (32768, 243, 241),
    "producer_consumer.efa": (3120, 482, 249),
    "sensor_input.efa": (36, 30, 30),
}


@pytest.fixture(scope="module")
def linearized(models_dir):
    cache = {}

    def get(name):
        if name not in cache:
            spec = parse_file(models_dir / name)
            assert validate(spec) == []
            model, diags = linearize(plantify(spec))
            assert diags == []
            cache[name] = model
        return cache[name]

    return get


def test_shipped_set_matches_table(models_dir):
    names = {p.name for p in models_dir.glob("*.efa") if not p.name.endswith(".sup.efa")}
    assert names == set(COUNTS)


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_oracle_counts(linearized, name):
    universe, us, cs = COUNTS[name]
    oracle = ExplicitOracle(linearized(name))
    assert len(oracle.states) == universe
    assert len(oracle.plant_reachable) == us
    assert len(oracle.controlled_reachable) == cs
    assert oracle.nonempty


@pytest.mark.parametrize("name", sorted(COUNTS))
@pytest.mark.parametrize("preset", ["v08", "v40"])
def test_presets_match_oracle(linearized, name, preset):
    # The forward stage changes the behavior the controlled count stays
    # inside, and the plant-invariant modes leave different guards for the
    # count's relations; neither may change a count.
    _, us, cs = COUNTS[name]
    for forward, plant_inv in itertools.product(
        (False, True), ("implication", "restrict")
    ):
        config = SynthesisConfig.preset(preset)
        config.forward, config.plant_inv = forward, plant_inv
        metrics = synthesize(linearized(name), config).metrics
        counts = metrics["uncontrolled_states"], metrics["controlled_states"]
        assert counts == (us, cs), config


def test_sensor_model_needs_no_state_removal(linearized):
    # guard strengthening only: same reachable states with and without control
    result = synthesize(linearized("sensor_input.efa"), SynthesisConfig.preset("v40"))
    assert result.metrics["uncontrolled_states"] == result.metrics["controlled_states"]
