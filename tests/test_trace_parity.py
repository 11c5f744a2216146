"""The vectorized generator equals the per-flow loop, column for column.

``generate_trace`` replays the loop's NumPy draws from the raw PCG64
words instead of making them (see ``_packet_draws``), so any slip in
that layout -- a dropped kept half, a wrong redraw threshold, a flow's
offsets in the wrong order -- changes some column here.  A NumPy release
that changes ``Generator``'s algorithms fails these tests too.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.traces import TraceConfig, four_tap_trace, generate_trace
from repro.traces import generator
from repro.workloads.experiments import (
    experiment1_trace_config,
    experiment2_trace_config,
    experiment3_trace_config,
)

from .trace_reference import reference_trace

_MASK32 = (1 << 32) - 1
# The loop's per-packet bounded draws: integers(40, 1500), then a choice
# from the four-entry normal or the five-entry attack flag menu.
_LENGTH_BOUND = 1460
_MENU_BOUNDS = (4, 5)


def assert_same_columns(trace, expected):
    assert list(trace.columns) == list(expected.columns)
    for name, column in expected.columns.items():
        assert trace.columns[name].dtype == column.dtype, name
        np.testing.assert_array_equal(trace.columns[name], column, err_msg=name)
    assert trace.flow_count == expected.flow_count
    assert trace.suspicious_flow_count == expected.suspicious_flow_count


class _ReplayingRng:
    """The loop's ``Generator``, with every bounded draw also replayed
    from the raw 64-bit words by NumPy's rule, and checked against it.

    Records, per bound, how many 32-bit draws NumPy redrew, and whether
    a kept 32-bit half was pending when the first packet length was
    drawn.
    """

    def __init__(self, seed):
        self._rng = _default_rng(seed)
        self.redraws = {}
        self.carried_into_packets = None

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def integers(self, low, high, size):
        if low == 40 and self.carried_into_packets is None:
            state = self._rng.bit_generator.state
            self.carried_into_packets = bool(state["has_uint32"])
        replayed = self._replay(high - low, size) + low
        drawn = self._rng.integers(low, high, size)
        assert np.array_equal(drawn, replayed)
        return drawn

    def choice(self, menu, size):
        replayed = menu[self._replay(len(menu), size)]
        drawn = self._rng.choice(menu, size)
        assert np.array_equal(drawn, replayed)
        return drawn

    def _replay(self, bound, size):
        """``size`` draws below ``bound`` as NumPy makes them: 32-bit
        draws (a kept half first, then each word's low and high half),
        each ``u`` scaled to ``m = u * bound``, kept as ``m >> 32`` unless
        ``m mod 2**32`` falls below NumPy's threshold."""
        words = np.random.PCG64()
        words.state = self._rng.bit_generator.state
        state = words.state
        kept = [state["uinteger"]] if state["has_uint32"] else []
        raw = words.random_raw(size // 2 + 8)  # room for 15 redraws
        halves = np.column_stack((raw & np.uint64(_MASK32), raw >> np.uint64(32)))
        draws = np.concatenate((np.asarray(kept, dtype=np.uint64), halves.ravel()))
        scaled = draws * np.uint64(bound)
        threshold = ((1 << 32) - bound) % bound
        used = np.flatnonzero(scaled & np.uint64(_MASK32) >= threshold)[:size]
        assert len(used) == size
        redraws = int(used[-1]) + 1 - size
        self.redraws[bound] = self.redraws.get(bound, 0) + redraws
        return (scaled[used] >> np.uint64(32)).astype(np.int64)


_default_rng = np.random.default_rng


def replayed_reference(config, monkeypatch):
    """The reference trace, and the replaying generator that made it."""
    made = []

    def default_rng(seed):
        made.append(_ReplayingRng(seed))
        return made[-1]

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", default_rng)
        trace = reference_trace(config)
    return trace, made[0]


EXPERIMENT_CONFIGS = {
    "exp1": experiment1_trace_config,
    "exp2": experiment2_trace_config,
    "exp3": experiment3_trace_config,
    "default": lambda seed: TraceConfig(seed=seed),
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(EXPERIMENT_CONFIGS))
def test_experiment_configs_match_the_loop(name, seed):
    config = EXPERIMENT_CONFIGS[name](seed)
    assert_same_columns(generate_trace(config), reference_trace(config))


@pytest.mark.parametrize(
    "config, carried",
    [
        (replace(experiment1_trace_config(686), duration=2, rate=1000), True),
        (TraceConfig(duration=2, rate=1024, seed=207), False),
    ],
    ids=["kept-half", "no-kept-half"],
)
def test_a_redrawn_length_is_walked(config, carried, monkeypatch):
    # A length draw is redrawn with probability 616 / 2**32, so these
    # 2k-row configs were found by searching seeds.
    expected, rng = replayed_reference(config, monkeypatch)
    assert rng.redraws.get(_LENGTH_BOUND, 0) >= 1
    assert rng.carried_into_packets is carried
    assert_same_columns(generate_trace(config), expected)


@pytest.mark.parametrize(
    "config, carried",
    [
        (TraceConfig(duration=3, rate=333, seed=2), True),
        (TraceConfig(duration=4, rate=256, seed=2), False),
    ],
    ids=["odd-flows", "even-flows"],
)
def test_a_kept_half_carries_into_the_packets(config, carried, monkeypatch):
    # Before the packets, the loop makes 2 * sessions + 3 * flows 32-bit
    # draws (without redraws), so an odd flow count leaves a half kept.
    assert config.expected_flows() % 2 == int(carried)
    expected, rng = replayed_reference(config, monkeypatch)
    assert rng.carried_into_packets is carried
    assert not any(rng.redraws.get(bound) for bound in _MENU_BOUNDS)
    assert_same_columns(generate_trace(config), expected)


@pytest.mark.parametrize(
    "config",
    [
        TraceConfig(seed=3, suspicious_fraction=0.5),
        replace(experiment3_trace_config(4), suspicious_fraction=1.0),
    ],
    ids=["half-suspicious", "all-suspicious"],
)
def test_attack_menu_configs_match_the_loop(config):
    assert_same_columns(generate_trace(config), reference_trace(config))


def test_one_flow_of_one_packet_matches_the_loop():
    config = TraceConfig(duration=1, rate=1)
    expected = reference_trace(config)
    assert (expected.flow_count, expected.num_packets) == (1, 1)
    assert_same_columns(generate_trace(config), expected)


def test_four_tap_trace_matches_the_loop(monkeypatch):
    config = TraceConfig(duration=5, rate=1000, num_taps=4, seed=2)
    trace = four_tap_trace(config)
    monkeypatch.setattr(generator, "generate_trace", reference_trace)
    assert_same_columns(trace, four_tap_trace(config))
