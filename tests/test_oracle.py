"""The true-channel oracle: the adaptive run reports the mode that
`select_mode` picks on the true channel, wherever that pick is clear.

The oracle scales the true channel by sqrt(p_total / 2), as the chain's
estimates are scaled, and selects on its stream SNRs.  A position's margin is
the smallest |log10(predicted BER / target)| over the modes, in decades; a
predicted BER of 0 is infinitely far.  Where every mode is more than DELTA
from the target, the estimate's error cannot move the controller across it,
so the reported mode must be the oracle's.  Positions under DELTA are
listed, not asserted: there the pick depends on the noise.

The relation holds whatever the noise stream is, so it survives a change
that re-pins the digests.  It catches a defect in estimation, SNR scaling,
`P_TOTAL_REF` or the controller that moves a decision; a wrong noise level
barely moves the estimate, so it does not catch that.  The sweeps are the
shared runs of `tests/conftest.py`.
"""

import math

import pytest

from test_golden import DEEP_OBSTRUCTION_CFG, DEFAULT_CFG, PILOT8_TEXT, SHORT_FRAMES_TEXT
from vlclink import MODES, channel_matrix, load_config, parse_config, select_mode
from vlclink.adapt import predicted_ber
from vlclink.receiver import ChannelEstimate, stream_snrs
from vlclink.scenario import N0, P_TOTAL_REF

DELTA = 0.1   # decades

SWEEPS = {
    "default": load_config(DEFAULT_CFG),
    "deep-obstruction": load_config(DEEP_OBSTRUCTION_CFG),
    "blockage-short": parse_config(SHORT_FRAMES_TEXT),
    "pilot8": parse_config(PILOT8_TEXT),
}


def oracle(config, x, p_total):
    """(mode, margin) at obstacle position `x`: `select_mode` on the true
    channel's stream SNRs, and the margin of the modes' predicted BERs."""
    h, _ = channel_matrix(config.geometry(obstacle_x=x))
    est = ChannelEstimate(math.sqrt(p_total / 2.0) * h)
    policy = config.policy()
    sm, sd = (stream_snrs(est, P_TOTAL_REF, N0, scheme) for scheme in ("SM", "SD"))
    margin = math.inf
    for mode in MODES:
        snrs = sm if mode.scheme == "SM" else sd
        if snrs is None:   # a channel that cannot carry two streams has no SM modes
            continue
        ber = predicted_ber(mode, snrs.derated(policy.margin_db))
        if ber > 0.0:
            margin = min(margin, abs(math.log10(ber / policy.ber_tgt)))
    return select_mode(sm, sd, policy), margin


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_adaptive_mode_is_the_oracles_away_from_the_target(name, blockage_sweep):
    config = SWEEPS[name]
    result = blockage_sweep(config)
    close, wrong = [], []
    for x, report in zip(result.positions, result.adaptive):
        mode, margin = oracle(config, float(x), result.p_total)
        if margin <= DELTA:
            close.append(f"{x:g} cm at {margin:.3f} ({report.mode.name}, oracle {mode.name})")
        elif report.mode != mode:
            wrong.append(f"{x:g} cm at {margin:.3f}: {report.mode.name}, oracle {mode.name}")
    print(f"\n[NOTE] {name}: {len(close)} of {len(result.adaptive)} positions within {DELTA} decade: {close}")
    assert wrong == []
