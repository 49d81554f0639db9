"""The deep-obstruction scenario: the controller walks the whole mode ladder.

`configs/deep-obstruction.cfg` sets a 30 cm obstacle with a 15 cm soft
shadow and leaves every other key at its default, calibration included.
Where the default obstacle shadows 3 of 27 positions and the adaptive run
never leaves {SM-256, SM-64}, this one sends five modes as it crosses the
link, so its averages and its worst BER depend on the noise.  Its seed-1
CSV digest is pinned in `tests/test_golden.py`.

The adaptive run must match or beat both fixed baselines at every position,
and step down the ladder SM-256 -> SM-64 -> SM-16 -> SD-16 -> SD-4 to the
centre and back up.  The paper's two figures (12 b/s/Hz adaptive, 7.7 fixed
SM-64) are printed against +-1.5, as C4 does for the default sweep.  The
worst BER is not asserted: it sits just under 1e-3 at +-30 cm (9.8e-4 on
one base seed), so a fixed bound would fail by chance on some seed.
"""

import itertools
from pathlib import Path

import pytest

from vlclink import load_config, run_blockage_sweep

DEEP_OBSTRUCTION_CFG = Path(__file__).resolve().parents[1] / "configs" / "deep-obstruction.cfg"
LADDER = ["SM-256", "SM-64", "SM-16", "SD-16", "SD-4"]


@pytest.fixture(scope="module")
def sweep():
    return run_blockage_sweep(load_config(DEEP_OBSTRUCTION_CFG))


def test_adaptive_matches_or_beats_both_baselines_everywhere(sweep):
    for ra, rm, rd in zip(sweep.adaptive, sweep.fixed_sm64, sweep.fixed_sd64):
        assert ra.eff_bshz >= max(rm.eff_bshz, rd.eff_bshz), f"position {ra.position_cm}"
    assert sweep.averages["adaptive"] > sweep.averages["fixed_sm64"] > sweep.averages["fixed_sd64"]


def test_adaptive_run_walks_the_five_mode_ladder(sweep):
    """Down the ladder as the obstacle reaches the centre, back up after it."""
    modes = [report.mode.name for report in sweep.adaptive]
    assert [mode for mode, _ in itertools.groupby(modes)] == LADDER + LADDER[-2::-1]
    assert sweep.adaptive[len(modes) // 2].position_cm == 0.0 and modes[len(modes) // 2] == "SD-4"


def test_paper_figures_noted(sweep):
    for name, reference in (("adaptive", 12.0), ("fixed_sm64", 7.7)):
        delta = sweep.averages[name] - reference
        inside = "inside" if abs(delta) <= 1.5 else "outside"
        print(
            f"\n[NOTE] deep obstruction reference target {name}: {sweep.averages[name]:.2f} b/s/Hz "
            f"vs {reference} +- 1.5 ({inside}, delta {delta:+.2f})"
        )
