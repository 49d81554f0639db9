"""Adaptive 2x2 MIMO visible-light link simulator.

A numpy library reproducing a software-defined optical MIMO chain: Gray
M-QAM modem, pulse-shaped framing with orthogonal pilots, a Lambertian
line-of-sight channel with obstacle shadowing, least-squares estimation with
zero-forcing / maximal-ratio detection, and a BER-constrained mode selector
that trades spatial multiplexing against spatial diversity frame by frame.

The package exports what the blockage experiment, its acceptance checks and
the command line use; everything else is imported from its module.
"""

from .adapt import MODES, Mode, encode_mode, select_mode
from .channel import channel_matrix
from .errors import ParseError, ValidationError
from .modem import ber_theoretical, qam_demap, qam_map
from .numerics import make_rng, svd2
from .receiver import StreamSnrs, estimate_channel
from .scenario import (
    ScenarioConfig,
    calibrate,
    load_config,
    parse_config,
    run_ber_sweep,
    run_blockage_sweep,
    write_ber_csv,
    write_blockage_csv,
)

__version__ = "0.1.0"
