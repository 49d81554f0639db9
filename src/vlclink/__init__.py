"""Adaptive 2x2 MIMO visible-light link simulator.

A numpy library reproducing a software-defined optical MIMO chain: Gray
M-QAM modem, pulse-shaped framing with orthogonal pilots, a Lambertian
line-of-sight channel with obstacle shadowing, least-squares estimation with
zero-forcing / maximal-ratio detection, and a BER-constrained mode selector
that trades spatial multiplexing against spatial diversity frame by frame.
"""

from .adapt import (
    AdaptPolicy,
    ControllerState,
    MODES,
    Mode,
    controller_step,
    encode_mode,
    new_controller,
    parse_mode,
    predicted_ber,
    select_mode,
)
from .channel import (
    ChannelState,
    Geometry,
    Obstacle,
    apply_channel,
    channel_matrix,
    los_gain,
    occlusion,
    occlusion_factor,
)
from .errors import (
    DeadChannel,
    LengthError,
    ParameterError,
    ParseError,
    RangeError,
    SchemeError,
    SingularMatrix,
    SyncNotFound,
    ValidationError,
)
from .framing import (
    FrameSpec,
    TxFrame,
    build_frame,
    matched_filter_downsample,
    mseq,
    pilot_symbols,
    preamble_symbols,
    rrc_taps,
    synchronize,
)
from .metrics import (
    LinkReport,
    dump_constellation,
    error_free_efficiency,
)
from .modem import (
    Constellation,
    QAM_ORDERS,
    ber_theoretical,
    constellation,
    evm,
    qam_demap,
    qam_map,
)
from .numerics import Svd2, inv2, make_rng, qfunc, svd2
from .receiver import (
    ChannelEstimate,
    StreamSnrs,
    combine_sd_mrc,
    detect_sm_zf,
    estimate_channel,
    stream_snrs,
)
from .scenario import (
    BerSweepRow,
    BlockageSweepResult,
    ScenarioConfig,
    calibrate,
    load_config,
    parse_config,
    run_ber_sweep,
    run_blockage_sweep,
    run_position,
    write_ber_csv,
    write_blockage_csv,
)

__version__ = "0.1.0"
