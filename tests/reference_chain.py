"""Sample-rate reference of the frame chain, the oracle of the differential tests.

`vlclink` never shapes a whole frame: it shapes only the stream head that
sync reads, gives the noise-free received symbols through the RRC x RRC
cascade at symbol rate, and matched-filters the real noise on its own.  This
module keeps the plain sample-rate form of every step, on top of the one TX
assembly `build_tx_symbols`: the zero-stuffed symbols convolved with the RRC
taps (`np.convolve`), a whole stream mixed through `h` with complex noise at
every sample, the matched filter as a full convolution, and sync as a
correlation over every start.
"""

import math

import numpy as np
from hypothesis import strategies as st

from vlclink import make_rng, qam_map
from vlclink.channel import apply_channel, awgn
from vlclink.framing import SYNC_THRESHOLD, FrameSpec, build_tx_symbols, mseq, rrc_taps
from vlclink.scenario import _ROLE_NOISE, LEAD_PAD, N0, TAIL_PAD, _FrontEnds


@st.composite
def frame_specs(draw):
    """Valid specs: preamble 7..127, sps 2..8, any rolloff, even span * sps."""
    sps = draw(st.integers(2, 8))
    span = draw(st.integers(4, 12).filter(lambda span: span * sps % 2 == 0))
    payload_len = draw(st.integers(1, 40))
    return FrameSpec(
        preamble_len=draw(st.sampled_from([7, 15, 31, 63, 127])),
        pilot_len=draw(st.integers(4, 12)),
        payload_len=payload_len,
        cp_len=draw(st.integers(0, payload_len - 1)),
        sps=sps,
        rolloff=draw(st.floats(0.0, 1.0, exclude_min=True)),
        rrc_span=span,
    )


def assert_close(got, want):
    """Equal to rtol 1e-12, the absolute slack scaled to the largest value."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * max(float(np.abs(want).max(initial=0.0)), 1e-300))


def rrc_shape(symbols, spec):
    """Each row of the (rows, n) symbols zero-stuffed by sps and convolved with
    the RRC taps: n*sps + ntaps - 1 samples."""
    up = np.zeros((symbols.shape[0], symbols.shape[1] * spec.sps), dtype=np.complex128)
    up[:, :: spec.sps] = symbols
    return np.stack([np.convolve(row, rrc_taps(spec)) for row in up])


def stream_len(spec):
    return LEAD_PAD + spec.n_samples + TAIL_PAD


def shaped_stream(symbols, spec):
    """The shaped (2, n_symbols) frame at sample LEAD_PAD of a `stream_len` stream."""
    stream = np.zeros((2, stream_len(spec)), dtype=np.complex128)
    stream[:, LEAD_PAD : LEAD_PAD + spec.n_samples] = rrc_shape(symbols, spec)
    return stream


def reference_noise(spec, seed, frame_idx):
    """The former draw of frame `frame_idx`'s noise, from the generator seeded
    `seed + (frame_idx, _ROLE_NOISE)`: all real parts, then all imaginary
    parts, each times sigma, handed over as the (2, 2, n) real and imaginary
    parts that the chain reads."""
    rng = make_rng(np.random.SeedSequence(seed + (frame_idx, _ROLE_NOISE)))
    shape = (2, stream_len(spec))
    sigma = math.sqrt(N0 / 2.0)
    w = np.empty(shape, dtype=np.complex128)
    w.real = sigma * rng.standard_normal(shape)
    w.imag = sigma * rng.standard_normal(shape)
    return np.stack([w.real, w.imag])


def reference_front_end(h_eff, spec, noise):
    """A task's `_FrontEnds` holding an outside noise draw in place of its own."""
    front_end = _FrontEnds(h_eff, spec)
    front_end.noise = noise
    return front_end


def ref_matched_filter(samples, spec, start, n_symbols):
    z = np.convolve(samples, rrc_taps(spec))
    return z[start + spec.ntaps - 1 + spec.sps * np.arange(n_symbols)]


def ref_sync_metric(samples, spec, last=None):
    """Best start over starts 0..last (the whole stream by default) and its
    normalised correlation."""
    pre = mseq(spec.preamble_len).astype(np.complex128)
    z = np.convolve(samples, rrc_taps(spec))
    tpl = np.zeros((pre.size - 1) * spec.sps + 1, dtype=complex)
    tpl[:: spec.sps] = pre
    ones = np.zeros(tpl.size)
    ones[:: spec.sps] = 1.0
    offset = spec.ntaps - 1
    corr = np.abs(np.correlate(z, tpl))[offset:]
    if last is not None:
        corr = corr[: last + 1]
    energy = np.correlate(np.abs(z) ** 2, ones).real[offset:]
    peak = int(np.argmax(corr))
    return peak, min(float(corr[peak]) / math.sqrt(max(float(energy[peak]), 1e-300) * pre.size), 1.0)


def admissible_last(spec, n):
    """The last start of an n-sample stream that leaves room for a whole frame."""
    return n - 1 - (spec.n_symbols - 1) * spec.sps


def ref_synchronize(streams, spec, last=None):
    """Two-branch rule: raw-correlation argmax per branch over starts 0..last,
    the branch with the higher metric, branch 0 on ties; None below threshold."""
    (i0, m0), (i1, m1) = (ref_sync_metric(s, spec, last) for s in streams)
    if max(m0, m1) < SYNC_THRESHOLD:
        return None
    return i0 if m0 >= m1 else i1


def make_payload(rng, order, spec, scheme):
    """Random bits and their (2, payload_len) QAM symbols; SD repeats one row."""
    k = int(math.log2(order))
    if scheme == "SM":
        bits = rng.integers(0, 2, size=(2, k * spec.payload_len))
        return bits, np.stack([qam_map(bits[0], order), qam_map(bits[1], order)])
    bits = rng.integers(0, 2, size=k * spec.payload_len)
    row = qam_map(bits, order)
    return bits, np.stack([row, row])


def received(spec, seed, h, n0):
    """A shaped SM frame at a random offset, through `h`; noise-free when n0 is None."""
    rng = make_rng(seed)
    _, payload = make_payload(rng, 16, spec, "SM")
    samples = rrc_shape(build_tx_symbols(payload, spec), spec)
    offset = int(rng.integers(0, 600))
    tx = np.concatenate([np.zeros((2, offset), complex), samples, np.zeros((2, 63), complex)], axis=1)
    h = np.asarray(h, dtype=complex)
    if n0 is None:
        return offset, h @ tx
    return offset, apply_channel(tx, h, awgn(tx.shape, n0, make_rng(seed)))


def reference_chain(payload, h_eff, spec, noise):
    """Sample-rate chain of the (2, payload_len) payload through `h_eff` and the
    real (2, 2, n) noise: (sync index, received (2, n_symbols) symbols)."""
    rx = h_eff @ shaped_stream(build_tx_symbols(payload, spec), spec) + (noise[0] + 1j * noise[1])
    start = ref_synchronize(rx, spec, admissible_last(spec, rx.shape[-1]))
    assert start is not None, "the reference finds no frame"
    return start, np.stack([ref_matched_filter(branch, spec, start, spec.n_symbols) for branch in rx])
