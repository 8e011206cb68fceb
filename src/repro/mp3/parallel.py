"""The parallel MP3 encoder on the NoC (thesis Fig 4-7).

The five pipeline stages map onto five tiles:

    Signal Acquisition -> Psychoacoustic Model -> MDCT
        -> Iterative Encoding -> Bit Reservoir / Output

Granules flow as packets between consecutive stages over the stochastic
network.  Two stages are order-sensitive (the MDCT is a lapped transform;
the bit reservoir is sequential), so they carry *resequencing buffers*: a
granule that fails to arrive within ``skip_after`` rounds of its turn is
skipped — concealed as silence at the MDCT, simply absent from the output
bitstream — which is precisely the graceful-degradation behaviour the
thesis measures: losses cost output bit-rate (Fig 4-11) and, in the
extreme, completeness (Fig 4-10, point A), but never deadlock the stream.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.apps.base import Application, Placement
from repro.core.packet import BROADCAST, Packet
from repro.mp3.bitreservoir import BitReservoir
from repro.mp3.encoder import EncodedFrame, Mp3Encoder, _FRAME_HEADER
from repro.mp3.huffman import SPECTRUM_CODEC
from repro.mp3.mdct import Mdct
from repro.mp3.pcm import GRANULE, SAMPLE_RATE_HZ, PcmSource
from repro.mp3.psychoacoustic import PsychoacousticModel, PsychoResult
from repro.mp3.quantizer import RateLoopQuantizer
from repro.noc.tile import IPCore, TileContext

#: Message headers.  Every inter-stage payload starts with (tag, granule
#: index, element count); stage-specific data follows.
_MSG = struct.Struct(">BiH")
TAG_SAMPLES = 1
TAG_ANALYZED = 2
TAG_SPECTRUM = 3
TAG_FRAME = 4


def _pack_floats(tag: int, index: int, *arrays: np.ndarray) -> bytes:
    blob = b"".join(np.asarray(a, dtype=np.float32).tobytes() for a in arrays)
    count = sum(np.asarray(a).size for a in arrays)
    return _MSG.pack(tag, index, count) + blob


def _stage_send(
    ctx: TileContext,
    destination: int,
    payload: bytes,
    index: int,
    identity: tuple[int, int] | None,
) -> None:
    """Emit one inter-stage message.

    Without `identity` (the thesis configuration) the message is a plain
    unicast to the next stage's tile.  With stage duplication, replicas
    broadcast under a pinned (primary tile, stable message id) so their
    emissions deduplicate in-network — the §4.1.1/§4.1.3 replica trick
    applied to the pipeline.  Broadcast costs nothing extra here: gossip
    diffuses every packet through the whole mesh regardless of its
    destination field.
    """
    if identity is None:
        ctx.send(destination, payload)
        return
    primary_tile, id_base = identity
    ctx.send(
        BROADCAST, payload, source=primary_tile, message_id=id_base + index
    )


class _Resequencer:
    """In-order granule delivery with a skip timeout.

    ``push`` buffers out-of-order arrivals; ``pop_ready`` yields the next
    in-order item, or a skip marker once the head of line has been overdue
    for `skip_after` calls (= rounds).
    """

    def __init__(self, n_items: int, skip_after: int) -> None:
        if n_items < 1:
            raise ValueError(f"n_items must be >= 1, got {n_items}")
        if skip_after < 1:
            raise ValueError(f"skip_after must be >= 1, got {skip_after}")
        self.n_items = n_items
        self.skip_after = skip_after
        self._pending: dict[int, object] = {}
        self._next = 0
        self._stalled_rounds = 0
        self.skipped: list[int] = []

    @property
    def finished(self) -> bool:
        return self._next >= self.n_items

    def push(self, index: int, item: object) -> None:
        if 0 <= index < self.n_items and index >= self._next:
            self._pending.setdefault(index, item)

    def pop_ready(self) -> list[tuple[int, object | None]]:
        """Items now deliverable in order; None marks a skipped granule.

        Call exactly once per round: the stall counter advances here.
        """
        ready: list[tuple[int, object | None]] = []
        while self._next < self.n_items and self._next in self._pending:
            ready.append((self._next, self._pending.pop(self._next)))
            self._stalled_rounds = 0
            self._next += 1
        if self._next < self.n_items:
            self._stalled_rounds += 1
            if self._stalled_rounds > self.skip_after:
                self.skipped.append(self._next)
                ready.append((self._next, None))
                self._stalled_rounds = 0
                self._next += 1
                # Drain anything unblocked by the skip.
                while self._next < self.n_items and self._next in self._pending:
                    ready.append((self._next, self._pending.pop(self._next)))
                    self._next += 1
        return ready


class AcquisitionCore(IPCore):
    """Stage 1: streams one granule of PCM per round."""

    def __init__(
        self,
        source: PcmSource,
        psycho_tile: int,
        identity: tuple[int, int] | None = None,
    ) -> None:
        self.source = source
        self.psycho_tile = psycho_tile
        self.identity = identity
        self.sent = 0

    def on_round(self, ctx: TileContext) -> None:
        if self.sent < self.source.n_frames:
            payload = _pack_floats(
                TAG_SAMPLES, self.sent, self.source.frame(self.sent)
            )
            _stage_send(ctx, self.psycho_tile, payload, self.sent, self.identity)
            self.sent += 1

    @property
    def complete(self) -> bool:
        return self.sent >= self.source.n_frames


class PsychoCore(IPCore):
    """Stage 2: per-granule masking analysis (stateless, no resequencing)."""

    def __init__(
        self,
        mdct_tile: int,
        n_frames: int,
        granule: int = GRANULE,
        sample_rate_hz: float = SAMPLE_RATE_HZ,
        identity: tuple[int, int] | None = None,
    ) -> None:
        self.mdct_tile = mdct_tile
        self.n_frames = n_frames
        self.granule = granule
        self.identity = identity
        self.model = PsychoacousticModel(granule, sample_rate_hz)
        self.processed: set[int] = set()

    def on_receive(self, ctx: TileContext, packet: Packet) -> None:
        if len(packet.payload) < _MSG.size:
            return
        tag, index, count = _MSG.unpack(packet.payload[: _MSG.size])
        if tag != TAG_SAMPLES or index in self.processed:
            return
        samples = np.frombuffer(
            packet.payload[_MSG.size :], dtype=np.float32
        )[:count].astype(np.float64)
        if samples.size != self.granule:
            return
        analysis = self.model.analyze(samples)
        payload = _pack_floats(
            TAG_ANALYZED, index, samples, analysis.mask_energy
        )
        _stage_send(ctx, self.mdct_tile, payload, index, self.identity)
        self.processed.add(index)

    @property
    def complete(self) -> bool:
        # Stateless stages finish with the stream: anything that never
        # arrives here was lost upstream and is the resequencers' problem.
        return True


class MdctCore(IPCore):
    """Stage 3: the lapped transform — order-sensitive, resequenced."""

    def __init__(
        self,
        encoder_tile: int,
        n_frames: int,
        skip_after: int,
        granule: int = GRANULE,
        identity: tuple[int, int] | None = None,
    ) -> None:
        self.encoder_tile = encoder_tile
        self.granule = granule
        self.identity = identity
        self.mdct = Mdct(granule)
        self.resequencer = _Resequencer(n_frames, skip_after)

    def on_receive(self, ctx: TileContext, packet: Packet) -> None:
        if len(packet.payload) < _MSG.size:
            return
        tag, index, count = _MSG.unpack(packet.payload[: _MSG.size])
        if tag != TAG_ANALYZED:
            return
        data = np.frombuffer(
            packet.payload[_MSG.size :], dtype=np.float32
        )[:count].astype(np.float64)
        if data.size <= self.granule:
            return
        samples = data[: self.granule]
        mask = data[self.granule :]
        self.resequencer.push(index, (samples, mask))

    def on_round(self, ctx: TileContext) -> None:
        for index, item in self.resequencer.pop_ready():
            if item is None:
                # Lost granule: keep the lapped transform's state sane by
                # analysing silence, but send nothing downstream.
                self.mdct.analyze(np.zeros(self.granule))
                continue
            samples, mask = item
            spectrum = self.mdct.analyze(samples)
            payload = _pack_floats(TAG_SPECTRUM, index, spectrum, mask)
            _stage_send(ctx, self.encoder_tile, payload, index, self.identity)

    @property
    def complete(self) -> bool:
        return self.resequencer.finished


class EncodingCore(IPCore):
    """Stage 4: rate loop + Huffman — sequential via the bit reservoir."""

    def __init__(
        self,
        output_tile: int,
        n_frames: int,
        skip_after: int,
        bitrate_bps: int = 128_000,
        granule: int = GRANULE,
        sample_rate_hz: float = SAMPLE_RATE_HZ,
        identity: tuple[int, int] | None = None,
    ) -> None:
        self.output_tile = output_tile
        self.identity = identity
        self.granule = granule
        self.quantizer = RateLoopQuantizer(SPECTRUM_CODEC)
        self.reservoir = BitReservoir(bitrate_bps, granule, sample_rate_hz)
        self.resequencer = _Resequencer(n_frames, skip_after)
        self._band_edges = PsychoacousticModel(granule, sample_rate_hz).band_edges
        self._n_bands = len(self._band_edges) - 1

    def on_receive(self, ctx: TileContext, packet: Packet) -> None:
        if len(packet.payload) < _MSG.size:
            return
        tag, index, count = _MSG.unpack(packet.payload[: _MSG.size])
        if tag != TAG_SPECTRUM:
            return
        data = np.frombuffer(
            packet.payload[_MSG.size :], dtype=np.float32
        )[:count].astype(np.float64)
        if data.size != self.granule + self._n_bands:
            return
        self.resequencer.push(
            index, (data[: self.granule], data[self.granule :])
        )

    def on_round(self, ctx: TileContext) -> None:
        for index, item in self.resequencer.pop_ready():
            if item is None:
                continue  # lost granule: no frame, reservoir untouched
            spectrum, mask = item
            psycho = PsychoResult(
                band_energy=np.zeros(self._n_bands),
                mask_energy=mask,
                smr_db=np.zeros(self._n_bands),
                band_edges=self._band_edges,
            )
            side_info_bits = 8 * (_FRAME_HEADER.size + self._n_bands)
            budget = self.reservoir.budget_for_next_granule(side_info_bits)
            quantized = self.quantizer.quantize(spectrum, psycho, budget)
            payload_bytes, payload_bits = SPECTRUM_CODEC.encode(
                quantized.values
            )
            self.reservoir.commit(quantized.bits_used, side_info_bits)
            frame = EncodedFrame(
                frame_index=index,
                global_gain=quantized.global_gain,
                scalefactors=quantized.scalefactors,
                n_values=len(quantized.values),
                payload=payload_bytes,
                payload_bits=payload_bits,
            )
            message = _MSG.pack(TAG_FRAME, index, 0) + frame.to_bytes()
            _stage_send(ctx, self.output_tile, message, index, self.identity)

    @property
    def complete(self) -> bool:
        return self.resequencer.finished


class OutputCore(IPCore):
    """Stage 5: bitstream assembly, bit-rate monitoring, completion."""

    def __init__(self, n_frames: int, skip_after: int) -> None:
        self.n_frames = n_frames
        self.skip_after = skip_after
        self.frames: dict[int, EncodedFrame] = {}
        self.frame_arrival_round: dict[int, int] = {}
        self._stalled_rounds = 0
        self._accounted = 0

    def on_receive(self, ctx: TileContext, packet: Packet) -> None:
        if len(packet.payload) < _MSG.size:
            return
        tag, index, _ = _MSG.unpack(packet.payload[: _MSG.size])
        if tag != TAG_FRAME or index in self.frames:
            return
        try:
            frame = EncodedFrame.from_bytes(packet.payload[_MSG.size :])
        except ValueError:
            return
        self.frames[index] = frame
        self.frame_arrival_round[index] = ctx.round_index

    def on_round(self, ctx: TileContext) -> None:
        received = len(self.frames)
        if received + self._missing_accounted() >= self.n_frames:
            return
        if received > self._accounted:
            self._accounted = received
            self._stalled_rounds = 0
        else:
            self._stalled_rounds += 1

    def _missing_accounted(self) -> int:
        """Frames written off as lost once the stream has gone quiet."""
        if self._stalled_rounds > self.skip_after:
            return self.n_frames - len(self.frames)
        return 0

    @property
    def frames_received(self) -> int:
        return len(self.frames)

    @property
    def complete(self) -> bool:
        return len(self.frames) + self._missing_accounted() >= self.n_frames

    def bitstream(self) -> bytes:
        ordered = [self.frames[i] for i in sorted(self.frames)]
        return Mp3Encoder.bitstream(ordered)


@dataclass(frozen=True)
class Mp3PipelineReport:
    """Everything the MP3 experiments need from one pipeline run.

    Attributes:
        n_frames: granules in the stream.
        frames_received: frames that reached the output stage.
        frames_lost: granules that never produced an output frame.
        encoding_complete: no frame was lost (the thesis' "encoding
            finished" criterion — cf. Fig 4-10's fatal region).
        bitrate_bps: measured output bit-rate over the stream duration,
            counting only delivered frames (Fig 4-11 metric).
    """

    n_frames: int
    frames_received: int
    frames_lost: int
    encoding_complete: bool
    bitrate_bps: float


class ParallelMp3App(Application):
    """The Fig 4-7 pipeline as a deployable application.

    Args:
        n_frames: granules to encode.
        stage_tiles: the five tile ids for (acquisition, psycho, mdct,
            encoding, output); default is a diagonal-ish spread on 4x4.
        bitrate_bps: target bit-rate.
        skip_after: resequencer patience, in rounds.
        signal_kind / seed: PCM synthesis parameters.
        granule: samples per granule (downsized in tests for speed).
        replica_tiles: optional second tile per stage.  With replicas,
            inter-stage messages are broadcast under pinned identities
            (the §4.1.1 duplication trick applied to the pipeline), so
            encoding survives the crash of any one replica per stage.
            Under heavy loss the replicas\' resequencers may skip
            different granules, making identically-keyed but divergent
            emissions — a real replicated-pipeline hazard the network
            resolves by keeping whichever copy arrives first.
    """

    def __init__(
        self,
        n_frames: int = 8,
        stage_tiles: tuple[int, int, int, int, int] = (0, 5, 6, 10, 15),
        bitrate_bps: int = 128_000,
        skip_after: int = 25,
        signal_kind: str = "mixture",
        seed: int = 0,
        granule: int = GRANULE,
        sample_rate_hz: float = SAMPLE_RATE_HZ,
        replica_tiles: tuple[int, int, int, int, int] | None = None,
    ) -> None:
        if len(set(stage_tiles)) != 5:
            raise ValueError("the five stages need five distinct tiles")
        if replica_tiles is not None:
            if len(set(tuple(stage_tiles) + tuple(replica_tiles))) != 10:
                raise ValueError(
                    "duplication needs ten distinct tiles across "
                    "stage_tiles and replica_tiles"
                )
        acquisition_tile, psycho_tile, mdct_tile, enc_tile, out_tile = stage_tiles
        self.stage_tiles = stage_tiles
        self.replica_tiles = replica_tiles
        source = PcmSource(n_frames, signal_kind, seed, granule)
        self.source = source
        duplicated = replica_tiles is not None

        def identity(tag: int, primary: int) -> tuple[int, int] | None:
            # Stable per-stage id base: replicas\' packets collide on the
            # dedup key; None keeps the thesis\' plain unicast behaviour.
            return (primary, tag * 1_000_000) if duplicated else None

        self._placements: list[Placement] = []

        def add_stage(stage_index, factory):
            primary = factory()
            self._placements.append(
                Placement(stage_tiles[stage_index], primary)
            )
            twin = None
            if duplicated:
                twin = factory()
                self._placements.append(
                    Placement(replica_tiles[stage_index], twin)
                )
            return primary, twin

        self.acquisition, self._acquisition_twin = add_stage(
            0,
            lambda: AcquisitionCore(
                source, psycho_tile, identity(TAG_SAMPLES, acquisition_tile)
            ),
        )
        self.psycho, self._psycho_twin = add_stage(
            1,
            lambda: PsychoCore(
                mdct_tile,
                n_frames,
                granule,
                sample_rate_hz,
                identity(TAG_ANALYZED, psycho_tile),
            ),
        )
        self.mdct, self._mdct_twin = add_stage(
            2,
            lambda: MdctCore(
                enc_tile,
                n_frames,
                skip_after,
                granule,
                identity(TAG_SPECTRUM, mdct_tile),
            ),
        )
        self.encoding, self._encoding_twin = add_stage(
            3,
            lambda: EncodingCore(
                out_tile,
                n_frames,
                skip_after,
                bitrate_bps,
                granule,
                sample_rate_hz,
                identity(TAG_FRAME, enc_tile),
            ),
        )
        # The output\'s write-off patience must cover the worst case of a
        # frame crawling through every upstream resequencer\'s timeout, or
        # it declares in-flight frames lost and ends the run early.
        self.output, self._output_twin = add_stage(
            4, lambda: OutputCore(n_frames, 3 * skip_after)
        )
        self.n_frames = n_frames
        self.granule = granule
        self.sample_rate_hz = sample_rate_hz

    def placements(self) -> list[Placement]:
        return list(self._placements)

    def _output_views(self) -> list[OutputCore]:
        views = [self.output]
        if self._output_twin is not None:
            views.append(self._output_twin)
        return views

    def collected_frames(self) -> dict[int, EncodedFrame]:
        """The union of all output replicas\' frames (first copy wins)."""
        merged: dict[int, EncodedFrame] = {}
        for view in self._output_views():
            for index, frame in view.frames.items():
                merged.setdefault(index, frame)
        return merged

    @property
    def complete(self) -> bool:
        return any(view.complete for view in self._output_views())

    def report(self) -> Mp3PipelineReport:
        frames = self.collected_frames()
        received = len(frames)
        lost = self.n_frames - received
        duration_s = self.n_frames * self.granule / self.sample_rate_hz
        total_bits = sum(f.total_bits for f in frames.values())
        return Mp3PipelineReport(
            n_frames=self.n_frames,
            frames_received=received,
            frames_lost=lost,
            encoding_complete=lost == 0,
            bitrate_bps=total_bits / duration_s,
        )
