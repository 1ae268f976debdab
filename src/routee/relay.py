"""Adversarial message relay.

The relay models the untrusted host forwarding traffic between clients and
the hub. It can drop, delay, duplicate, and reorder envelope frames according
to a seeded schedule, and it records every byte it sees so tests can prove
nothing readable leaks. Handshake and public-data frames pass through
untouched: the schedule targets established-session envelopes.
"""

from __future__ import annotations

import random

from .wire import FRAME_ENVELOPE, plain, unpack_frame


@plain
class RelaySchedule:
    seed: int = 0
    p_drop: float = 0.0
    p_duplicate: float = 0.0
    p_reorder: float = 0.0
    # a reordered/delayed frame is held back for up to this many later frames
    max_hold: int = 2


class Relay:
    """Applies a schedule to a stream of frames. feed() returns the frames to
    deliver now (possibly none, possibly several); flush() releases anything
    still held back."""

    def __init__(self, schedule: RelaySchedule):
        self.schedule = schedule
        self.rng = random.Random(schedule.seed)
        self.observed: list[bytes] = []
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0
        self._held: list[tuple[int, bytes]] = []  # (release countdown, frame)

    def _tick_held(self) -> list[bytes]:
        out = []
        keep = []
        for countdown, frame in self._held:
            if countdown <= 1:
                out.append(frame)
            else:
                keep.append((countdown - 1, frame))
        self._held = keep
        return out

    def feed(self, frame: bytes) -> list[bytes]:
        self.observed.append(frame)
        frame_type, _ = unpack_frame(frame)
        released = self._tick_held()
        if frame_type != FRAME_ENVELOPE:
            return released + [frame]
        sched = self.schedule
        if self.rng.random() < sched.p_drop:
            self.dropped += 1
            return released
        if self.rng.random() < sched.p_reorder:
            self.reordered += 1
            hold = self.rng.randint(1, sched.max_hold)
            self._held.append((hold, frame))
            return released
        if self.rng.random() < sched.p_duplicate:
            self.duplicated += 1
            return released + [frame, frame]
        return released + [frame]

    def flush(self) -> list[bytes]:
        out = [frame for _, frame in self._held]
        self._held = []
        return out

    def observed_bytes(self) -> bytes:
        return b"".join(self.observed)
