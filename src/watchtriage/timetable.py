"""The time table: how one zone reads and writes the wall times of one dump
or one output document.

`Timestamp.parse`, `render` and `wall` are the one definition of wall time,
and each builds a one-off table; the parsers, `correlate`, `report` and
`simulator` build one table per dump or document and share it. Only the
commands that read or write a wall time import this module, so `verify`
never compiles it.
"""

from __future__ import annotations

import re
from datetime import date, datetime
from operator import attrgetter
from typing import Iterable, Optional
from zoneinfo import ZoneInfo

from .evidence import MAX_EPOCH, Timestamp, _check_epoch

# The one wall-clock text form: zero-padded ASCII "YYYY-MM-DD HH:MM:SS".
_WALL_RE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2}) ([0-9]{2}):([0-9]{2}):([0-9]{2})")


def _datetime_epoch(text: str, zone: str) -> int:
    """The epoch `datetime` gives for the wall time `text` in `zone`."""
    m = _WALL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"wall time {text!r} is not YYYY-MM-DD HH:MM:SS")
    local = datetime(*map(int, m.groups()), tzinfo=ZoneInfo(zone))
    return int(local.timestamp())


_EPOCH = attrgetter("epoch")
_DAY = 86400
_LAST_DAY = MAX_EPOCH // _DAY  # the range is whole UTC days, 0 to this one
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_TWO_DIGITS = tuple(f"{n:02d}" for n in range(60))
TWO_DIGIT_VALUES = {text: n for n, text in enumerate(_TWO_DIGITS)}


class TimeTable(dict):
    """How `zone` reads and writes the wall times of one dump or one output
    document. As a dict it maps epoch -> what `Timestamp(epoch).render(zone)`
    gives, so an instant shown twice is rendered once: the `instants` given,
    and the epochs given to `add`, are rendered up front, and any other
    epoch at its first lookup. Either way, an epoch out of Timestamp's range
    raises Timestamp's ValueError, the first such one in the order given.
    `hours` maps each "YYYY-MM-DD HH" wall hour `hour_start` has settled to
    its start, or None, and `dates` each local day rendered to its
    "YYYY-MM-DD " text.

    Both rest on the zone's offset segments, each (UTC start, end, offset in
    seconds, " +HH:MM[:SS]" suffix), filled one UTC day at a time as
    instants and wall times reach it. A day is probed at its first and last
    second and bisected to the second its offset changes only where the two
    differ: at and after epoch 0, no installed zone changes its offset
    twice within 86,400 s (the closest two, America/Cambridge_Bay's in
    2000, lie 597,600 s apart; tests/test_evidence.py checks every zone).
    Every result is the one the plain `datetime` expressions give."""

    __slots__ = ("zone", "_segments", "dates", "hours")

    def __init__(self, zone: str, instants: Iterable[Timestamp] = ()):
        self.zone = zone
        self._segments: dict[int, tuple[tuple[int, int, int, str], ...]] = {}  # UTC day -> its segments
        self.dates: dict[int, str] = {}  # local day (days after 1970-01-01) -> "YYYY-MM-DD "
        self.hours: dict[str, Optional[int]] = {}  # "YYYY-MM-DD HH" -> hour_start's result
        self.add(map(_EPOCH, instants))

    def segment(self, epoch: int) -> tuple[int, int, int, str]:
        """The segment that holds `epoch`; it lies within one UTC day."""
        segments = self._day(epoch // _DAY)
        return segments[-1] if epoch >= segments[-1][0] else segments[0]

    def _day(self, day: int) -> tuple[tuple[int, int, int, str], ...]:
        """The segments of UTC day `day`, in time order: one, or two around a change."""
        segments = self._segments.get(day)
        if segments is not None:
            return segments
        tz = ZoneInfo(self.zone)
        start, end = day * _DAY, (day + 1) * _DAY
        first = datetime.fromtimestamp(start, tz)
        before = first.utcoffset()
        if datetime.fromtimestamp(end - 1, tz).utcoffset() == before:
            segments = (_segment(start, end, first),)
        else:
            lo, hi = start, end - 1  # the change is the first second with the later offset
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if datetime.fromtimestamp(mid, tz).utcoffset() == before else (lo, mid)
            segments = (_segment(start, hi, first), _segment(hi, end, datetime.fromtimestamp(hi, tz)))
        self._segments[day] = segments
        return segments

    def epoch(self, local: int) -> Optional[int]:
        """The fold=0 instant of the wall time `local` seconds after
        1970-01-01 00:00: the first that lands in its own segment when the
        segment's offset is subtracted, the earlier in a repeated hour; in
        a skipped hour, the one the pre-change offset gives. None more than a
        day outside the range's days, where no instant in range has it."""
        day = local // _DAY
        if not -1 <= day <= _LAST_DAY + 1:
            return None
        # An offset is less than a day, so each instant the wall time
        # denotes lies in a segment of these days, in time order.
        for near in (day - 1, day, day + 1):
            for start, end, offset, _ in self._day(near):
                if start <= local - offset < end:
                    return local - offset
        segments = self._day(day - 1) + self._day(day) + self._day(day + 1)
        return next(local - before for (_, change, before, _), (_, _, after, _) in zip(segments, segments[1:])
                    if local - after < change <= local - before)

    def hour_start(self, hour: str) -> Optional[int]:
        """The fold=0 epoch of the 13-character wall time `hour` ("YYYY-MM-DD
        HH") at :00:00, when its :59:59 lies exactly 3,599 s later, so that
        every second of the wall hour reads with one offset, and no second
        of it lies outside `0..MAX_EPOCH`; None otherwise, for a date or hour
        that does not exist, and for text that is not that form in ASCII
        digits. Either is kept in `hours`. A start plus `60 * minute +
        second`, each a TWO_DIGIT_VALUES value, is the epoch `parse` gives,
        and always one Timestamp takes."""
        local = _local_seconds(hour + ":00:00")
        start = None if local is None else self.epoch(local)
        if start is None or not 0 <= start <= MAX_EPOCH - 3599 or self.epoch(local + 3599) != start + 3599:
            start = None
        self.hours[hour] = start
        return start

    def parse(self, text: str) -> Timestamp:
        """The Timestamp `Timestamp.parse(text, zone)` gives, and its
        ValueError: through the start of the text's hour where it has one,
        and through the segments otherwise."""
        if len(text) == 19 and text[13] == text[16] == ":":
            minutes, seconds = TWO_DIGIT_VALUES.get(text[14:16]), TWO_DIGIT_VALUES.get(text[17:])
            if minutes is not None and seconds is not None:
                hour, hours = text[:13], self.hours
                start = hours[hour] if hour in hours else self.hour_start(hour)
                if start is not None:  # every second of the hour is in range
                    return tuple.__new__(Timestamp, (start + 60 * minutes + seconds,))
        local = _local_seconds(text)
        epoch = None if local is None else self.epoch(local)
        if epoch is not None and 0 <= epoch <= MAX_EPOCH:
            return tuple.__new__(Timestamp, (epoch,))
        # Text outside the form, a date or time no calendar has, or an
        # instant out of range: the error `datetime` and Timestamp give.
        return Timestamp(_datetime_epoch(text, self.zone))

    def add(self, epochs: Iterable[int]) -> None:
        """Render `epochs` in one pass, which adds the offset and finds the
        local day's "YYYY-MM-DD " text once per run of epochs inside one
        local day of one segment, and writes each epoch's time of day with
        integer arithmetic."""
        segment, dates, two_digits = self.segment, self.dates, _TWO_DIGITS
        start = end = first = last = 0  # the current run, inside the current segment
        for epoch in epochs:
            if not start <= epoch < end:
                if not first <= epoch < last:
                    _check_epoch(epoch)  # a segment lies within one day of the range, so one epoch checks it
                    first, last, offset, suffix = segment(epoch)
                day = (epoch + offset) // _DAY
                date_text = dates.get(day)
                if date_text is None:
                    date_text = dates[day] = date.fromordinal(_EPOCH_ORDINAL + day).isoformat() + " "
                base = day * _DAY - offset  # the instant the local day starts
                start, end = max(base, first), min(base + _DAY, last)
            minute, second = divmod(epoch - base, 60)
            hour, minute = divmod(minute, 60)
            self[epoch] = f"{date_text}{two_digits[hour]}:{two_digits[minute]}:{two_digits[second]}{suffix}"

    def __missing__(self, epoch: int) -> str:
        self.add((epoch,))
        return self[epoch]


def _segment(start: int, end: int, local: datetime) -> tuple[int, int, int, str]:
    """The segment from `start` to `end` with the offset of `local`, the first instant's wall time."""
    return start, end, int(local.utcoffset().total_seconds()), " " + local.isoformat(" ")[19:]


def _local_seconds(text: str) -> Optional[int]:
    """Seconds after 1970-01-01 00:00 of the wall time `text`; None for text
    outside the fixed-width form and for a date or time no calendar has."""
    m = _WALL_RE.fullmatch(text)
    if m is None:
        return None
    year, month, day, hour, minute, second = map(int, m.groups())
    try:
        days = date(year, month, day).toordinal() - _EPOCH_ORDINAL
    except ValueError:
        return None
    return days * _DAY + 3600 * hour + 60 * minute + second if hour < 24 and minute < 60 and second < 60 else None
