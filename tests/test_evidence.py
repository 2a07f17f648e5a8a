import random
import re
from datetime import datetime, timedelta, timezone
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError, available_timezones

import pytest

from watchtriage import evidence
from watchtriage.evidence import (
    DEFAULT_DISPLAY_ZONE,
    MAX_EPOCH,
    DeviceProfile,
    SourceKind,
    Timestamp,
    canonical_json_bytes,
    compute_digest,
    seal_bundle,
    verify_bundle,
)


# Wall times outside the grammar's zero-padded ASCII "YYYY-MM-DD HH:MM:SS".
MALFORMED_WALL_TIMES = [
    "2023-5-1 1:2:3",
    "2023-05-11T01:14:16",
    "1683735256",
    "2023-05-11 01:14:16 +09:00",
    "2023-05-11 01:14:16+09:00",
    "\u0662\u0660\u0662\u0663-05-11 01:14:16",  # Arabic-Indic digits
    "２０２３-05-11 01:14:16",  # full-width digits
    " 2023-05-11 01:14:16",
]


class TestTimestamp:
    def test_rejects_negative_epoch(self):
        with pytest.raises(ValueError):
            Timestamp(-1)

    def test_every_accepted_epoch_renders_in_every_zone(self):
        # Late in 9999 UTC, zones east of UTC reach year 10000, which no datetime holds.
        for zone in sorted(available_timezones()):
            assert Timestamp(MAX_EPOCH).render(zone)[:4] in ("9998", "9999"), zone
        with pytest.raises(ValueError, match=f"epoch must be between 0 and {MAX_EPOCH}, got {MAX_EPOCH + 1}"):
            Timestamp(MAX_EPOCH + 1)

    def test_render_in_default_zone(self):
        # 2023-05-11 01:14:16 KST
        assert Timestamp(1683735256).render(DEFAULT_DISPLAY_ZONE) == "2023-05-11 01:14:16 +09:00"

    def test_render_parse_round_trip(self):
        for epoch in (0, 1683735256, 1683547200, 2_000_000_000):
            t = Timestamp(epoch)
            assert Timestamp.parse(t.wall(DEFAULT_DISPLAY_ZONE), DEFAULT_DISPLAY_ZONE) == t
            assert t.render(DEFAULT_DISPLAY_ZONE).startswith(t.wall(DEFAULT_DISPLAY_ZONE) + " +")

    def test_parse_naive_uses_zone(self):
        t = Timestamp.parse("2023-05-11 01:14:16", "Asia/Seoul")
        assert t.epoch == 1683735256

    def test_other_zone_renders_offset(self):
        t = Timestamp(1683735256)
        assert t.render("UTC") == "2023-05-10 16:14:16 +00:00"

    def test_render_keeps_sub_minute_offsets(self):
        # Monrovia kept local mean time (UTC-0:44:30) until 1972.
        assert Timestamp(0).render("Africa/Monrovia") == "1969-12-31 23:15:30 -00:44:30"

    @pytest.mark.parametrize("text", MALFORMED_WALL_TIMES)
    def test_parse_rejects_text_outside_the_grammar(self, text):
        with pytest.raises(ValueError, match="YYYY-MM-DD HH:MM:SS"):
            Timestamp.parse(text, "Asia/Seoul")

    @pytest.mark.parametrize("zone", ["Asia/Seoul", "America/New_York", "Australia/Lord_Howe"])
    def test_wall_round_trips_outside_dst_folds(self, zone):
        rng = random.Random(zone)
        checked = 0
        while checked < 500:
            t = Timestamp(rng.randrange(1_600_000_000, 1_800_000_000))
            local = datetime.fromtimestamp(t.epoch, ZoneInfo(zone))
            if local.utcoffset() != local.replace(fold=1 - local.fold).utcoffset():
                continue  # a wall time a DST change repeats
            assert Timestamp.parse(t.wall(zone), zone) == t
            checked += 1

    def test_fold_wall_time_reads_as_the_earlier_instant(self):
        # 01:30 on 2023-11-05 happens twice in New York; both instants
        # render with their own offset and parse back to the first one.
        zone = "America/New_York"
        first, second = Timestamp(1699162200), Timestamp(1699165800)
        assert first.render(zone) == "2023-11-05 01:30:00 -04:00"
        assert second.render(zone) == "2023-11-05 01:30:00 -05:00"
        assert Timestamp.parse(first.wall(zone), zone) == first
        assert Timestamp.parse(second.wall(zone), zone) == first


class TestWallTimeResolver:
    """Timestamp.parse and render convert through a cached per-hour offset;
    every result must be the one the plain `datetime` expressions give."""

    @staticmethod
    def assert_render_matches(zone, epochs):
        """Each epoch rendered one by one, and by RenderedTimes from all of
        them as given, reversed, and shuffled with repeats."""
        tz = ZoneInfo(zone)
        epochs, expected = list(epochs), {}
        for epoch in epochs:
            local = datetime.fromtimestamp(epoch, tz).isoformat(" ")
            expected[epoch] = f"{local[:19]} {local[19:]}"
            assert Timestamp(epoch).render(zone) == expected[epoch], (zone, epoch)
        rng = random.Random(len(epochs))
        shuffled = epochs + rng.choices(epochs, k=len(epochs) // 2)
        rng.shuffle(shuffled)
        for order in (epochs, epochs[::-1], shuffled):
            assert evidence.RenderedTimes(zone, map(Timestamp, order)) == expected, zone

    @staticmethod
    def assert_parse_matches(zone, walls):
        tz = ZoneInfo(zone)
        for wall in walls:
            fields = int(wall[:4]), int(wall[5:7]), int(wall[8:10]), int(wall[11:13]), int(wall[14:16]), int(wall[17:])
            expected = int(datetime(*fields, tzinfo=tz).timestamp())
            assert Timestamp.parse(wall, zone).epoch == expected, (zone, wall)

    @classmethod
    def assert_matches_around_changes(cls, zone, year):
        """Every second within 2 h of each of `zone`'s offset changes in
        `year`, rendered, and every wall second those hours can show, parsed
        (the skipped and repeated ones included); the number of changes."""
        tz = ZoneInfo(zone)

        def offset(epoch):
            return datetime.fromtimestamp(epoch, tz).utcoffset()

        start = int(datetime(year, 1, 1, tzinfo=timezone.utc).timestamp())
        end = int(datetime(year + 1, 1, 1, tzinfo=timezone.utc).timestamp())
        changes = 0
        for hour in range(start, end, 3600):
            before, after = offset(hour), offset(hour + 3600)
            if before == after:
                continue
            lo, hi = hour, hour + 3600  # the change is the first epoch with the later offset
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if offset(mid) == before else (lo, mid)
            changes += 1
            cls.assert_render_matches(zone, range(hi - 7200, hi + 7200))
            naive = datetime(1970, 1, 1)
            first = int(min(before, after).total_seconds()) + hi - 7200
            last = int(max(before, after).total_seconds()) + hi + 7200
            cls.assert_parse_matches(
                zone, ((naive + timedelta(seconds=s)).isoformat(" ") for s in range(first, last))
            )
        return changes

    @pytest.mark.parametrize("zone", ["America/New_York", "Australia/Lord_Howe", "Europe/Dublin"])
    def test_every_second_around_each_2023_change(self, zone):
        # Lord_Howe shifts by 30 minutes; Dublin's winter time is its negative DST.
        assert self.assert_matches_around_changes(zone, 2023) == 2

    def test_change_from_local_mean_time(self):
        # Monrovia left UTC-0:44:30 for UTC in 1972.
        assert self.assert_matches_around_changes("Africa/Monrovia", 1972) == 1

    def test_random_epochs_in_every_zone(self):
        rng = random.Random(16)
        for zone in sorted(available_timezones()):
            epochs = [0, MAX_EPOCH, *(rng.randrange(MAX_EPOCH) for _ in range(5)),
                      *(rng.randrange(1_600_000_000, 1_800_000_000) for _ in range(5))]
            self.assert_render_matches(zone, epochs)
            self.assert_parse_matches(zone, [Timestamp(e).wall(zone) for e in epochs])

    @pytest.mark.parametrize("zone, day", [
        ("America/New_York", "2023-03-12"),
        ("America/New_York", "2023-11-05"),
        ("Australia/Lord_Howe", "2023-04-02"),
        ("Australia/Lord_Howe", "2023-10-01"),
        ("Asia/Kolkata", "2023-05-11"),
        ("Asia/Kathmandu", "2023-05-11"),
        # Seoul's local mean time ended in 1908, before any Timestamp;
        # Monrovia kept its -00:44:30 until 1972.
        ("Africa/Monrovia", "1970-01-01"),
    ])
    def test_every_hour_of_a_day_renders_as_datetime(self, zone, day):
        # Every UTC hour that meets the local day, at the seconds where an
        # offset of whole, half or quarter hours turns the local hour, and
        # every 150 s between. A half- or quarter-hour offset spreads one
        # UTC hour over two local hours.
        midnight = int(datetime.fromisoformat(day).replace(tzinfo=timezone.utc).timestamp())
        seconds = sorted({*range(0, 3600, 150), 1, 59, 60, 899, 900, 1799, 1800, 2699, 2700, 3599})
        hours = range(max(0, midnight - 15 * 3600), midnight + 39 * 3600, 3600)
        self.assert_render_matches(zone, [hour + s for hour in hours for s in seconds])

    def test_more_hours_than_the_caches_hold(self):
        # One instant in each of more distinct hours than a cache holds, then
        # the earliest again, after the caches have evicted it.
        zone = "America/New_York"
        hours = evidence._render_hour.cache_info().maxsize + 100
        epochs = list(range(1_600_000_000, 1_600_000_000 + 3600 * hours, 3600))
        walls = [Timestamp(e).wall(zone) for e in epochs]
        self.assert_render_matches(zone, epochs)
        self.assert_parse_matches(zone, walls)
        for cached in (evidence._render_hour, evidence._wall_hour_start):
            assert cached.cache_info().currsize == cached.cache_info().maxsize
        self.assert_render_matches(zone, epochs[:100])
        self.assert_parse_matches(zone, walls[:100])

    @pytest.mark.parametrize("zone", ["UTC", "America/New_York", "Pacific/Kiritimati", "Asia/Kathmandu"])
    def test_range_ends_read_alike_whole_and_in_parts(self, zone):
        # The wall times of epoch 0 and MAX_EPOCH read back, and a second
        # beyond either is refused, whether the text is read whole or its
        # hour through a dump's table of hour starts.
        for epoch, step in ((0, -1), (MAX_EPOCH, 1)):
            wall = Timestamp(epoch).wall(zone)
            beyond = (datetime.fromisoformat(wall) + timedelta(seconds=step)).isoformat(" ")
            assert Timestamp.parse(wall, zone).epoch == epoch
            with pytest.raises(ValueError, match="epoch must be between"):
                Timestamp.parse(beyond, zone)
            # The table settles no hour that reaches beyond.
            starts = evidence.WallHours(zone)
            start = starts[wall[:13]]
            assert start is None or start + 60 * int(wall[14:16]) + int(wall[17:]) == epoch
            assert starts[beyond[:13]] is None and set(starts) == {wall[:13], beyond[:13]}

    @pytest.mark.parametrize("zone", ["UTC", "Asia/Kathmandu", "America/New_York"])
    def test_rendered_times_refuse_the_first_epoch_out_of_range(self, zone):
        # Timestamps built without their check, as RenderedTimes may be given.
        orders = [[5, MAX_EPOCH + 1, -1], [5, -1, MAX_EPOCH + 1], [MAX_EPOCH, MAX_EPOCH + 1, 0], [0, 1, -1, 2],
                  [MAX_EPOCH + 3600, 7, -3600], [-3600, 7]]
        for order in orders:
            first = next(epoch for epoch in order if not 0 <= epoch <= MAX_EPOCH)
            with pytest.raises(ValueError, match=f"epoch must be between 0 and {MAX_EPOCH}, got {first}$"):
                evidence.RenderedTimes(zone, [tuple.__new__(Timestamp, (epoch,)) for epoch in order])
        times = evidence.RenderedTimes(zone, [Timestamp(0), Timestamp(MAX_EPOCH)])
        for epoch in (-1, MAX_EPOCH + 1):
            with pytest.raises(ValueError, match=f"got {epoch}$"):
                times[epoch]
        assert list(times) == [0, MAX_EPOCH]

    def test_format_error_comes_before_the_zone_lookup(self):
        # Text outside the grammar is refused before an unknown zone is looked up.
        with pytest.raises(ValueError, match=r"is not YYYY-MM-DD HH:MM:SS"):
            Timestamp.parse("2023-03-12 02:30:٣0", "Not/AZone")
        with pytest.raises(ZoneInfoNotFoundError):
            Timestamp.parse("2023-03-12 02:30:30", "Not/AZone")

    def test_mutated_wall_texts_read_as_the_datetime_expression(self):
        # Each mutated text and zone gives the plain expression's epoch, or
        # its exception type and message.
        wall_re = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2}) ([0-9]{2}):([0-9]{2}):([0-9]{2})")

        def outcome(parse, text, zone):
            try:
                return parse(text, zone)
            except (KeyError, ValueError) as exc:
                return type(exc), str(exc)

        def expected(text, zone):
            m = wall_re.fullmatch(text)
            if m is None:
                raise ValueError(f"wall time {text!r} is not YYYY-MM-DD HH:MM:SS")
            return Timestamp(int(datetime(*map(int, m.groups()), tzinfo=ZoneInfo(zone)).timestamp()))

        rng = random.Random(17)
        zones = ["Asia/Seoul", "America/New_York", "Australia/Lord_Howe", "Africa/Monrovia", "UTC",
                 "Not/AZone", "", "/Asia/Seoul"]
        bases = ["2023-03-12 02:30:30", "2023-11-05 01:30:00", "2023-02-28 23:59:59", "0001-01-01 00:00:00",
                 "9999-12-31 23:59:59", "1972-01-07 00:44:29"]
        bases += [Timestamp(rng.randrange(MAX_EPOCH)).wall("UTC") for _ in range(20)]
        alphabet = "0123456789:- 6٣２²x"
        for _ in range(3000):
            chars = list(rng.choice(bases))
            for _ in range(rng.randrange(1, 3)):
                where, kind = rng.randrange(len(chars)), rng.randrange(4)
                if kind == 0:
                    chars[where] = rng.choice(alphabet)
                elif kind == 1 and where + 1 < len(chars):  # move a character one place right
                    chars[where], chars[where + 1] = chars[where + 1], chars[where]
                elif kind == 2:
                    del chars[where]
                else:
                    chars.insert(where, rng.choice(alphabet))
            text, zone = "".join(chars), rng.choice(zones)
            assert outcome(Timestamp.parse, text, zone) == outcome(expected, text, zone), (text, zone)


def _seal(*payloads, epoch=1683766560):
    """The bundle sealed from (source kind, raw bytes) pairs, each labelled by its kind's value
    unless a third element names the label."""
    captured = [(label[0] if label else kind.value, kind, raw, epoch) for kind, raw, *label in payloads]
    return seal_bundle(captured, "watch", DEFAULT_DISPLAY_ZONE)


class TestTimeBucket:
    def test_contains_half_open(self, bucket_join):
        st = 1683547200
        _, joined, leased = bucket_join(st, 3600, [st - 1, st, st + 3599, st + 3600])
        assert joined == leased == [st, st + 3599]


class TestSealBundle:
    def test_single_item_deterministic(self):
        bundle = _seal((SourceKind.USAGESTATS, b"DUMP OF SERVICE usagestats:\n"))
        assert len(bundle.items) == 1
        recomputed = compute_digest(canonical_json_bytes(bundle.manifest_document()))
        assert recomputed == bundle.bundle_manifest_digest

    def test_same_payloads_same_digest(self):
        b1 = _seal((SourceKind.NETSTATS, b"payload"))
        b2 = _seal((SourceKind.NETSTATS, b"payload"))
        assert b1.bundle_manifest_digest == b2.bundle_manifest_digest

    def test_empty_bundle_rejected(self):
        with pytest.raises(ValueError, match="every acquisition step failed; nothing to seal"):
            _seal()

    def test_duplicate_kind_origin_time_rejected(self):
        with pytest.raises(ValueError, match="duplicate evidence item"):
            _seal((SourceKind.GETPROP, b"11\n", "android_version"), (SourceKind.GETPROP, b"armeabi-v7a\n", "cpu_abi"))

    def test_permuting_items_changes_digest(self):
        a, b = (SourceKind.USAGESTATS, b"a"), (SourceKind.NETSTATS, b"b")
        assert _seal(a, b).bundle_manifest_digest != _seal(b, a).bundle_manifest_digest

    def test_device_profile_included_in_manifest(self):
        # Labels are not in the manifest: the same items, with and without a profile.
        b1 = _seal((SourceKind.GETPROP, b"armeabi-v7a\n", "cpu_abi"))
        b2 = _seal((SourceKind.GETPROP, b"armeabi-v7a\n", "abi"))
        assert b1.items == b2.items
        assert (b1.device, b2.device) == (DeviceProfile(cpu_abi="armeabi-v7a"), None)
        assert b1.bundle_manifest_digest != b2.bundle_manifest_digest


class TestVerifyBundle:
    def _bundle(self):
        bundle = _seal(
            (SourceKind.NETWORK_STACK, b"lease log"),
            (SourceKind.NETSTATS, b"traffic"),
            (SourceKind.USAGESTATS, b"events"),
        )
        return bundle, dict(bundle.payloads)

    def test_untampered_passes(self):
        bundle, payloads = self._bundle()
        result = verify_bundle(bundle, payloads)
        assert result.overall_pass
        assert [r.status for r in result.results] == ["pass"] * 3

    def test_single_altered_payload_fails_only_that_item(self):
        bundle, payloads = self._bundle()
        key = bundle.items[1].key()
        mutated = bytearray(payloads[key])
        mutated[0] ^= 0xFF
        payloads[key] = bytes(mutated)
        result = verify_bundle(bundle, payloads)
        statuses = {r.item_key: r.status for r in result.results}
        assert statuses[key] == "fail"
        assert [s for k, s in statuses.items() if k != key] == ["pass", "pass"]
        assert not result.overall_pass

    def test_empty_stored_bytes_reports_all_missing(self):
        bundle, _ = self._bundle()
        result = verify_bundle(bundle, {})
        assert [r.status for r in result.results] == ["missing"] * 3
        assert not result.overall_pass

    def test_every_item_listed_exactly_once(self):
        bundle, payloads = self._bundle()
        result = verify_bundle(bundle, payloads)
        assert sorted(r.item_key for r in result.results) == sorted(i.key() for i in bundle.items)


def test_seal_verify_round_trip_over_simulated_bundles():
    # verify(seal(X), X) passes for generated evidence across seeds
    from watchtriage import simulator

    for seed in range(12):
        scenario = simulator.random_scenario(seed)
        texts = simulator.render_dumps(scenario)
        kinds = (SourceKind.USAGESTATS, SourceKind.NETSTATS, SourceKind.NETWORK_STACK)
        bundle = _seal(*((kind, text.encode()) for kind, text in zip(kinds, texts)), epoch=scenario.capture_time)
        assert verify_bundle(bundle, bundle.payloads).overall_pass
        assert list(bundle.payloads.values()) == [text.encode() for text in texts]


def test_canonical_json_is_byte_stable():
    doc = {"b": 1, "a": [2, {"z": "ü", "y": None}]}
    assert canonical_json_bytes(doc) == canonical_json_bytes({"a": [2, {"y": None, "z": "ü"}], "b": 1})
    assert b" " not in canonical_json_bytes(doc)
