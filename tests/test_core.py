import dataclasses
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wifiprox.core import (
    FingerprintPair,
    ProximityClass,
    bssid_from_int,
    is_canonical_bssid,
)

from conftest import bss, make_fp


# ---------------------------------------------------------------------------
# Oracle: the hand-written canonical-form check that the regular expression
# in core.py replaced
# ---------------------------------------------------------------------------

_ORACLE_CANONICAL_RE = re.compile(r"^[0-9a-f]{2}(?::[0-9a-f]{2}){5}$")


def oracle_is_canonical_bssid(bssid):
    return len(bssid) == 17 and _ORACLE_CANONICAL_RE.match(bssid) is not None


# canonical bodies, valid octets and bare strings are drawn on purpose, so
# that about a third of the strings are canonical once stripped and
# lowercased; the other characters are separators, non-hex ASCII and
# non-ASCII (dotted I, Kelvin sign, Arabic-Indic three, fullwidth a, e acute)
# that lower() or a Unicode-aware pattern could take for hex
_HEX = "0123456789abcdefABCDEF"
_BSSID_CHARS = _HEX + "gxZ.:- \u0130\u212a\u0663\uff41\u00e9"
_WHITESPACE = st.sampled_from(["", " ", "\t", "\n", " \r\n", "\u00a0", "\u2003"])
_hex_octet = st.text(alphabet=_HEX, min_size=1, max_size=2)
_octet = st.one_of(_hex_octet, _hex_octet, _hex_octet, st.text(alphabet=_BSSID_CHARS, max_size=3))
_separated = st.lists(
    st.tuples(_octet, st.sampled_from(":-")), min_size=5, max_size=7
).map(lambda parts: "".join(o + sep for o, sep in parts[:-1]) + parts[-1][0])
_canonical = st.lists(
    st.text(alphabet=_HEX, min_size=2, max_size=2), min_size=6, max_size=6
).map(":".join)
_bare = st.one_of(
    st.text(alphabet=_HEX, min_size=12, max_size=12),
    st.text(alphabet=_BSSID_CHARS, min_size=11, max_size=13),
)
_bssid_like = st.builds(
    lambda before, body, after: before + body + after,
    _WHITESPACE,
    st.one_of(_canonical, _separated, _bare, st.text(max_size=20)),
    _WHITESPACE,
)


class TestBssid:
    @settings(max_examples=1500, deadline=None)
    @given(raw=_bssid_like)
    @example(raw=" AA-bb:CC-dd:ee-FF\n")  # mixed separators, case and whitespace
    @example(raw="0a:1b:2c:3d:4e:5f")  # canonical
    @example(raw="aa:bb:cc:dd:ee:ff\n")  # canonical once stripped
    @example(raw=":b:c:d:e:f")  # empty octet
    @example(raw="aaa:b:c:d:e:f")  # three-digit octet
    @example(raw="a:b:c:d:e")  # five octets
    @example(raw="a:b:c:d:e:f:0")  # seven octets
    @example(raw="aabbccddeef")  # bare, 11 digits
    @example(raw="AABBCCDDEEFF")
    @example(raw="aabbccddeeff0")  # bare, 13 digits
    @example(raw="aa:bb:cc:dd:ee:fg")  # non-hex
    @example(raw="aa:bb:cc:dd:ee:\uff41a")  # fullwidth a
    @example(raw="aa:bb:cc:dd:ee:\u0663a")  # Arabic-Indic three
    @example(raw="\u212aa:bb:cc:dd:ee:ff")  # Kelvin sign, lowers to k
    def test_is_canonical_matches_oracle(self, raw):
        for s in (raw, raw.strip().lower()):
            assert is_canonical_bssid(s) == oracle_is_canonical_bssid(s)

    @given(ap_id=st.integers(min_value=0, max_value=2**48 - 1))
    def test_bssid_from_int_is_canonical_and_invertible(self, ap_id):
        s = bssid_from_int(ap_id)
        assert is_canonical_bssid(s)
        assert int(s.replace(":", ""), 16) == ap_id

    def test_bssid_from_int(self):
        assert bssid_from_int(0) == "00:00:00:00:00:00"
        assert bssid_from_int(520) == "00:00:00:00:02:08"
        assert bssid_from_int(2**48 - 1) == "ff:ff:ff:ff:ff:ff"
        with pytest.raises(ValueError):
            bssid_from_int(2**48)
        with pytest.raises(ValueError):
            bssid_from_int(-1)


class TestFingerprint:
    def test_rejects_non_canonical_keys(self):
        with pytest.raises(ValueError):
            make_fp(readings={"AA:BB:CC:DD:EE:FF": -50.0})

    def test_rejects_non_finite_rssi(self):
        with pytest.raises(ValueError):
            make_fp(readings={bss(1): float("nan")})

    def test_ap_set_and_count(self):
        fp = make_fp(readings={bss(3): -40.0, bss(1): -70.0})
        assert fp.ap_count == 2
        assert fp.ap_set == {bss(1), bss(3)}

    def test_empty_readings_allowed(self):
        assert make_fp(readings={}).ap_count == 0

    def test_encoding_is_in_ascending_bssid_order(self):
        fp = make_fp(readings={bss(9): -60.0, bss(1): -50.0, bss(300): -70.0, bss(5): -40.0})
        bssids, rssi = fp.encoding
        assert bssids.tolist() == [bss(1), bss(5), bss(9), bss(300)]
        assert rssi.dtype == np.float64
        assert rssi.tolist() == [-50.0, -40.0, -60.0, -70.0]

    def test_empty_encoding_has_string_dtype(self):
        bssids, rssi = make_fp(readings={}).encoding
        assert bssids.shape == rssi.shape == (0,)
        assert bssids.dtype.kind == "U"
        assert rssi.dtype == np.float64

    def test_encoding_is_cached_and_read_only(self):
        fp = make_fp(readings={bss(2): -60.0, bss(1): -50.0})
        assert fp.encoding is fp.encoding
        for array in fp.encoding:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[1]


# two same-floor fingerprints: distinct ids of 1-3 characters (so "b" < "ba"
# and equal AP counts both come up) with 0-4 readings each
_pair_fps = st.tuples(
    st.lists(st.text("ab", min_size=1, max_size=3), min_size=2, max_size=2, unique=True),
    st.integers(0, 4),
    st.integers(0, 4),
).map(lambda t: tuple(
    make_fp(id=fp_id, readings={bss(k): -50.0 - k for k in range(1, n + 1)})
    for fp_id, n in zip(t[0], t[1:])
))


class TestPair:
    def test_canonical_order_enforced(self):
        small = make_fp(id="s", readings={bss(1): -50.0})
        big = make_fp(id="b", readings={bss(1): -50.0, bss(2): -60.0}, position=(1.0, 0.0))
        swapped = FingerprintPair(a=big, b=small, distance_m=1.0, label=ProximityClass.CLOSE)
        assert swapped.a is small and swapped.b is big
        ok = FingerprintPair(a=small, b=big, distance_m=1.0, label=ProximityClass.CLOSE)
        assert ok == swapped and ok.key == ("s", "b")

    @settings(max_examples=300, deadline=None)
    @given(fps=_pair_fps, distance=st.floats(0.0, 30.0), label=st.sampled_from(ProximityClass))
    def test_construction_is_canonical_either_way(self, fps, distance, label):
        x, y = fps
        forward = FingerprintPair(x, y, distance, label)
        assert forward == FingerprintPair(y, x, distance, label)
        first = min(fps, key=lambda fp: (fp.ap_count, fp.id))
        assert forward.a is first and forward.b is (y if first is x else x)

    def test_replace_and_pickle_keep_the_order(self):
        small = make_fp(id="z", readings={bss(1): -50.0})
        big = make_fp(id="a", position=(1.0, 0.0))
        pair = FingerprintPair(small, big, 1.0, ProximityClass.CLOSE)
        assert dataclasses.replace(pair, a=big, b=small).key == ("z", "a")
        assert pickle.loads(pickle.dumps(pair)).key == ("z", "a")

    def test_cross_floor_rejected(self):
        a = make_fp(id="a", floor=("ds", "0", "0"))
        b = make_fp(id="b", floor=("ds", "0", "1"))
        with pytest.raises(ValueError):
            FingerprintPair(a=a, b=b, distance_m=1.0, label=ProximityClass.FAR)

    def test_shared_aps_sorted(self):
        a = make_fp(id="a", readings={bss(5): -40.0, bss(1): -50.0, bss(9): -60.0})
        b = make_fp(id="b", readings={bss(9): -45.0, bss(5): -55.0})
        (a_ids, a_rssi), (b_ids, b_rssi) = a.encoding, b.encoding
        shared, ia, ib = np.intersect1d(a_ids, b_ids, assume_unique=True, return_indices=True)
        assert shared.tolist() == [bss(5), bss(9)]
        assert a_rssi[ia].tolist() == [-40.0, -60.0]
        assert b_rssi[ib].tolist() == [-55.0, -45.0]
