import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qimrot.neqr import ImageFormatError, NEQRImage, Terms, decode, encode
from qimrot.pgm import read_pgm, write_pgm

from rasters import columns


def make_terms(y, x, color):
    return Terms(np.array(y, dtype=np.int64), np.array(x, dtype=np.int64),
                 np.array(color, dtype=np.uint8))


class TestCodec:
    def test_all_zero_2x2(self):
        img = encode(np.zeros((2, 2), dtype=np.uint8))
        assert columns(img.terms()) == ([0, 0, 1, 1], [0, 1, 0, 1], [0, 0, 0, 0])

    def test_2x2_term_set(self):
        img = encode(np.array([[0, 100], [200, 255]]))
        assert columns(img.terms()) == ([0, 0, 1, 1], [0, 1, 0, 1], [0, 100, 200, 255])
        assert np.array_equal(decode(img), [[0, 100], [200, 255]])

    def test_single_pixel_image(self):
        img = encode(np.array([[42]]))
        assert img.n == 0
        assert columns(img.terms()) == ([0], [0], [42])

    def test_all_255_round_trip(self):
        r = np.full((8, 8), 255, dtype=np.uint8)
        assert np.array_equal(decode(encode(r)), r)

    @settings(max_examples=100, deadline=None)
    @given(arrays(dtype=np.uint8, shape=st.sampled_from([(1, 1), (2, 2), (4, 4), (8, 8)])))
    def test_round_trip_identity(self, raster):
        assert np.array_equal(decode(encode(raster)), raster)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_term_count_is_4_to_the_n(self, n):
        side = 1 << n
        img = encode(np.zeros((side, side), dtype=np.uint8))
        assert len(img.terms()) == 4 ** n

    def test_rejects_non_square(self):
        with pytest.raises(ImageFormatError):
            encode(np.zeros((2, 4), dtype=np.uint8))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ImageFormatError):
            encode(np.zeros((3, 3), dtype=np.uint8))

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ImageFormatError):
            encode(np.array([[0, 300], [0, 0]]))
        with pytest.raises(ImageFormatError):
            encode(np.array([[-1, 0], [0, 0]]))
        # a float raster is checked before any int cast, which would warn
        cases = [(2.5, "must be integers"), (-0.5, "must be integers"),
                 (float("nan"), "must be integers"), (float("inf"), "must be integers"),
                 (-float("inf"), "must be integers"), (300.0, r"must lie in \[0, 255\]"),
                 (-1.0, r"must lie in \[0, 255\]"), (2.0**63, r"must lie in \[0, 255\]"),
                 (1e30, r"must lie in \[0, 255\]")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value, message in cases:
                with pytest.raises(ImageFormatError, match=f"^pixel values {message}$"):
                    encode(np.array([[0.0, value], [0.0, 0.0]]))
            for whole in ([[0.0, 255.0], [1.0, 2.0]], np.array([[0, 255], [1, 2]], dtype=object)):
                assert np.array_equal(decode(encode(np.array(whole))), [[0, 255], [1, 2]])

    def test_from_terms_clips(self):
        img = NEQRImage.from_terms(1, make_terms([0, 0, -1], [0, 5, 1], [9, 7, 8]))
        assert np.array_equal(decode(img), [[9, 0], [0, 0]])


class TestTerms:
    def test_columns_are_row_major_int64(self):
        img = encode(np.array([[5, 6], [7, 8]], dtype=np.uint8))
        terms = img.terms(offset=3)
        assert len(terms) == 4
        assert terms.y.dtype == terms.x.dtype == np.int64
        assert terms.color.dtype == np.uint8  # NEQR's 8-bit color register
        assert terms.y.tolist() == [3, 3, 4, 4]
        assert terms.x.tolist() == [3, 4, 3, 4]
        assert terms.color.tolist() == [5, 6, 7, 8]

    @pytest.mark.parametrize("dtype", [np.int32, np.int16, np.uint8])
    def test_narrow_integer_coordinates_are_widened(self, dtype):
        y, x = np.array([0, 1, 1, 2], dtype=dtype), np.array([1, 0, 2, 0], dtype=dtype)
        terms = Terms(y, x, np.array([7, 8, 9, 6], dtype=np.uint8))
        assert terms.y.dtype == terms.x.dtype == np.int64
        assert columns(terms.clip(1)) == ([0, 1], [1, 0], [7, 8])
        assert np.array_equal(decode(NEQRImage.from_terms(1, terms)), [[0, 7], [8, 0]])

    def test_int32_clip_drops_negative_coordinates(self):
        y, x = np.array([-1, 0, 1], dtype=np.int32), np.array([0, -2, 1], dtype=np.int32)
        kept = Terms(y, x, np.array([3, 4, 5], dtype=np.uint8)).clip(1)
        assert columns(kept) == ([1], [1], [5])

    @pytest.mark.parametrize("dtype", [np.uint64, np.float64])
    def test_coordinates_int64_cannot_hold_exactly_are_refused(self, dtype):
        with pytest.raises(TypeError):
            Terms(np.zeros(2, dtype=dtype), np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.uint8))
        with pytest.raises(TypeError):
            Terms(np.zeros(2, dtype=np.int64), np.zeros(2, dtype=dtype), np.zeros(2, dtype=np.uint8))

    def test_clip_keeps_in_frame_terms_in_order(self):
        mixed = make_terms([1, -1, 0, 0, 2], [1, 0, 2, 0, 1], [1, 2, 3, 4, 5])
        assert columns(mixed.clip(1)) == ([1, 0], [1, 0], [1, 4])

    def test_clipped_terms_are_not_masked_again(self):
        mixed = make_terms([1, -1], [1, 0], [1, 2])
        kept = mixed.clip(1)
        assert kept.clip(1) is kept and kept.clip(2) is kept
        assert len(kept.clip(0)) == 0
        assert mixed.frame is None  # clipping leaves its input as it was


class TestPgm:
    @pytest.mark.parametrize("binary", [True, False], ids=["P5", "P2"])
    def test_round_trip(self, tmp_path, binary):
        rng = np.random.default_rng(3)
        raster = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
        path = str(tmp_path / "img.pgm")
        write_pgm(path, raster, binary=binary)
        assert np.array_equal(read_pgm(path), raster)

    def test_p2_with_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_text("P2\n# a comment\n2 2\n255\n0 1\n2 3\n")
        assert np.array_equal(read_pgm(str(path)), [[0, 1], [2, 3]])

    def test_rejects_wrong_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_text("P2\n2 2\n15\n0 1 2 3\n")
        with pytest.raises(ImageFormatError):
            read_pgm(str(path))

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_text("P6\n2 2\n255\nxxxx")
        with pytest.raises(ImageFormatError):
            read_pgm(str(path))

    def test_rejects_truncated_p5(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\nshort")
        with pytest.raises(ImageFormatError):
            read_pgm(str(path))

    def test_rejects_sample_out_of_range(self, tmp_path):
        path = tmp_path / "r.pgm"
        path.write_text("P2\n2 2\n255\n0 1 2 999\n")
        with pytest.raises(ImageFormatError):
            read_pgm(str(path))

    @pytest.mark.parametrize("sample", ["99999999999999999999999", "-99999999999999999999999"])
    def test_rejects_sample_beyond_int64(self, tmp_path, sample):
        path = tmp_path / "r.pgm"
        path.write_text(f"P2\n2 1\n255\n0 {sample}\n")
        with pytest.raises(ImageFormatError, match=r"sample outside \[0, 255\]"):
            read_pgm(str(path))

    @pytest.mark.parametrize("sample", ["1_0", "+5", "-0"])
    def test_rejects_non_decimal_sample(self, tmp_path, sample):
        # Python's int() reads these as 10, 5 and 0; a Netpbm number is digits only
        path = tmp_path / "s.pgm"
        path.write_text(f"P2\n2 1\n255\n0 {sample}\n")
        with pytest.raises(ImageFormatError, match="non-decimal sample"):
            read_pgm(str(path))

    @pytest.mark.parametrize("header", ["+2 2 255", "2 0_2 255", "2 2 2_55", "2 -0 255"])
    def test_rejects_non_decimal_header(self, tmp_path, header):
        path = tmp_path / "h.pgm"
        path.write_bytes(f"P5\n{header}\n".encode() + bytes(4))
        with pytest.raises(ImageFormatError, match="malformed PGM header"):
            read_pgm(str(path))

    def test_non_power_of_two_file_rejected_at_encode(self, tmp_path):
        path = str(tmp_path / "odd.pgm")
        write_pgm(path, np.zeros((3, 3), dtype=np.uint8))
        with pytest.raises(ImageFormatError):
            encode(read_pgm(path))
