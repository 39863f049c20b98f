import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qimrot.neqr import ImageFormatError, NEQRImage, Terms, decode, encode, paint
from qimrot.pgm import read_pgm, write_pgm

from rasters import columns


def make_terms(y, x, color):
    return Terms(np.array(y, dtype=np.int64), np.array(x, dtype=np.int64),
                 np.array(color, dtype=np.uint8))


def painted(n, terms):
    """The terms ``paint`` keeps in the 2^n frame, and the raster it paints."""
    canvas = np.zeros(1 << 2 * n, dtype=np.uint8)
    kept = paint(canvas, n, terms)
    return kept, canvas.reshape(1 << n, 1 << n)


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
        assert columns(painted(1, terms)[0]) == ([0, 1], [1, 0], [7, 8])
        assert np.array_equal(decode(NEQRImage.from_terms(1, terms)), [[0, 7], [8, 0]])

    def test_int32_clip_drops_negative_coordinates(self):
        y, x = np.array([-1, 0, 1], dtype=np.int32), np.array([0, -2, 1], dtype=np.int32)
        kept, raster = painted(1, Terms(y, x, np.array([3, 4, 5], dtype=np.uint8)))
        assert columns(kept) == ([1], [1], [5])
        assert np.array_equal(raster, [[0, 0], [0, 5]])

    @pytest.mark.parametrize("dtype", [np.uint64, np.float64])
    def test_coordinates_int64_cannot_hold_exactly_are_refused(self, dtype):
        with pytest.raises(TypeError):
            Terms(np.zeros(2, dtype=dtype), np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.uint8))
        with pytest.raises(TypeError):
            Terms(np.zeros(2, dtype=np.int64), np.zeros(2, dtype=dtype), np.zeros(2, dtype=np.uint8))

    def test_clip_keeps_in_frame_terms_in_order(self):
        """``paint`` returns the in-frame terms in their order, leaves its
        input as it was, and a smaller frame drops every term outside it."""
        mixed = make_terms([1, -1, 0, 0, 2], [1, 0, 2, 0, 1], [1, 2, 3, 4, 5])
        before = columns(mixed)
        kept, raster = painted(1, mixed)
        assert columns(kept) == ([1, 0], [1, 0], [1, 4])
        assert np.array_equal(raster, [[4, 0], [0, 1]])
        assert columns(mixed) == before
        assert columns(painted(1, kept)[0]) == columns(kept)
        corner, _ = painted(1, make_terms([1, -1], [1, 0], [1, 2]))
        assert columns(corner) == ([1], [1], [1])
        none, dot = painted(0, corner)
        assert len(none) == 0 and not dot.any()

    @pytest.mark.parametrize("y, x, color", [([0], [0, 1], [5]), ([0, 1], [0], [5, 6]),
                                             ([0, 1], [0, 1], [5]), ([[0], [1]], [0, 1], [5, 6])],
                             ids=["x", "y", "color", "2d"])
    def test_columns_not_1d_or_not_of_one_length_are_refused(self, y, x, color):
        """The odd column out, whichever it is, is refused and named by its
        shape before ``paint`` or ``from_terms`` could index past it."""
        with pytest.raises(ValueError, match="^term columns y, x and color must be 1-D") as info:
            make_terms(y, x, color)
        assert str(info.value).endswith(f"got {np.shape(y)}, {np.shape(x)} and {np.shape(color)}")

    def test_inside_is_the_in_frame_mask(self):
        terms = make_terms([0, -1, 3, 1, 4, 0], [3, 0, 3, -5, 0, 2**62], [1, 2, 3, 4, 5, 6])
        assert terms.inside(2).tolist() == [True, False, True, False, False, False]
        assert terms.inside(3).tolist() == [True, False, True, False, True, False]

    @pytest.mark.parametrize("color", [[300], [-1], [2.7], [1 + 1j]],
                             ids=["300", "-1", "2.7", "complex"])
    def test_colors_outside_the_register_are_refused(self, color):
        with pytest.raises(ImageFormatError, match="^pixel values must"):
            Terms(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), np.array(color))

    def test_in_range_int64_colors_paint_as_uint8_ones(self):
        y, x, color = [0, 0, 1, 1], [0, 1, 0, 1], [0, 100, 200, 255]
        wide = Terms(np.array(y), np.array(x), np.array(color, dtype=np.int64))
        assert wide.color.dtype == np.uint8
        narrow = make_terms(y, x, color)
        assert NEQRImage.from_terms(1, wide) == NEQRImage.from_terms(1, narrow)


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


class TestPixelValueCheck:
    """``encode`` and ``write_pgm`` share one check of a raster's values."""

    @pytest.mark.parametrize("raster", [np.array([[1, 2], [3, 4 + 1j]]),
                                        np.array([[1, 2], [3, 4 + 1j]], dtype=object),
                                        np.array([[1, 2], [3, np.complex128(4 + 1j)]], dtype=object),
                                        np.array([[1, 2], [3, 4]], dtype=np.complex64)],
                             ids=["complex128", "object-complex", "object-numpy-complex",
                                  "complex64-whole"])
    def test_complex_raster_is_refused_by_both(self, tmp_path, raster):
        path = tmp_path / "c.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ImageFormatError, match="^pixel values must be integers$"):
                encode(raster)
            with pytest.raises(ImageFormatError, match="^pixel values must be integers$"):
                write_pgm(str(path), raster)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("binary", [True, False], ids=["P5", "P2"])
    def test_write_refuses_what_encode_refuses(self, tmp_path, binary):
        cases = [(1.5, "must be integers"), (2.5, "must be integers"), (-0.5, "must be integers"),
                 (float("nan"), "must be integers"), (300, r"must lie in \[0, 255\]"),
                 (-1, r"must lie in \[0, 255\]"), (1e30, r"must lie in \[0, 255\]")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value, message in cases:
                raster = np.array([[value, 2], [3, 4]])
                with pytest.raises(ImageFormatError, match=f"^pixel values {message}$"):
                    encode(raster)
                with pytest.raises(ImageFormatError, match=f"^pixel values {message}$"):
                    write_pgm(str(tmp_path / "v.pgm"), raster, binary=binary)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("binary", [True, False], ids=["P5", "P2"])
    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0)], ids=["0x0", "0x4", "4x0"])
    def test_write_refuses_a_raster_with_no_rows_or_no_columns(self, tmp_path, shape, binary):
        """``read_pgm`` refuses such a file, so none is made, nor a temp file."""
        with pytest.raises(ImageFormatError, match=r"^raster must be 2D with rows and columns"):
            write_pgm(str(tmp_path / "e.pgm"), np.zeros(shape, dtype=np.uint8), binary=binary)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("binary", [True, False], ids=["P5", "P2"])
    def test_bool_and_int64_rasters_are_written_as_before(self, tmp_path, binary):
        path = str(tmp_path / "w.pgm")
        for raster in (np.array([[True, False], [False, True]]),
                       np.array([[0, 255], [7, 128]], dtype=np.int64),
                       np.array([[0.0, 255.0], [7.0, 128.0]])):
            write_pgm(path, raster, binary=binary)
            assert np.array_equal(read_pgm(path), raster.astype(np.uint8))
