import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qimrot.neqr import (
    ImageFormatError, NEQRImage, Terms, check_pixel_values, decode, encode, paint,
)
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


# Every header refusal: the file's bytes and the message after the path.
HEADER_REFUSALS = [
    pytest.param(b"", "not a PGM file", id="empty"),
    pytest.param(b"# a comment and nothing else\n", "not a PGM file", id="only-a-comment"),
    pytest.param(b"P5", "not a PGM file", id="magic-at-the-end"),
    pytest.param(b"P6\n2 2\n255\n" + bytes(4), "unsupported magic b'P6'", id="P6"),
    pytest.param(b"hello\n", "unsupported magic b'hello'", id="hello"),
    pytest.param(b"P5#x\n2 2\n255\n" + bytes(4), "unsupported magic b'P5#x'", id="hash-in-magic"),
    pytest.param(b"P5\n", "truncated PGM header", id="after-magic"),
    pytest.param(b"P5\n4", "truncated PGM header", id="after-width"),
    pytest.param(b"P5\n4 4", "truncated PGM header", id="after-height"),
    pytest.param(b"P5\n4 4\n255", "truncated PGM header", id="no-byte-after-maxval"),
    pytest.param(b"P5\n4 4\n# no newline", "truncated PGM header", id="comment-at-the-end"),
    pytest.param(b"P5\n2#c 2\n255\n" + bytes(4), "malformed PGM header", id="hash-in-width"),
]

# Headers read as the 2x2 raster [[0, 1], [2, 3]].
ACCEPTED_HEADERS = [
    *[pytest.param(b"P5%s2%s2%s255%s\x00\x01\x02\x03" % ((sep,) * 4), id=f"sep-{sep!r}")
      for sep in (b" ", b"\t", b"\r", b"\n", b"\v", b"\f")],
    pytest.param(b"P2\r\n2 2\r\n255\r\n0 1\r\n2 3\r\n", id="crlf"),
    pytest.param(b"# a\nP5\n# b\n2\n#c\n2 # d #\n255\n\x00\x01\x02\x03",
                 id="comment-before-every-token"),
]


# P2 bodies after a b"P2\n<width> 1\n255\n" header: (width, body, the row read
# or the message after the path).  Leading zeros do not widen a sample, and a
# sample beyond int64 or float64's exact integers is outside, not wrapped or rounded.
OUTSIDE = "sample outside [0, 255]"
P2_BODIES = [
    pytest.param(1, b"0255", [255], id="leading-zero"),
    pytest.param(1, b"0" * 40 + b"255", [255], id="40-zeros-then-255"),
    pytest.param(4, b"0\v1\f2\r3\r", [0, 1, 2, 3], id="vt-ff-cr-separators"),
    pytest.param(2, b"7 8", [7, 8], id="no-trailing-whitespace"),
    pytest.param(1, b"0" * 40 + b"256", OUTSIDE, id="40-zeros-then-256"),
    pytest.param(1, b"1000", OUTSIDE, id="1000"),
    pytest.param(1, b"0001000", OUTSIDE, id="0001000"),
    pytest.param(1, b"9007199254740993", OUTSIDE, id="2^53+1"),
    pytest.param(2, b"0 9223372036854775808", OUTSIDE, id="2^63"),
    pytest.param(2, b"1 " + b"9" * 400, OUTSIDE, id="400-digits"),
    pytest.param(4, b"1 1 1\n", "expected 4 samples, got 3", id="too-few"),
    pytest.param(4, b"1 1 1 1 1\n", "expected 4 samples, got 5", id="too-many"),
    pytest.param(2, b"0\x001\n", "expected 2 samples, got 1", id="NUL-between-samples"),
    pytest.param(2, b"0\xa01\n", "expected 2 samples, got 1", id="xa0-between-samples"),
]

# Rasters and the exact P2 file write_pgm makes of each.
P2_GOLDEN = [
    pytest.param(np.array([[0, 9, 10], [99, 100, 255]], dtype=np.uint8),
                 b"P2\n3 2\n255\n0 9 10\n99 100 255\n", id="2x3"),
    pytest.param(np.array([[7]], dtype=np.uint8), b"P2\n1 1\n255\n7\n", id="1x1"),
    pytest.param(np.array([[1, 22, 255, 0, 3]], dtype=np.uint8),
                 b"P2\n5 1\n255\n1 22 255 0 3\n", id="1x5"),
    pytest.param(np.array([[1], [22], [255], [0], [3]], dtype=np.uint8),
                 b"P2\n1 5\n255\n1\n22\n255\n0\n3\n", id="5x1"),
    pytest.param(np.array([[0, 9, 10], [99, 100, 255]], dtype=np.int64),
                 b"P2\n3 2\n255\n0 9 10\n99 100 255\n", id="2x3-int64"),
]


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

    @pytest.mark.parametrize("data, message", HEADER_REFUSALS)
    def test_header_refusal_names_the_file_once(self, tmp_path, data, message):
        path = tmp_path / "h.pgm"
        path.write_bytes(data)
        with pytest.raises(ImageFormatError) as exc:
            read_pgm(str(path))
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("data", ACCEPTED_HEADERS)
    def test_accepted_headers(self, tmp_path, data):
        path = tmp_path / "a.pgm"
        path.write_bytes(data)
        assert np.array_equal(read_pgm(str(path)), [[0, 1], [2, 3]])

    def test_zero_width_is_refused(self, tmp_path):
        path = tmp_path / "z.pgm"
        path.write_bytes(b"P5\n0 4\n255\n")
        with pytest.raises(ImageFormatError) as exc:
            read_pgm(str(path))
        assert str(exc.value) == f"{path}: bad dimensions 0x4"

    @pytest.mark.parametrize("width, body, want", P2_BODIES)
    def test_p2_body(self, tmp_path, width, body, want):
        path = tmp_path / "b.pgm"
        path.write_bytes(b"P2\n%d 1\n255\n" % width + body)
        if isinstance(want, str):
            with pytest.raises(ImageFormatError) as exc:
                read_pgm(str(path))
            assert str(exc.value) == f"{path}: {want}"
        else:
            raster = read_pgm(str(path))
            assert raster.dtype == np.uint8 and raster.tolist() == [want]

    @pytest.mark.parametrize("raster, data", P2_GOLDEN)
    def test_p2_golden_bytes(self, tmp_path, raster, data):
        path = tmp_path / "g.pgm"
        write_pgm(str(path), raster, binary=False)
        assert path.read_bytes() == data

    def test_p5_raster_is_a_writable_copy_of_the_file(self, tmp_path):
        path = tmp_path / "p.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x01\x02\x03trailing")
        raster = read_pgm(str(path))
        raster[0, 0] = 9  # a view of the file's read-only bytes would refuse this
        assert np.array_equal(raster, [[9, 1], [2, 3]])

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

    @pytest.mark.parametrize("element, message", [("seven", "must be integers"),
                                                   (10**400, r"must lie in \[0, 255\]")],
                             ids=["text", "10**400"])
    def test_object_raster_element_float64_cannot_take(self, tmp_path, element, message):
        raster = np.array([[1, 2], [3, element]], dtype=object)
        with pytest.raises(ImageFormatError, match=f"^pixel values {message}$"):
            check_pixel_values(raster)
        with pytest.raises(ImageFormatError, match=f"^pixel values {message}$"):
            write_pgm(str(tmp_path / "o.pgm"), raster, binary=False)
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
