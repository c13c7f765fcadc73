"""Tests for convolution layers and the im2col machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ShapeError
from repro.nn import Conv2d, ConvTranspose2d, check_layer_gradients
from repro.nn.layers.conv import (
    col2im,
    conv_output_size,
    conv_transpose2d,
    conv_transpose_output_size,
    im2col,
)


class TestShapeAlgebra:
    def test_conv_output_size_basic(self):
        assert conv_output_size(10, 3, 1, 0) == 8
        assert conv_output_size(10, 3, 2, 0) == 4
        assert conv_output_size(10, 3, 1, 1) == 10

    def test_conv_output_size_rejects_collapse(self):
        with pytest.raises(ShapeError):
            conv_output_size(2, 5, 1, 0)

    def test_transpose_inverts_conv_when_divisible(self):
        # When stride divides (size - kernel), transpose exactly inverts.
        size, kernel, stride = 11, 3, 2
        out = conv_output_size(size, kernel, stride, 0)
        assert conv_transpose_output_size(out, kernel, stride, 0) == size

    @given(
        size=st.integers(4, 64),
        kernel=st.integers(1, 4),
        stride=st.integers(1, 3),
        padding=st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_transpose_never_undershoots_by_stride(self, size, kernel, stride, padding):
        if size + 2 * padding < kernel:
            return
        out = conv_output_size(size, kernel, stride, padding)
        try:
            back = conv_transpose_output_size(out, kernel, stride, padding)
        except ShapeError:
            return
        # Integer truncation can lose at most stride-1 pixels.
        assert size - (stride - 1) <= back <= size


def _row_major_im2col(x, kernel, stride, padding):
    """Reference im2col: one row per output position, one loop per pixel."""
    n, c, h, w = x.shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)
    rows = [
        padded[b, :, i * sh : i * sh + kh, j * sw : j * sw + kw].ravel()
        for b in range(n)
        for i in range(out_h)
        for j in range(out_w)
    ]
    return np.array(rows)


class TestIm2Col:
    def test_known_values_identity_kernel(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        cols = im2col(x, (2, 2), (1, 1), (0, 0))
        assert cols.shape == (4, 9)
        np.testing.assert_array_equal(cols[:, 0], [0, 1, 4, 5])
        np.testing.assert_array_equal(cols[:, -1], [10, 11, 14, 15])

    def test_stride_skips_positions(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        cols = im2col(x, (2, 2), (2, 2), (0, 0))
        assert cols.shape == (4, 4)
        np.testing.assert_array_equal(cols[:, 0], [0, 1, 4, 5])
        np.testing.assert_array_equal(cols[:, 1], [2, 3, 6, 7])

    def test_padding_adds_zeros(self):
        x = np.ones((1, 1, 2, 2))
        cols = im2col(x, (3, 3), (1, 1), (1, 1))
        # Corner window sees 4 ones (image) + 5 zeros (padding).
        assert cols[:, 0].sum() == 4.0

    def test_matches_row_major_reference_transposed(self, rng):
        x = rng.normal(size=(2, 3, 6, 7))
        geometry = ((3, 2), (2, 1), (1, 0))
        np.testing.assert_array_equal(
            im2col(x, *geometry), _row_major_im2col(x, *geometry).T
        )

    def test_col2im_is_adjoint_of_im2col(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint identity."""
        x = rng.normal(size=(2, 3, 6, 7))
        kernel, stride, padding = (3, 2), (2, 1), (1, 0)
        cols = im2col(x, kernel, stride, padding)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, kernel, stride, padding)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_col2im_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            col2im(np.zeros((5, 4)), (1, 1, 4, 4), (2, 2), (1, 1), (0, 0))

    @given(
        n=st.integers(1, 2),
        c=st.integers(1, 3),
        h=st.integers(3, 10),
        w=st.integers(3, 10),
        k=st.integers(1, 3),
        s=st.integers(1, 2),
        p=st.integers(0, 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_adjoint_property_holds_generally(self, n, c, h, w, k, s, p):
        if h + 2 * p < k or w + 2 * p < k:
            return
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, c, h, w))
        cols = im2col(x, (k, k), (s, s), (p, p))
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, (k, k), (s, s), (p, p))).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestConv2d:
    def test_output_shape(self):
        conv = Conv2d(3, 8, 3, stride=2, padding=1, rng=0)
        out = conv.forward(np.zeros((2, 3, 9, 11)))
        assert out.shape == (2, 8, 5, 6)
        assert conv.output_shape((3, 9, 11)) == (8, 5, 6)

    def test_known_convolution_result(self):
        conv = Conv2d(1, 1, 2, bias=False, rng=0)
        conv.weight.value[...] = np.ones((1, 1, 2, 2))
        x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        out = conv.forward(x)
        np.testing.assert_array_equal(out[0, 0], [[8, 12], [20, 24]])

    def test_bias_added_per_channel(self):
        conv = Conv2d(1, 2, 1, rng=0)
        conv.weight.value[...] = 0.0
        conv.bias.value[...] = [1.0, -2.0]
        out = conv.forward(np.zeros((1, 1, 3, 3)))
        assert np.all(out[0, 0] == 1.0)
        assert np.all(out[0, 1] == -2.0)

    def test_gradients(self, rng):
        conv = Conv2d(2, 3, 3, stride=2, padding=1, rng=1)
        check_layer_gradients(conv, rng.normal(size=(2, 2, 7, 8)))

    def test_gradients_rectangular_kernel(self, rng):
        conv = Conv2d(1, 2, (3, 2), stride=(1, 2), rng=1)
        check_layer_gradients(conv, rng.normal(size=(2, 1, 6, 8)))

    def test_wrong_channels_raises(self):
        with pytest.raises(ShapeError, match="channels"):
            Conv2d(3, 4, 3, rng=0).forward(np.zeros((1, 2, 8, 8)))

    def test_backward_before_forward_raises(self):
        with pytest.raises(ShapeError):
            Conv2d(1, 1, 3, rng=0).backward(np.zeros((1, 1, 2, 2)))

    def test_invalid_config_raises(self):
        with pytest.raises(ShapeError):
            Conv2d(0, 1, 3)
        with pytest.raises(ShapeError):
            Conv2d(1, 1, 3, stride=0)


class TestConvTranspose2d:
    def test_output_shape(self):
        deconv = ConvTranspose2d(4, 2, 3, stride=2, padding=1, rng=0)
        out = deconv.forward(np.zeros((1, 4, 5, 6)))
        assert out.shape == (1, 2, 9, 11)
        assert deconv.output_shape((4, 5, 6)) == (2, 9, 11)

    def test_ones_kernel_spreads_mass(self):
        deconv = ConvTranspose2d(1, 1, 2, stride=2, bias=False, rng=0)
        deconv.weight.value[...] = 1.0
        x = np.array([[[[3.0]]]])
        out = deconv.forward(x)
        np.testing.assert_array_equal(out[0, 0], [[3.0, 3.0], [3.0, 3.0]])

    def test_mass_conservation_with_ones_kernel(self, rng):
        # A ones-kernel transposed conv (no padding) scatters every input
        # value into kh*kw output cells: total mass scales by kernel area.
        deconv = ConvTranspose2d(1, 1, 3, stride=2, bias=False, rng=0)
        deconv.weight.value[...] = 1.0
        x = rng.random((1, 1, 4, 5))
        out = deconv.forward(x)
        assert out.sum() == pytest.approx(9 * x.sum())

    def test_is_adjoint_of_conv(self, rng):
        """conv-transpose with weight W is the adjoint of conv with W."""
        from repro.nn.layers.conv import im2col

        conv = Conv2d(2, 3, 3, stride=2, bias=False, rng=1)
        x = rng.normal(size=(1, 2, 7, 9))
        y = conv.forward(x)
        g = rng.normal(size=y.shape)
        # <conv(x), g> should equal <x, convT(g)> with transposed weights.
        w_t = conv.weight.value.transpose(1, 0, 2, 3)  # (in, out, kh, kw)
        back = conv_transpose2d(g, w_t.transpose(1, 0, 2, 3), conv.stride, conv.padding)
        lhs = float((y * g).sum())
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_gradients(self, rng):
        deconv = ConvTranspose2d(3, 2, 3, stride=2, padding=1, rng=1)
        check_layer_gradients(deconv, rng.normal(size=(2, 3, 4, 5)))

    def test_wrong_channels_raises(self):
        with pytest.raises(ShapeError):
            ConvTranspose2d(3, 1, 2, rng=0).forward(np.zeros((1, 2, 4, 4)))

    def test_functional_validates_weight_shape(self):
        with pytest.raises(ShapeError):
            conv_transpose2d(np.zeros((1, 2, 4, 4)), np.zeros((3, 1, 2, 2)))
