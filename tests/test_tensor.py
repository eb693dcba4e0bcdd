"""Gradient checks and behavior tests for the autograd Tensor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor

RNG = np.random.default_rng(1234)


def gradcheck(fn, x0, eps=1e-6, tol=1e-5):
    """Compare analytic gradient of sum(fn(x)) against central differences."""
    x = Tensor(x0.copy(), requires_grad=True)
    fn(x).sum().backward()
    analytic = x.grad.copy()
    numeric = np.zeros_like(x0)
    flat_in = x0.reshape(-1)
    for i in range(flat_in.size):
        up = flat_in.copy()
        down = flat_in.copy()
        up[i] += eps
        down[i] -= eps
        f_up = fn(Tensor(up.reshape(x0.shape))).data.sum()
        f_down = fn(Tensor(down.reshape(x0.shape))).data.sum()
        numeric.reshape(-1)[i] = (f_up - f_down) / (2 * eps)
    assert np.abs(analytic - numeric).max() < tol


class TestArithmeticGradients:
    def test_add(self):
        other = Tensor(RNG.normal(size=(3, 4)))
        gradcheck(lambda x: x + other, RNG.normal(size=(3, 4)))

    def test_add_broadcast(self):
        other = Tensor(RNG.normal(size=(4,)))
        gradcheck(lambda x: x + other, RNG.normal(size=(3, 4)))

    def test_scalar_radd_rsub(self):
        gradcheck(lambda x: 3.0 + x, RNG.normal(size=(2, 3)))
        gradcheck(lambda x: 3.0 - x, RNG.normal(size=(2, 3)))

    def test_mul(self):
        other = Tensor(RNG.normal(size=(3, 4)))
        gradcheck(lambda x: x * other, RNG.normal(size=(3, 4)))

    def test_mul_broadcast_column(self):
        other = Tensor(RNG.normal(size=(3, 1)))
        gradcheck(lambda x: x * other, RNG.normal(size=(3, 4)))

    def test_div(self):
        other = Tensor(RNG.normal(size=(3, 4)) + 3.0)
        gradcheck(lambda x: x / other, RNG.normal(size=(3, 4)))
        gradcheck(lambda x: other / (x + 5.0), RNG.normal(size=(3, 4)))

    def test_neg_sub(self):
        other = Tensor(RNG.normal(size=(3,)))
        gradcheck(lambda x: -x - other, RNG.normal(size=(3,)))

    def test_pow(self):
        gradcheck(lambda x: x**3, RNG.normal(size=(5,)))

    def test_same_tensor_used_twice(self):
        gradcheck(lambda x: x * x + x, RNG.normal(size=(4,)))


class TestMatmulGradients:
    def test_2d_2d(self):
        other = Tensor(RNG.normal(size=(4, 2)))
        gradcheck(lambda x: x @ other, RNG.normal(size=(3, 4)))
        other2 = Tensor(RNG.normal(size=(5, 3)))
        gradcheck(lambda x: other2 @ x, RNG.normal(size=(3, 4)))

    def test_vector_dot(self):
        other = Tensor(RNG.normal(size=(4,)))
        gradcheck(lambda x: x @ other, RNG.normal(size=(4,)))

    def test_matrix_vector(self):
        vec = Tensor(RNG.normal(size=(4,)))
        gradcheck(lambda x: x @ vec, RNG.normal(size=(3, 4)))

    def test_vector_gradient_side(self):
        mat = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        vec = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        (mat @ vec).sum().backward()
        assert mat.grad.shape == (3, 4)
        assert vec.grad.shape == (4,)

    def test_batched(self):
        other = Tensor(RNG.normal(size=(4, 2)))
        gradcheck(lambda x: x @ other, RNG.normal(size=(2, 3, 4)))


class TestShapeGradients:
    def test_reshape(self):
        gradcheck(lambda x: (x.reshape(2, 6) ** 2), RNG.normal(size=(3, 4)))

    def test_transpose(self):
        other = Tensor(RNG.normal(size=(3, 4)))
        gradcheck(lambda x: x.transpose() * other, RNG.normal(size=(4, 3)))

    def test_getitem_slice(self):
        gradcheck(lambda x: x[1:, :2] * 2.0, RNG.normal(size=(3, 4)))

    def test_getitem_fancy_repeated_index(self):
        idx = np.array([0, 1, 0, 2])
        gradcheck(lambda x: x[idx] ** 2, RNG.normal(size=(3, 4)))


def basic_component(size: int):
    """One axis of a basic key: an int or a slice valid for ``size``."""
    bound = st.integers(min_value=-size - 1, max_value=size + 1) | st.none()
    steps = st.sampled_from([None, 1, 2, 3, -1, -2])
    return st.integers(min_value=-size, max_value=size - 1) | st.builds(
        slice, bound, bound, steps
    )


@st.composite
def indexed_arrays(draw):
    """(array, key): basic keys (ints, slices, ``...``, None) or advanced
    keys (int arrays with repeats, boolean masks) mixed with slices."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    data = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=shape)
    kind = draw(st.sampled_from(["basic", "basic_ellipsis", "int_array", "bool_mask"]))
    if kind.startswith("basic"):
        count = draw(st.integers(1, len(shape)))
        # After a leading ``...`` the components index the trailing axes.
        axes = shape[len(shape) - count :] if kind == "basic_ellipsis" else shape[:count]
        parts = [draw(basic_component(size)) for size in axes]
        if draw(st.booleans()):
            parts.insert(draw(st.integers(0, len(parts))), None)
        if kind == "basic_ellipsis":
            parts.insert(0, Ellipsis)
        return data, tuple(parts)
    rest = tuple(draw(basic_component(size)) for size in shape[1:])
    if kind == "int_array":
        index = draw(
            st.lists(st.integers(-shape[0], shape[0] - 1), min_size=1, max_size=6)
        )
        return data, (np.array(index),) + rest
    mask = draw(st.lists(st.booleans(), min_size=shape[0], max_size=shape[0]))
    return data, (np.array(mask),) + rest


class TestGetitemBackward:
    @given(case=indexed_arrays(), seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_matches_add_at_reference(self, case, seed):
        """Two backward passes through ``x[key]`` accumulate exactly what
        the ``np.add.at`` scatter reference gives, for every key kind."""
        data, key = case
        x = Tensor(data, requires_grad=True)
        rng = np.random.default_rng(seed)
        reference = np.zeros_like(data)
        for _ in range(2):
            out = x[key]
            grad = rng.normal(size=out.shape)
            out.backward(grad)
            scattered = np.zeros_like(data)
            np.add.at(scattered, key, grad)
            reference += scattered
        assert x.grad.shape == data.shape
        assert np.array_equal(x.grad, reference)

    def test_non_grad_source_untouched(self):
        x = Tensor(np.ones((3, 2)))
        y = Tensor(np.ones((3, 2)), requires_grad=True)
        (x[1:] * y[1:]).sum().backward()
        assert x.grad is None
        assert y.grad.tolist() == [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]


class TestReductionsAndActivations:
    def test_sum_all(self):
        gradcheck(lambda x: x.sum() * 2.0, RNG.normal(size=(3, 4)))

    def test_sum_axis_keepdims(self):
        gradcheck(lambda x: x.sum(axis=1, keepdims=True) * 3.0, RNG.normal(size=(3, 4)))

    def test_sum_axis_no_keepdims(self):
        gradcheck(lambda x: x.sum(axis=0), RNG.normal(size=(3, 4)))

    def test_mean(self):
        gradcheck(lambda x: x.mean(axis=1), RNG.normal(size=(3, 4)))

    def test_mean_tuple_axis_value(self):
        x0 = RNG.normal(size=(2, 3, 4))
        out = Tensor(x0).mean(axis=(0, 1))
        assert np.allclose(out.data, x0.mean(axis=(0, 1)))

    def test_mean_tuple_axis_keepdims_value(self):
        x0 = RNG.normal(size=(2, 3, 4))
        out = Tensor(x0).mean(axis=(0, 2), keepdims=True)
        assert out.shape == (1, 3, 1)
        assert np.allclose(out.data, x0.mean(axis=(0, 2), keepdims=True))

    def test_mean_tuple_axis_gradient(self):
        gradcheck(lambda x: x.mean(axis=(0, 1)), RNG.normal(size=(2, 3, 4)))
        gradcheck(
            lambda x: x.mean(axis=(1, 2), keepdims=True) * 2.0,
            RNG.normal(size=(2, 3, 4)),
        )

    def test_mean_negative_tuple_axis(self):
        x0 = RNG.normal(size=(2, 3, 4))
        out = Tensor(x0).mean(axis=(-1, 0))
        assert np.allclose(out.data, x0.mean(axis=(-1, 0)))
        gradcheck(lambda x: x.mean(axis=(-1, 0)), x0)

    @pytest.mark.parametrize(
        "name", ["exp", "tanh", "sigmoid", "relu", "leaky_relu", "sqrt"]
    )
    def test_elementwise(self, name):
        x0 = np.abs(RNG.normal(size=(3, 4))) + 0.5  # positive for sqrt/log
        gradcheck(lambda x: getattr(x, name)(), x0)

    def test_log(self):
        gradcheck(lambda x: x.log(), np.abs(RNG.normal(size=(4,))) + 0.5)

    def test_relu_masks_negatives(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        x.relu().sum().backward()
        assert x.grad.tolist() == [0.0, 1.0]


class TestEngineBehavior:
    def test_backward_on_nonscalar_requires_grad_arg(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_backward_with_seed_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2).backward(np.array([1.0, 0.0, 2.0]))
        assert x.grad.tolist() == [2.0, 0.0, 4.0]

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2).sum().backward()
        (x * 2).sum().backward()
        assert x.grad.tolist() == [4.0, 4.0]

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_no_grad_leaf_untouched(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = Tensor(np.ones(2), requires_grad=False)
        (x * y).sum().backward()
        assert y.grad is None

    def test_detach_cuts_graph(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x.detach() * 2).sum()  # no backward possible, but no error either
        assert x.grad is None

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        assert x.grad.tolist() == [1.0, 1.0]

    def test_item_and_numpy(self):
        x = Tensor(np.array([3.5]))
        assert x.item() == 3.5
        copied = x.numpy()
        copied[0] = 0.0
        assert x.data[0] == 3.5

    def test_helpers(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert Tensor.ones(2).data.tolist() == [1.0, 1.0]
        assert Tensor.zeros(1).ndim == 1
        assert Tensor.ones(2, 2).size == 4


class TestInferenceMode:
    def test_results_identical(self):
        from repro.nn import inference_mode

        x0 = RNG.normal(size=(3, 4))
        w = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
        normal = (Tensor(x0) @ w).tanh().data
        with inference_mode():
            fast = (Tensor(x0) @ w).tanh().data
        assert np.array_equal(normal, fast)

    def test_no_graph_retained(self):
        from repro.nn import inference_mode

        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with inference_mode():
            out = (Tensor(np.ones((3, 2))) @ w).relu()
        assert not out.requires_grad
        assert out._parents == ()
        assert out._backward is None

    def test_flag_restored_after_exit(self):
        from repro.nn import inference_mode, is_grad_enabled

        assert is_grad_enabled()
        with inference_mode():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_flag_restored_on_exception(self):
        from repro.nn import inference_mode, is_grad_enabled

        with pytest.raises(RuntimeError):
            with inference_mode():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_nested_enable_grad(self):
        from repro.nn import enable_grad, inference_mode, is_grad_enabled

        with inference_mode():
            with enable_grad():
                assert is_grad_enabled()
                x = Tensor(np.ones(2), requires_grad=True)
                (x * 3.0).sum().backward()
                assert x.grad.tolist() == [3.0, 3.0]
            assert not is_grad_enabled()

    def test_backward_after_inference_output_is_noop(self):
        from repro.nn import inference_mode

        w = Tensor(np.ones(2), requires_grad=True)
        with inference_mode():
            out = (w * 2.0).sum()
        # The output is detached from the graph: backward cannot reach
        # (and must not touch) the parameter.
        out.backward()
        assert w.grad is None
