import numpy as np
import pytest
from oracles import state_equal

from qst_control.qnet import Gradients, QNetwork
from qst_control.rng import RandomStream


def make_net(sizes=(5, 7, 3, 4), seed=1):
    return QNetwork(*sizes, rng=RandomStream(seed))


def test_layer_shapes_and_init_bounds():
    net = make_net()
    assert [w.shape for w in net.weights] == [(7, 5), (3, 7), (4, 3)]
    assert [b.shape for b in net.biases] == [(7,), (3,), (4,)]
    for w, b, fan_in in zip(net.weights, net.biases, (5, 7, 3)):
        bound = 1.0 / np.sqrt(fan_in)
        assert np.all(np.abs(w) <= bound)
        assert np.all(np.abs(b) <= bound)
    assert all(w.dtype == np.float64 for w in net.weights)


def test_init_deterministic_per_stream():
    a = make_net(seed=9)
    b = make_net(seed=9)
    assert state_equal(a, b)
    assert not state_equal(a, make_net(seed=10))


def test_init_rejects_bad_sizes():
    with pytest.raises(ValueError):
        QNetwork(4, 0, 2, 3, rng=RandomStream(0))


def test_forward_matches_manual_computation():
    net = make_net()
    x = RandomStream(3).generator().normal(size=(6, 5))
    h1 = np.maximum(x @ net.weights[0].T + net.biases[0], 0.0)
    h2 = np.maximum(h1 @ net.weights[1].T + net.biases[1], 0.0)
    expected = h2 @ net.weights[2].T + net.biases[2]
    np.testing.assert_allclose(net.q_batch(x), expected, atol=1e-14)
    np.testing.assert_allclose(net.q_values(x[0]), expected[0], atol=1e-14)


def test_q_batch_validates_shape():
    net = make_net()
    with pytest.raises(ValueError):
        net.q_batch(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        net.q_batch(np.zeros(5))


def test_loss_value_matches_definition():
    net = make_net()
    gen = RandomStream(4).generator()
    states = gen.normal(size=(8, 5))
    actions = gen.integers(0, 4, size=8)
    targets = gen.normal(size=8)
    q = net.q_batch(states)
    expected = float(np.mean((q[np.arange(8), actions] - targets) ** 2))
    loss, _ = net.loss_and_gradients(states, actions, targets)
    assert loss == pytest.approx(expected, rel=1e-14)


def test_gradients_match_finite_differences():
    # central finite differences over every parameter of a small network
    net = make_net(sizes=(4, 6, 2, 3), seed=7)
    gen = RandomStream(8).generator()
    states = gen.normal(size=(5, 4))
    actions = gen.integers(0, 3, size=5)
    targets = gen.normal(size=5)
    _, (gw, gb) = net.loss_and_gradients(states, actions, targets)

    eps = 1e-6
    worst = 0.0
    for params, grads in ((net.weights, gw), (net.biases, gb)):
        for arr, grad in zip(params, grads):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + eps
                lp, _ = net.loss_and_gradients(states, actions, targets)
                flat[k] = keep - eps
                lm, _ = net.loss_and_gradients(states, actions, targets)
                flat[k] = keep
                fd = (lp - lm) / (2 * eps)
                denom = max(1.0, abs(fd), abs(gflat[k]))
                worst = max(worst, abs(fd - gflat[k]) / denom)
    assert worst < 1e-4


def test_apply_gradients_is_plain_sgd():
    net = make_net()
    before_w = [w.copy() for w in net.weights]
    before_b = [b.copy() for b in net.biases]
    grads = Gradients(np.empty(net.params.size), net.sizes)
    for g in grads.weights:
        g[...] = 1.0
    for g in grads.biases:
        g[...] = 2.0
    net.apply_gradients(grads, learning_rate=0.1)
    for w, old in zip(net.weights, before_w):
        np.testing.assert_allclose(w, old - 0.1, atol=1e-15)
    for b, old in zip(net.biases, before_b):
        np.testing.assert_allclose(b, old - 0.2, atol=1e-15)


def test_clone_is_independent():
    net = make_net()
    twin = net.clone()
    assert state_equal(twin, net)
    net.weights[0][0, 0] += 1.0
    assert not state_equal(twin, net)


def test_copy_from_restores_byte_equality():
    net = make_net(seed=1)
    other = make_net(seed=2)
    assert not state_equal(net, other)
    other.copy_from(net)
    assert state_equal(net, other)
    # a copy, not shared storage
    other.biases[2][0] += 1.0
    assert not state_equal(net, other)
    with pytest.raises(ValueError):
        other.copy_from(make_net(sizes=(5, 7, 3, 2)))


def test_state_equal_detects_single_ulp():
    net = make_net()
    twin = net.clone()
    twin.weights[1][0, 0] = np.nextafter(twin.weights[1][0, 0], np.inf)
    assert not state_equal(net, twin)


def test_save_load_round_trip(tmp_path):
    # what np.load reads back from the file is the network, layer by layer
    net = make_net()
    path = tmp_path / "net.npz"
    net.save(path)
    with np.load(path) as data:
        assert sorted(data.files) == ["b0", "b1", "b2", "sizes", "w0", "w1", "w2"]
        assert tuple(data["sizes"]) == net.sizes
        for name, layer in [*zip(("w0", "w1", "w2"), net.weights), *zip(("b0", "b1", "b2"), net.biases)]:
            assert data[name].dtype == np.float64
            assert data[name].shape == layer.shape
            assert data[name].tobytes() == layer.tobytes()


# --------------------------------------------------------- flat storage


def test_gradients_survive_later_calls():
    net = make_net()
    gen = RandomStream(4).generator()
    batches = [(gen.normal(size=(8, 5)), gen.integers(0, 4, size=8), gen.normal(size=8)) for _ in range(2)]
    _, first = net.loss_and_gradients(*batches[0])
    kept = first.flat.copy()
    _, second = net.loss_and_gradients(*batches[1])
    assert first.flat.tobytes() == kept.tobytes()
    assert not np.shares_memory(first.flat, second.flat)
    gw, gb = first
    assert [g.shape for g in gw] == [w.shape for w in net.weights]
    assert [g.shape for g in gb] == [b.shape for b in net.biases]


def test_layer_views_edit_the_flat_parameters():
    net = make_net()
    x = RandomStream(5).generator().normal(size=(3, 5))
    before = net.q_batch(x)
    net.weights[2][1, :] += 1.0
    after = net.q_batch(x)
    assert not np.array_equal(before[:, 1], after[:, 1])
    np.testing.assert_array_equal(before[:, [0, 2, 3]], after[:, [0, 2, 3]])
    assert net.params.size == sum(w.size + b.size for w, b in zip(net.weights, net.biases))
    assert all(np.shares_memory(a, net.params) for a in net.weights + net.biases)
