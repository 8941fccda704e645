import numpy as np
import pytest

from qst_control.rng import RandomStream, as_stream


def test_same_key_same_draws():
    a = RandomStream(1234, 7).generator().random(100)
    b = RandomStream(1234, 7).generator().random(100)
    np.testing.assert_array_equal(a, b)


def test_generator_is_fresh_each_time():
    stream = RandomStream(42)
    first = stream.generator().random(10)
    second = stream.generator().random(10)
    np.testing.assert_array_equal(first, second)


def test_different_seed_or_stream_differ():
    base = RandomStream(1, 0).generator().random(20)
    assert not np.array_equal(base, RandomStream(2, 0).generator().random(20))
    assert not np.array_equal(base, RandomStream(1, 1).generator().random(20))


def test_substream_deterministic_and_order_sensitive():
    s = RandomStream(99)
    assert s.substream(3, 4) == s.substream(3, 4)
    assert s.substream(3, 4) != s.substream(4, 3)
    assert s.substream(0) != s
    assert s.substream(1).substream(2) == s.substream(1, 2)


def test_substreams_do_not_collide_on_small_grids():
    s = RandomStream(7)
    ids = {s.substream(i, j).stream_id for i in range(50) for j in range(50)}
    assert len(ids) == 2500


def test_substream_requires_indices():
    with pytest.raises(ValueError):
        RandomStream(0).substream()


def test_type_validation():
    with pytest.raises(TypeError):
        RandomStream(1.5)
    with pytest.raises(TypeError):
        RandomStream(1, "a")
    with pytest.raises(TypeError):
        RandomStream(1).substream(0.5)


def test_as_stream_coerces():
    assert as_stream(5) == RandomStream(5)
    s = RandomStream(5, 9)
    assert as_stream(s) is s


def test_numpy_integers_accepted():
    s = RandomStream(np.int64(3), np.uint64(4))
    t = s.substream(np.int32(2))
    assert isinstance(t, RandomStream)


@pytest.mark.parametrize("prefix", [(), (3, 7), (-1,), (2**64 + 5, -(2**70)), (2**63, 0, 9)])
def test_substream_keys_are_the_substream_keys(prefix):
    stream = RandomStream(-12345, 2**64 - 3)
    count = 10_001
    keys = stream.substream_keys(*prefix, count=count)
    assert keys.shape == (count, 2) and keys.dtype == np.uint64
    expected = np.array([stream.substream(*prefix, r).key for r in range(count)])
    assert keys.tobytes() == expected.tobytes()
    assert int(keys[5, 1]) == stream.substream(*prefix, 5).stream_id
