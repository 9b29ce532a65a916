import pytest
from hypothesis import given, strategies as st

from anomsearch import Bernoulli, Exponential, SearchState, update

MODEL = Exponential(1.0, 4.0)


def test_fresh_state_is_empty():
    st_ = SearchState(4)
    assert st_.n == 0
    assert list(st_.s) == [0.0] * 4
    assert st_.declared == []


def test_update_folds_llr_and_counts():
    st_ = SearchState(3)
    update(st_, (0, 2), {0: 0.5, 2: 1.5}, MODEL)
    assert st_.n == 1
    assert st_.s[0] == pytest.approx(MODEL.llr(0.5))
    assert st_.s[1] == 0.0
    assert st_.s[2] == pytest.approx(MODEL.llr(1.5))

    # second round accumulates
    update(st_, (0,), {0: 0.25}, MODEL)
    assert st_.n == 2
    assert st_.s[0] == pytest.approx(MODEL.llr(0.5) + MODEL.llr(0.25))


def test_update_rejects_malformed_rounds():
    st_ = SearchState(3)
    with pytest.raises(ValueError):
        update(st_, (0, 0), {0: 1.0}, MODEL)
    with pytest.raises(ValueError):
        update(st_, (3,), {3: 1.0}, MODEL)
    with pytest.raises(ValueError):
        update(st_, (0,), {1: 1.0}, MODEL)
    with pytest.raises(ValueError):
        update(st_, (0,), {0: 1.0, 1: 2.0}, MODEL)
    # nothing was applied
    assert st_.n == 0 and st_.s == [0.0, 0.0, 0.0]


def test_declare_records_time_and_kind():
    st_ = SearchState(3)
    update(st_, (0,), {0: 0.1}, MODEL)
    update(st_, (1,), {1: 0.1}, MODEL)
    st_.declare([1], "abnormal")
    update(st_, (2,), {2: 0.1}, MODEL)
    st_.declare([2], "normal")

    assert [d.cell for d in st_.declared] == [1, 2]
    assert [d.time for d in st_.declared] == [2, 3]
    assert [d.kind for d in st_.declared] == ["abnormal", "normal"]
    assert st_.declared_abnormal == {1}
    assert st_.declared_normal == {2}


def test_declare_rejects_bad_input():
    st_ = SearchState(3)
    st_.declare([0], "abnormal")
    with pytest.raises(ValueError):
        st_.declare([0], "normal")  # already declared
    with pytest.raises(ValueError):
        st_.declare([1], "suspicious")
    with pytest.raises(ValueError):
        st_.declare([5], "normal")


@given(st.data())
def test_probe_count_bookkeeping(data):
    m = data.draw(st.integers(2, 6))
    k = data.draw(st.integers(1, m))
    rounds = data.draw(st.integers(0, 12))
    st_ = SearchState(m)
    probed = set()
    for _ in range(rounds):
        probes = data.draw(
            st.lists(st.integers(0, m - 1), min_size=k, max_size=k, unique=True))
        obs = {c: data.draw(st.floats(0.01, 10.0)) for c in probes}
        update(st_, probes, obs, MODEL)
        probed.update(probes)
    assert st_.n == rounds
    for c in range(m):
        if c not in probed:
            assert st_.s[c] == 0.0


def test_discrete_model_updates_too():
    st_ = SearchState(2)
    b = Bernoulli(0.1, 0.6)
    update(st_, (0, 1), {0: 1.0, 1: 0.0}, b)
    assert st_.s[0] == pytest.approx(b.llr(1.0))
    assert st_.s[1] == pytest.approx(b.llr(0.0))
