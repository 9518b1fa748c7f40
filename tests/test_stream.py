"""Tests for the streaming group iterator used by all sweep passes."""
import pandas as pd
import pytest

from repro.core.stream import chunked, group_frames, iter_groups, map_group_frames


def batches(*frames):
    return iter([pd.DataFrame(f) for f in frames])


def test_single_batch_single_group():
    out = list(iter_groups(batches([{"k": 1, "v": 10}, {"k": 1, "v": 20}]), "k"))
    assert out == [(1, [{"k": 1, "v": 10}, {"k": 1, "v": 20}])]


def test_single_batch_many_groups():
    out = list(
        iter_groups(
            batches([{"k": 1, "v": 1}, {"k": 2, "v": 2}, {"k": 2, "v": 3}]), "k"
        )
    )
    assert [k for k, _ in out] == [1, 2]
    assert [len(g) for _, g in out] == [1, 2]


def test_group_spanning_batch_boundary():
    out = list(
        iter_groups(
            batches(
                [{"k": 1, "v": 1}, {"k": 2, "v": 2}],
                [{"k": 2, "v": 3}, {"k": 3, "v": 4}],
            ),
            "k",
        )
    )
    assert [(k, len(g)) for k, g in out] == [(1, 1), (2, 2), (3, 1)]


def test_empty_batches_are_skipped():
    out = list(
        iter_groups(
            batches([], [{"k": 1, "v": 1}], [], [{"k": 1, "v": 2}]), "k"
        )
    )
    assert out == [(1, [{"k": 1, "v": 1}, {"k": 1, "v": 2}])]


def test_no_rows_yields_nothing():
    assert list(iter_groups(batches([]), "k")) == []


def test_string_keys():
    out = list(iter_groups(batches([{"k": "a"}, {"k": "b"}]), "k"))
    assert [k for k, _ in out] == ["a", "b"]


def keys_of(frames):
    return [f["k"].tolist() for f in frames]


def test_group_frames_cut_after_last_complete_group():
    frames = group_frames(
        batches(
            [{"k": 1}, {"k": 2}, {"k": 2}],
            [{"k": 2}, {"k": 3}],
            [{"k": 3}, {"k": 4}],
        ),
        "k",
    )
    assert keys_of(frames) == [[1], [2, 2, 2], [3, 3], [4]]


def test_group_frames_group_spanning_many_batches():
    frames = group_frames(
        batches([{"k": 1}, {"k": 2}], [{"k": 2}], [], [{"k": 2}], [{"k": 2}, {"k": 3}]),
        "k",
    )
    assert keys_of(frames) == [[1], [2, 2, 2, 2], [3]]


def test_group_frames_batch_starting_a_new_group():
    frames = group_frames(batches([{"k": 1}, {"k": 1}], [{"k": 2}, {"k": 2}]), "k")
    assert keys_of(frames) == [[1, 1], [2, 2]]


def test_group_frames_no_rows_yields_nothing():
    assert list(group_frames(batches([], []), "k")) == []


def test_chunked_bounds_frame_size():
    rows = [{"x": i} for i in range(10)]
    frames = list(chunked(rows, ["x"], size=4))
    assert [len(f) for f in frames] == [4, 4, 2]
    assert frames[0].columns.tolist() == ["x"]


def test_chunked_empty_rows():
    assert list(chunked([], ["x"], size=4)) == []


def test_chunked_preserves_column_order():
    frames = list(chunked([{"b": 1, "a": 2}], ["a", "b"]))
    assert frames[0].columns.tolist() == ["a", "b"]


def test_map_group_frames_hands_nullable_integers_over_exactly(spark):
    """A nullable integral column reaches ``fn`` as ``Int64``, with a
    value beyond 2^53 exact and a null as ``<NA>``, and comes back out
    exact (``mapInPandas`` alone would hand it over as float64)."""
    big = 2**60 + 1
    x = spark.createDataFrame(
        [("a1", big, 0, 1, None), ("a2", None, 0, 1, None)],
        "r_lid string, r_v long, o_ts long, o_te long, s_lid string",
    )

    def fn(frame):
        seen = [f"{frame['r_v'].dtype}:{v}" for v in frame["r_v"]]
        return pd.DataFrame({"r_lid": frame["r_lid"], "r_v": frame["r_v"], "seen": seen})

    out = map_group_frames(x, fn, "r_lid string, r_v long, seen string")
    assert sorted(map(tuple, out.collect())) == [
        ("a1", big, f"Int64:{big}"),
        ("a2", None, "Int64:<NA>"),
    ]
