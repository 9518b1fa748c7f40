"""The columnar sweep kernel against the row-at-a-time specification.

The property tests run without Spark: random winit frames, cut into
batches at arbitrary rows, go through the kernel
(``stream.group_frames`` → ``columnar.sweep`` or ``columnar.join_sweep``)
and through the spec (``stream.iter_groups`` → ``lawa_u.sweep_group`` →
``lawa_n.sweep_group`` → ``negation_joins._finalize`` or the window
record), for the window rows and the anti, left and right joins; the
full outer join's rows go through ``columnar.join_sweep`` and through
the left spec on the r groups and the anti spec on the s groups. The Spark test makes groups span Arrow
batches inside the real ``mapInPandas`` pass.
"""
import math

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import columnar, lawa_n, lawa_u
from repro.core.negation_joins import _finalize, all_windows, negation_join
from repro.core.reference import reference_negation_join
from repro.core.stream import group_frames, iter_groups
from repro.core.theta import Theta
from repro.core.windows import NO_OVERLAP, winit
from repro.tp.model import tp_pdf
from util import rows

R_FACTS, S_FACTS = ["name", "k"], ["name", "k"]
INTEGRAL = ["r_k", "s_k"]
OUTPUTS = [  # (with_negating, op): wuo, all_windows, anti, left, right
    (False, None),
    (True, None),
    (True, "anti"),
    (True, "left"),
    (True, "right"),
]


# ---------------------------------------------------------------------------
# the specification, one group at a time
# ---------------------------------------------------------------------------

def spec_rows(batches, r_facts, s_facts, with_negating, op) -> list[dict]:
    out = []
    for _, group in iter_groups(iter(batches), "r_lid"):
        head = group[0]
        group.sort(key=lambda m: (m["o_ts"], m["o_te"], m["s_lid"] or ""))
        stream = lawa_u.sweep_group(head["r_ts"], head["r_te"], group)
        if with_negating:
            stream = lawa_n.sweep_group(stream)
        for w in stream:
            if op is None:
                out.append(window_record(w, head, r_facts, s_facts))
            elif (rec := _finalize(w, head, r_facts, s_facts, op)) is not None:
                out.append(rec)
    return out


def window_record(w, head, r_facts, s_facts) -> dict:
    """One spec window as a row of the window schema."""
    rec = {f"r_{c}": head[f"r_{c}"] for c in r_facts}
    rec.update(r_lid=head["r_lid"], r_p=head["r_p"], w_ts=w["w_ts"], w_te=w["w_te"])
    for c in s_facts:
        rec[f"s_{c}"] = w["s_row"][f"s_{c}"] if w["s_row"] else None
    rec.update(s_lids=w["s_lids"], s_ps=w["s_ps"], kind=w["kind"])
    return rec


def kernel_rows(batches, r_facts, s_facts, with_negating, op) -> list[dict]:
    out = []
    for frame in group_frames(iter(batches), "r_lid"):
        if op is None:
            got = columnar.sweep(frame, r_facts, s_facts, with_negating)
        else:
            got = columnar.join_sweep(frame, r_facts, s_facts, op)
        out += got.to_dict("records")
    return out


# ---------------------------------------------------------------------------
# multiset comparison: exact except p (1e-12 relative)
# ---------------------------------------------------------------------------

def _cell(v):
    if isinstance(v, (list, tuple, np.ndarray)):
        return tuple(_cell(x) for x in v)
    if v is None or v is pd.NA or (isinstance(v, float) and math.isnan(v)):
        return None
    return v.item() if isinstance(v, np.generic) else v


def assert_same_rows(got: list[dict], want: list[dict]) -> None:
    def keyed(recs):
        out = []
        for rec in recs:
            cells = {c: _cell(v) for c, v in rec.items()}
            p = cells.pop("p", None)
            out.append((repr(sorted(cells.items())), p))
        return sorted(out)

    got, want = keyed(got), keyed(want)
    assert [k for k, _ in got] == [k for k, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a == pytest.approx(b, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# random winit frames
# ---------------------------------------------------------------------------

def group_records(draw, rng, lid_prefix: str) -> list[dict]:
    """winit records of random r-tuple groups, positive facts under
    ``r_<c>`` and negative ones under ``s_<c>``."""
    sizes = draw(
        st.lists(
            st.one_of(st.just(0), st.integers(1, 6), st.integers(100, 300)),
            min_size=1,
            max_size=8,
        )
    )  # 0 = a null-match row
    span = draw(st.sampled_from([3, 8, 40]))  # short spans force ties
    p_one = draw(st.booleans())

    def prob():
        return 1.0 if p_one and rng.random() < 0.3 else float(rng.uniform(0.05, 1.0))

    def fact():
        return (
            [None, "x", "y"][rng.integers(3)],
            [None, 2**60 + 1, -7, 3][rng.integers(4)],
        )

    recs = []
    for g, size in enumerate(sizes):
        r_ts = int(rng.integers(-20, 20))  # -1 is a real time point too
        r_te = r_ts + int(rng.integers(1, span + 1))
        r = dict(zip(["r_name", "r_k"], fact()))
        r.update(r_lid=f"{lid_prefix}{g}", r_p=prob(), r_ts=r_ts, r_te=r_te)
        if size == 0:
            recs.append({**r, "s_name": None, "s_k": None, "s_lid": None,
                         "s_p": None, "o_ts": NO_OVERLAP, "o_te": NO_OVERLAP})
            continue
        for lid in rng.choice(10 * size, size, replace=False):
            o_ts = int(rng.integers(r_ts, r_te))
            o_te = int(rng.integers(o_ts + 1, r_te + 1))
            recs.append({**r, **dict(zip(["s_name", "s_k"], fact())),
                         "s_lid": f"b{lid}", "s_p": prob(), "o_ts": o_ts, "o_te": o_te})
    return recs


def as_frame(recs: list[dict], by: list[str]) -> pd.DataFrame:
    """Records as a winit frame sorted by ``by``, typed as Spark hands
    it to pandas."""
    frame = pd.DataFrame(recs, dtype=object).sort_values(
        by, na_position="first", ignore_index=True
    )
    for c in ("r_p", "s_p"):
        frame[c] = frame[c].astype(float)
    for c in ("r_ts", "r_te", "o_ts", "o_te"):
        frame[c] = frame[c].astype("int64")
    return frame


def cut(draw, spec: pd.DataFrame):
    """``spec`` and its kernel input (integral facts null-free plus null
    flags), cut into the same batches at arbitrary rows."""
    kernel = spec.copy()
    for c in INTEGRAL:
        kernel[columnar.null_flag(c)] = spec[c].isna().to_numpy()
        kernel[c] = spec[c].where(spec[c].notna(), 0).astype("int64")
    n = len(spec)
    cuts = sorted(set(draw(st.lists(st.integers(0, n), max_size=6))) | {0, n})
    return (
        [spec.iloc[a:b] for a, b in zip(cuts, cuts[1:])],
        [kernel.iloc[a:b] for a, b in zip(cuts, cuts[1:])],
    )


WINIT_ORDER = ["r_lid", "o_ts", "o_te", "s_lid"]


@st.composite
def winit_batches(draw):
    """A sorted winit frame as the spec sees it and as the kernel sees
    it, cut into the same batches at arbitrary rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return cut(draw, as_frame(group_records(draw, rng, "a"), WINIT_ORDER))


FACT_SWAP = {  # r_<c> <-> s_<c>, and their null flags
    f"{a}_{c}": f"{b}_{c}" for a, b in (("r", "s"), ("s", "r")) for c in R_FACTS
}
FACT_SWAP.update({columnar.null_flag(a): columnar.null_flag(b) for a, b in FACT_SWAP.items()})


@pytest.mark.parametrize("with_negating, op", OUTPUTS)
@settings(max_examples=40, deadline=None)
@given(batches=winit_batches())
def test_kernel_matches_spec(batches, with_negating, op):
    """The right join's frames are the left join's with s positive: the
    positive facts under ``s_<c>``, the negative ones under ``r_<c>``."""
    spec_batches, kernel_batches = batches
    want = spec_rows(
        spec_batches, R_FACTS, S_FACTS, with_negating, "left" if op == "right" else op
    )
    if op == "right":
        kernel_batches = [b.rename(columns=FACT_SWAP) for b in kernel_batches]
        want = [{FACT_SWAP.get(c, c): v for c, v in rec.items()} for rec in want]
    assert_same_rows(
        kernel_rows(kernel_batches, R_FACTS, S_FACTS, with_negating, op), want
    )


@st.composite
def full_batches(draw):
    """Sorted full-join rows (``windows.winit(..., how="full")``) cut
    into batches, plus the spec's inputs: the side-0 rows and the side-1
    rows with the positive facts under ``r_<c>``.

    Side-1 lids may repeat side-0 lids, which puts an r group and an s
    group under one ``r_lid``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r_groups = group_records(draw, rng, "a")
    s_groups = group_records(draw, rng, draw(st.sampled_from(["a", "c"])))
    rows = [{"side": 0, **rec} for rec in r_groups] + [
        {"side": 1, **{FACT_SWAP.get(c, c): v for c, v in rec.items()}}
        for rec in s_groups
    ]
    frame = as_frame(rows, ["r_lid", "side", "o_ts", "o_te", "s_lid"])
    frame["side"] = frame["side"].astype("int32")
    spec_left = as_frame(r_groups, WINIT_ORDER)
    spec_anti = as_frame(s_groups, WINIT_ORDER)
    return cut(draw, frame)[1], spec_left, spec_anti


@settings(max_examples=40, deadline=None)
@given(batches=full_batches())
def test_full_kernel_matches_left_and_anti_spec(batches):
    """join_sweep ≡ the left spec over the r groups ∪ the anti spec over
    the s groups, whose positive facts land in ``s_<c>``."""
    kernel_batches, spec_left, spec_anti = batches
    got = []
    for frame in group_frames(iter(kernel_batches), "r_lid"):
        got += columnar.join_sweep(frame, R_FACTS, S_FACTS, "full").to_dict("records")
    want = spec_rows([spec_left], R_FACTS, S_FACTS, True, "left")
    for rec in spec_rows([spec_anti], S_FACTS, R_FACTS, True, "anti"):
        want.append({
            **{f"r_{c}": None for c in R_FACTS},
            **{f"s_{c}": rec.pop(c) for c in S_FACTS},
            **rec,
        })
    assert_same_rows(got, want)


def test_paper_group_fig9():
    """The group of a1 (paper Fig. 9) in one frame."""
    frame = pd.DataFrame(
        {
            "r_lid": ["a1", "a1"], "r_p": [0.7, 0.7], "r_ts": [2, 2], "r_te": [8, 8],
            "s_lid": ["b3", "b2"], "s_p": [0.7, 0.6], "o_ts": [4, 5], "o_te": [6, 8],
        }
    )
    out = columnar.join_sweep(frame, [], [], "anti")
    assert sorted(zip(out["lineage"], out["ts"], out["te"], out["p"].round(6))) == [
        ("a1", 2, 4, 0.7),
        ("a1 & ~(b2 | b3)", 5, 6, 0.084),
        ("a1 & ~b2", 6, 8, 0.28),
        ("a1 & ~b3", 4, 5, 0.21),
    ]


def test_null_match_row_mixed_with_matches_is_rejected():
    frame = pd.DataFrame(
        {
            "r_lid": ["a1", "a1"], "r_p": [0.5, 0.5], "r_ts": [0, 0], "r_te": [9, 9],
            "s_lid": [None, "b1"], "s_p": [None, 0.5],
            "o_ts": [NO_OVERLAP, 2], "o_te": [NO_OVERLAP, 4],
        }
    )
    with pytest.raises(ValueError, match="null-match"):
        columnar.join_sweep(frame, [], [], "left")


# ---------------------------------------------------------------------------
# Spark: groups that span Arrow batches
# ---------------------------------------------------------------------------

TP_SCHEMA = "lid string, ts long, te long, p double"
THETA = Theta.equi("k")


@pytest.fixture()
def tiny_batches(spark):
    """Three rows per Arrow batch, so most groups span batches."""
    key = "spark.sql.execution.arrow.maxRecordsPerBatch"
    old = spark.conf.get(key)
    spark.conf.set(key, "3")
    yield spark
    spark.conf.set(key, old)


def _relation(rng, n, lid_prefix, fact, max_len):
    """n tuples with key k (some null) and a unique fact, so that
    tuples of one key may overlap (duplicate-free by construction)."""
    out = []
    for i in range(n):
        ts = int(rng.integers(0, 25))
        out.append((
            [None, "k0", "k1"][rng.integers(3)],
            f"{fact}{i}",
            f"{lid_prefix}{i}",
            ts,
            ts + int(rng.integers(1, max_len + 1)),
            1.0 if i % 5 == 0 else round(float(rng.uniform(0.1, 1.0)), 3),
        ))
    return tp_pdf(out, ["k", fact])


def _inputs(spark):
    rng = np.random.default_rng(5)
    r_pdf = _relation(rng, 10, "a", "name", 20)
    s_pdf = _relation(rng, 30, "b", "h", 8)
    r = spark.createDataFrame(r_pdf, f"k string, name string, {TP_SCHEMA}")
    s = spark.createDataFrame(s_pdf, f"k string, h string, {TP_SCHEMA}")
    return r_pdf, s_pdf, r, s



@pytest.mark.parametrize("op", ["anti", "left", "right", "full"])
def test_groups_spanning_batches_match_reference(tiny_batches, op):
    r_pdf, s_pdf, r, s = _inputs(tiny_batches)
    x = winit(r, s, THETA).toPandas()
    assert x.groupby("r_lid").size().max() > 3  # some group spans batches
    got = rows(negation_join(r, s, THETA, op))
    assert got == rows(reference_negation_join(r_pdf, s_pdf, THETA, op))


def test_all_windows_spanning_batches_match_spec(tiny_batches):
    _, _, r, s = _inputs(tiny_batches)
    x = winit(r, s, THETA).toPandas().sort_values(
        ["r_lid", "o_ts", "o_te", "s_lid"], na_position="first", ignore_index=True
    )
    want = spec_rows([x], ["k", "name"], ["k", "h"], True, None)
    got = [row.asDict() for row in all_windows(r, s, THETA).collect()]
    assert_same_rows(got, want)
