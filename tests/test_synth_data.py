"""Tests for the synthetic TP workload generators."""
import pytest

from repro.core.theta import Theta
from repro.synth_data import (
    meteo_lite_pdf,
    tp_workload,
    tp_workload_pdf,
    webkit_lite_pdf,
)
from util import random_tp_pdf, validate_tp_pdf


class TestWebkitLite:
    def test_is_valid_tp_relation(self):
        validate_tp_pdf(webkit_lite_pdf(300, seed=1))

    def test_size_and_schema(self):
        pdf = webkit_lite_pdf(300, seed=1)
        assert len(pdf) == 300
        assert list(pdf.columns) == ["file_path", "lid", "ts", "te", "p"]

    def test_many_distinct_facts(self):
        pdf = webkit_lite_pdf(600, seed=1)
        # the paper's WebKit has ~0.32 facts per tuple
        assert pdf["file_path"].nunique() > 0.2 * len(pdf)

    def test_deterministic_in_seed(self):
        assert webkit_lite_pdf(100, seed=5).equals(webkit_lite_pdf(100, seed=5))
        assert not webkit_lite_pdf(100, seed=5).equals(webkit_lite_pdf(100, seed=6))

    def test_probabilities_in_half_open_range(self):
        pdf = webkit_lite_pdf(200, seed=0)
        assert ((pdf["p"] > 0) & (pdf["p"] <= 1)).all()

    def test_shift_preserves_durations(self):
        base = webkit_lite_pdf(200, seed=3)
        shifted = webkit_lite_pdf(200, seed=3, shift=0.3)
        assert (base["te"] - base["ts"]).equals(shifted["te"] - shifted["ts"])
        assert not base["ts"].equals(shifted["ts"])


class TestMeteoLite:
    def test_is_valid_tp_relation(self):
        validate_tp_pdf(meteo_lite_pdf(300, seed=1))

    def test_schema_and_fact_domains(self):
        pdf = meteo_lite_pdf(500, seed=1)
        assert list(pdf.columns) == ["station_id", "value_id", "lid", "ts", "te", "p"]
        assert pdf["station_id"].between(0, 79).all()
        assert pdf["value_id"].between(0, 3).all()

    def test_few_facts(self):
        pdf = meteo_lite_pdf(2000, seed=1)
        assert pdf[["station_id", "value_id"]].drop_duplicates().shape[0] <= 320

    def test_theta_is_weakly_selective(self):
        """A meteo tuple θ-matches far more tuples than a webkit one —
        the property that separates the two workloads in the paper."""
        r, s, theta = tp_workload_pdf("meteo", 400, seed=0)
        m = r.merge(s, on="value_id", suffixes=("_r", "_s"))
        m = m[m["station_id_r"] != m["station_id_s"]]
        m = m[(m["ts_r"] < m["te_s"]) & (m["ts_s"] < m["te_r"])]
        meteo_matches = len(m) / len(r)
        rw, sw, _ = tp_workload_pdf("webkit", 400, seed=0)
        w = rw.merge(sw, on="file_path", suffixes=("_r", "_s"))
        w = w[(w["ts_r"] < w["te_s"]) & (w["ts_s"] < w["te_r"])]
        webkit_matches = len(w) / len(rw)
        assert meteo_matches > 4 * webkit_matches


class TestRandomTp:
    """The property tests' generator, ``util.random_tp_pdf``."""

    @pytest.mark.parametrize("seed", range(8))
    def test_is_valid_tp_relation(self, seed):
        validate_tp_pdf(random_tp_pdf(10, n_facts=3, t_max=25, seed=seed))

    def test_lid_prefix(self):
        pdf = random_tp_pdf(5, seed=0, lid_prefix="zz")
        assert pdf["lid"].str.startswith("zz").all()

    def test_null_frac_nulls_only_keys(self):
        base = random_tp_pdf(200, seed=4)
        nulled = random_tp_pdf(200, seed=4, null_frac=0.3)
        assert 0.2 < nulled["k"].isna().mean() < 0.4
        assert nulled.drop(columns="k").equals(base.drop(columns="k"))
        kept = nulled["k"].notna()
        assert nulled["k"][kept].equals(base["k"][kept])


class TestWorkloadPairs:
    @pytest.mark.parametrize("kind", ["webkit", "meteo"])
    def test_pair_is_valid_and_joinable(self, kind):
        r, s, theta = tp_workload_pdf(kind, 200, seed=0)
        validate_tp_pdf(r)
        validate_tp_pdf(s)
        assert isinstance(theta, Theta)
        assert set(r["lid"]).isdisjoint(set(s["lid"]))

    def test_spark_variant_matches_pandas(self, spark):
        r, s, theta = tp_workload(spark, "webkit", 100, seed=0)
        r_pdf, s_pdf, _ = tp_workload_pdf("webkit", 100, seed=0)
        assert r.count() == len(r_pdf) and s.count() == len(s_pdf)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            tp_workload_pdf("tpch", 10)

