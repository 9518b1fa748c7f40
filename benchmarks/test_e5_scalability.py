"""E5 (paper Fig. 15): NJ-only scalability at larger inputs.

TA is excluded, as in the paper ("its runtimes were already one to
four orders of magnitude higher"). One cell per workload at 2.5x the
E1-E4 benchmark size; the full sweep is ``python -m repro.bench e5``.
"""
import pytest

from repro.bench.harness import materialize
from repro.core.negation_joins import negation_join
from repro.synth_data import tp_workload

ROUNDS = dict(rounds=2, iterations=1, warmup_rounds=0)

SCALE_N = {"webkit": 20_000, "meteo": 2_500}


@pytest.fixture(scope="module", params=["webkit", "meteo"])
def scaled_inputs(request, spark):
    r, s, theta = tp_workload(spark, request.param, SCALE_N[request.param])
    yield request.param, materialize(r), materialize(s), theta
    r.unpersist()
    s.unpersist()


@pytest.mark.benchmark(group="e5-scalability")
def test_e5_nj_loj_scaled(benchmark, scaled_inputs):
    kind, r, s, theta = scaled_inputs
    benchmark.extra_info["workload"] = kind
    benchmark.extra_info["n_tuples"] = SCALE_N[kind]
    rows = benchmark.pedantic(
        lambda: negation_join(r, s, theta, "left").count(), **ROUNDS
    )
    assert rows > 0
