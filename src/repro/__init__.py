"""Reproduction of "Outer and Anti Joins in Temporal-Probabilistic
Databases" (Papaioannou, Theobald, Böhlen — ICDE 2019) on PySpark.

Modules: :mod:`repro.lineage` (the lineage text and closed-form
probability of the output tuples), :mod:`repro.tp` (the TP schema
convention), :mod:`repro.core` (generalized lineage-aware temporal
windows, the LAWA sweeps and the NegationJoins operator),
:mod:`repro.baselines` (the Temporal Alignment comparator), and
:mod:`repro.bench` (the evaluation-section experiments).
"""
