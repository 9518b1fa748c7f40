"""The temporal-probabilistic data model: schema conventions."""
