"""The package's public surface is what README's Library section documents."""

import marketflow

# README, "Library": these names, and nothing else, come from the package.
DOCUMENTED = {"DegenerateBookError", "FlowRegime", "SeriesBundle", "SimConfig",
              "TickRecord", "run"}


def test_exports_are_the_documented_names():
    assert set(marketflow.__all__) == DOCUMENTED
    for name in marketflow.__all__:
        assert hasattr(marketflow, name), name
