import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile("default", deadline=None, max_examples=40)
hypothesis.settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pytest_collection_modifyitems(items):
    """Run slow tests last, and the shared 3-seed acceptance study last of all.

    The study trains six default-scale models before its first test can
    report, so a time-boxed run would otherwise stop there without reaching
    the quick tests collected after it. Nothing is skipped or deselected;
    only the order changes (the sort is stable within each group).
    """
    items.sort(key=lambda item: (item.get_closest_marker("slow") is not None,
                                 "study" in item.fixturenames))
