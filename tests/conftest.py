from hypothesis.configuration import set_hypothesis_home_dir


def pytest_configure(config):
    # Hypothesis caches the constants it finds in local source under its home
    # directory, even with database=None; keep that cache inside pytest's own.
    if getattr(config, "cache", None) is not None:
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))
