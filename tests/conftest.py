from hypothesis import settings

# Property tests draw the same examples on every run and have no time limit
# per example, so a slow or shared host cannot make them flaky.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
