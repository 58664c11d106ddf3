from hypothesis import settings

# Every property draws the same examples on every run, so a failure
# reproduces, and has no per-example deadline: first calls into numpy and
# scipy pay one-off set-up that says nothing about the code under test.
settings.register_profile("frbl", derandomize=True, deadline=None)
settings.load_profile("frbl")
