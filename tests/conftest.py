from hypothesis import settings

# Selected in CI with --hypothesis-profile=ci.  A failure there prints the
# blob that replays it locally (the example database is not shared with CI),
# and the search stays random instead of the derandomized CI default.
settings.register_profile("ci", print_blob=True, derandomize=False)
