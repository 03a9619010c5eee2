"""Test settings shared by every module.

Hypothesis runs without its per-example deadline: the first call into a
memoized function (``psi``, the text-to-tree maps, the monomial folds) pays
for filling the cache, and can exceed the default 200 ms on a slow host.
"""

try:
    from hypothesis import settings
except ImportError:  # the tests that need Hypothesis import it themselves
    pass
else:
    settings.register_profile("prelie", deadline=None)
    settings.load_profile("prelie")
