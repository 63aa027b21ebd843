"""Extension benchmark (paper §9): multi-tenant QP allocation.

The paper sketches Snap-style multi-application support; our
:class:`repro.flock.TenantManager` implements it as hierarchical
weighted-fair splitting of the MAX_AQP budget.  This bench runs two
equally aggressive applications with 3:1 weights against one server and
checks that (a) active QPs follow the weights, (b) the budget holds,
and (c) the light tenant is never starved.
"""


def test_ext_multitenancy(run_figure):
    run_figure("multitenancy")
