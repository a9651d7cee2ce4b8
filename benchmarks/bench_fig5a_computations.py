"""Figure 5(a): computations in CISGraph vs CS, normalised to CS (OR).

The ``fig5a`` artifact of :mod:`repro.bench.reporting`.  The
reproduction's reduction is typically much larger than the paper's
average (``repro.bench.paper.FIG5A_NORMALIZED_MEAN``) because the scaled
batches touch a smaller graph fraction — the *shape* (CISGraph below CS on
every algorithm) is the claim under test.
"""

from repro.bench.charts import horizontal_bars


def test_fig5a(reproduce, emit):
    results = reproduce("fig5a")
    emit(
        horizontal_bars(
            [("cs (any)", 1.0)]
            + [(f"cisgraph {r.algorithm}", r.normalized) for r in results],
            width=50,
            max_value=1.0,
            value_format="{:.4f}",
            title="Figure 5(a) as bars (computations normalised to CS)",
        )
    )
