"""Figure 5(b): activated vertices of edge additions over edge deletions.

The ``fig5b`` artifact of :mod:`repro.bench.reporting`.  Paper result:
across datasets and algorithms CISGraph activates more vertices for edge
additions than for edge deletions before the response (on average
``repro.bench.paper.FIG5B_ADD_OVER_DEL`` times as many; deletions are
identified and mostly delayed/dropped, avoiding the tagging explosion of
prior systems); Viterbi is the counter-example where deletions activate
more.
"""

from repro.bench.charts import grouped_bars


def test_fig5b(reproduce, emit):
    """The deferral claim: deletion work happens after the response."""
    results = reproduce("fig5b")
    emit(
        grouped_bars(
            [
                (
                    f"{r.dataset}/{r.algorithm}",
                    {
                        "add": float(r.addition_activations),
                        "del": float(r.deletion_activations),
                    },
                )
                for r in results
            ],
            series=["add", "del"],
            width=40,
            value_format="{:.0f}",
            title="Figure 5(b) as bars (activated vertices)",
        )
    )
