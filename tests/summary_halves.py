"""``run_summary``'s two halves, computed in the calling process."""
from qdtp import metrics


def summary_in_process(trace) -> dict:
    """What ``run_summary`` returns, without its forked child.

    ``run_summary`` computes the ``queues`` and ``attack`` sections in a
    child process, where ``tracemalloc`` sees nothing; this computes both
    halves here, one after the other.
    """
    columns = metrics._admitted_columns(trace.packets)
    return {
        **metrics._whole_run_summary(trace, columns),
        **metrics._queues_and_attack_summary(trace, columns),
    }
