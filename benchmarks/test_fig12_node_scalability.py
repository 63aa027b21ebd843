"""Paper Fig. 12: node scalability with increasing client processes.

One server, 23 client nodes spawning 1..16 processes each (up to 368
clients).  Three configurations, as in §8.4:

* ``1 thrd/1 QP`` — FLock worst case: one thread per process, no
  coalescing possible;
* ``2 thrds/1 QP`` — FLock sharing one QP between the two threads;
* ``2 thrds/2 QPs`` — native RC: a dedicated QP per thread, no FLock
  machinery (the no-sharing baseline).

Claims: the shared-QP config beats dedicated QPs by 10-30% between 46
and 368 clients while using half the QPs.
"""


def test_fig12(run_figure):
    run_figure("fig12")
