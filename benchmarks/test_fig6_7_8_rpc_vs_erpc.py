"""Paper Figs. 6, 7, 8: FLock vs eRPC — throughput, median, 99p latency.

Workload per §8.2: 64-byte requests and responses, one server (all
cores), 23 clients, thread count swept, 1/4/8 outstanding requests per
thread.  Headline claims reproduced:

* eRPC saturates on server CPU while FLock keeps scaling with threads
  (overall 1.25-3.4x throughput in the paper);
* eRPC's median latency degrades to >=2x FLock's at 32 threads;
* FLock's tail stays lower at high fan-in.
"""


def test_fig6_7_8(run_figure):
    run_figure("fig6")
