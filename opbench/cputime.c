/* CPU time of the calling process, in seconds: the benchmark runs on one
   domain, so this is its busy time, without the time other processes on
   the host kept it off the CPU. */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

value opbench_cputime(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
