/* The process's CPU clock — time any of its threads spent running, not
   time other processes ran while it waited to be scheduled — and the
   calling thread's count of voluntary context switches: it grows when the
   thread blocks (I/O, fsync, a lock, a join), but not when it is
   preempted. */

#define _GNU_SOURCE
#include <time.h>
#include <sys/resource.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double perfbench_cpu_ns_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return (double)ts.tv_sec * 1e9 + (double)ts.tv_nsec;
}

value perfbench_cpu_ns(value unit)
{
  return caml_copy_double(perfbench_cpu_ns_unboxed(unit));
}

intnat perfbench_blocked_unboxed(value unit)
{
  struct rusage ru;
  (void)unit;
  getrusage(RUSAGE_THREAD, &ru);
  return (intnat)ru.ru_nvcsw;
}

value perfbench_blocked(value unit)
{
  return Val_long(perfbench_blocked_unboxed(unit));
}
