/* Process accounting the OCaml Unix library does not expose: per-child
   resource usage from wait4(2), the clock-tick rate of /proc/<pid>/stat
   and the CPU count of the scheduler affinity mask (what nproc prints). */

#define _GNU_SOURCE
#include <errno.h>
#include <sched.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

static double seconds(struct timeval tv)
{
  return (double)tv.tv_sec + (double)tv.tv_usec * 1e-6;
}

/* wait4 pid -> (exit code, user s, sys s, max rss KiB); a signal death
   is reported as 128 + signal, like a shell does. */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  int err;
  caml_enter_blocking_section();
  do {
    r = wait4(Int_val(vpid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  err = errno;
  caml_leave_blocking_section();
  if (r < 0) caml_failwith(strerror(err));
  res = caml_alloc_tuple(4);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : 128 + WTERMSIG(status)));
  Store_field(res, 1, caml_copy_double(seconds(ru.ru_utime)));
  Store_field(res, 2, caml_copy_double(seconds(ru.ru_stime)));
  Store_field(res, 3, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

value perfbench_clk_tck(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_CLK_TCK));
}

value perfbench_nproc(value unit)
{
  cpu_set_t set;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return Val_int(CPU_COUNT(&set));
  return Val_long(sysconf(_SC_NPROCESSORS_ONLN));
}

/* Restrict the calling thread, and every process and thread it starts
   afterwards, to the highest-numbered CPU of its affinity mask. Returns
   that CPU, or -1 when the mask cannot be read or set. */
value perfbench_pin_last_cpu(value unit)
{
  cpu_set_t set;
  int cpu = -1;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  for (int i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) cpu = i;
  if (cpu < 0) return Val_int(-1);
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  return Val_int(cpu);
}
