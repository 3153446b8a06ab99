/* Tallies the bytes a program hands to memcpy and memmove, by call site.
 *
 * Build and use (tools/profile_flat.sh does both):
 *
 *   cc -O2 -shared -fPIC -fno-builtin -fno-tree-loop-distribute-patterns \
 *      -o copy_shim.so tools/copy_shim.c -ldl
 *   LD_PRELOAD=./copy_shim.so ./perfbench ...
 *
 * Every memcpy/memmove call that goes through the dynamic linker (the
 * program's own calls and libstdc++'s; not copies the compiler inlined, nor
 * libc's internal ones) adds its length and one call to the entry of its
 * return address. The table is a fixed-size open-addressing hash updated
 * with atomics, so any number of threads may copy at once and the shim
 * never allocates. At exit it writes copy_shim.<pid>.txt in the working
 * directory, one line per call site:
 *
 *   <offset> <bytes> <calls>
 *
 * where <offset> is the return address minus its object's load bias, in
 * hex -- what `addr2line -e <object>` expects. Lines for call sites in the
 * main program come first; a site in a shared library is written as a
 * comment line, "# <library> <offset> <bytes> <calls>".
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <stdatomic.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <unistd.h>

#define TABLE_SIZE 8192 /* power of two; far more call sites than any run has */

struct site {
  _Atomic uintptr_t ret;
  _Atomic uint64_t bytes;
  _Atomic uint64_t calls;
};

static struct site table[TABLE_SIZE];
static _Atomic uint64_t dropped_bytes;
static _Atomic uint64_t dropped_calls;

typedef void* (*copy_fn)(void*, const void*, size_t);
static copy_fn real_memcpy;
static copy_fn real_memmove;

/* Used until dlsym has resolved the real functions (dlsym may copy too). */
static void* slow_copy(void* dst, const void* src, size_t n) {
  unsigned char* d = dst;
  const unsigned char* s = src;
  if (d < s) {
    for (size_t i = 0; i < n; ++i) d[i] = s[i];
  } else {
    for (size_t i = n; i-- > 0;) d[i] = s[i];
  }
  return dst;
}

static void tally(uintptr_t ret, size_t n) {
  size_t h = (size_t)((ret >> 2) * 0x9e3779b97f4a7c15ULL) & (TABLE_SIZE - 1);
  for (size_t probe = 0; probe < TABLE_SIZE; ++probe) {
    struct site* s = &table[(h + probe) & (TABLE_SIZE - 1)];
    uintptr_t cur = atomic_load_explicit(&s->ret, memory_order_acquire);
    if (cur == 0) {
      uintptr_t expected = 0;
      if (atomic_compare_exchange_strong(&s->ret, &expected, ret)) {
        cur = ret;
      } else {
        cur = expected;
      }
    }
    if (cur == ret) {
      atomic_fetch_add_explicit(&s->bytes, n, memory_order_relaxed);
      atomic_fetch_add_explicit(&s->calls, 1, memory_order_relaxed);
      return;
    }
  }
  atomic_fetch_add_explicit(&dropped_bytes, n, memory_order_relaxed);
  atomic_fetch_add_explicit(&dropped_calls, 1, memory_order_relaxed);
}

static void resolve(void) {
  static _Atomic int resolving;
  if (atomic_exchange(&resolving, 1)) return; /* re-entered from dlsym */
  real_memcpy = (copy_fn)dlsym(RTLD_NEXT, "memcpy");
  real_memmove = (copy_fn)dlsym(RTLD_NEXT, "memmove");
}

void* memcpy(void* dst, const void* src, size_t n) {
  tally((uintptr_t)__builtin_return_address(0), n);
  if (!real_memcpy) resolve();
  return real_memcpy ? real_memcpy(dst, src, n) : slow_copy(dst, src, n);
}

void* memmove(void* dst, const void* src, size_t n) {
  tally((uintptr_t)__builtin_return_address(0), n);
  if (!real_memmove) resolve();
  return real_memmove ? real_memmove(dst, src, n) : slow_copy(dst, src, n);
}

/* Finds the loaded object holding one return address. */
struct lookup {
  uintptr_t addr;
  uintptr_t bias;
  const char* name;
  int found;
};

static int find_object(struct dl_phdr_info* info, size_t size, void* data) {
  (void)size;
  struct lookup* l = data;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)* ph = &info->dlpi_phdr[i];
    if (ph->p_type != PT_LOAD) continue;
    const uintptr_t lo = info->dlpi_addr + ph->p_vaddr;
    if (l->addr >= lo && l->addr < lo + ph->p_memsz) {
      l->bias = info->dlpi_addr;
      l->name = info->dlpi_name;
      l->found = 1;
      return 1;
    }
  }
  return 0;
}

__attribute__((destructor)) static void write_tally(void) {
  char path[64];
  snprintf(path, sizeof path, "copy_shim.%d.txt", (int)getpid());
  FILE* out = fopen(path, "w");
  if (!out) return;
  for (int pass = 0; pass < 2; ++pass) { /* main program first */
    for (size_t i = 0; i < TABLE_SIZE; ++i) {
      const uintptr_t ret = atomic_load(&table[i].ret);
      if (ret == 0) continue;
      struct lookup l = {ret, 0, "", 0};
      dl_iterate_phdr(find_object, &l);
      const int in_main = l.found && l.name[0] == '\0';
      const unsigned long long bytes = atomic_load(&table[i].bytes);
      const unsigned long long calls = atomic_load(&table[i].calls);
      if (pass == 0 && in_main) {
        fprintf(out, "%lx %llu %llu\n", (unsigned long)(ret - l.bias), bytes, calls);
      } else if (pass == 1 && !in_main) {
        fprintf(out, "# %s %lx %llu %llu\n", l.found ? l.name : "?",
                (unsigned long)(ret - l.bias), bytes, calls);
      }
    }
  }
  fprintf(out, "# unrecorded %llu %llu\n",
          (unsigned long long)atomic_load(&dropped_bytes),
          (unsigned long long)atomic_load(&dropped_calls));
  fclose(out);
}
