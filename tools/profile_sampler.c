/*
 * A SIGPROF sampler loaded with LD_PRELOAD (x86-64 Linux); built and
 * driven by tools/profile.sh.
 *
 * setitimer(ITIMER_PROF) raises SIGPROF RATE_HZ times per second of
 * process CPU time. Each sample records the interrupted
 * program counter, the word at the top of the stack and the return
 * addresses of up to MAX_DEPTH frame-pointer frames. The word at the
 * top of the stack is the return address whenever the program counter
 * is in a leaf that keeps no frame, such as libc's memcpy, so such a
 * sample can be charged to the direct caller. At exit the samples and
 * /proc/self/maps are written to the file named by PROF_OUT, one
 * sample per line in hex.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define RATE_HZ 1000
#define MAX_DEPTH 32
#define RECORD (MAX_DEPTH + 3) /* count, pc, top of stack, frames */
#define MAX_RECORDS (1 << 17)
/* Frame pointers further than this above the stack pointer are not
 * followed: the chain has left the stack. */
#define MAX_STACK (8u << 20)

static uint64_t records[MAX_RECORDS][RECORD];
static size_t taken;
static uint64_t dropped;

static void on_prof(int sig, siginfo_t *info, void *arg) {
    (void)sig;
    (void)info;
    size_t at = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (at >= MAX_RECORDS) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        return;
    }
    const ucontext_t *uc = arg;
    uint64_t sp = (uint64_t)uc->uc_mcontext.gregs[REG_RSP];
    uint64_t fp = (uint64_t)uc->uc_mcontext.gregs[REG_RBP];
    uint64_t *rec = records[at];
    size_t n = 1;
    rec[n++] = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
    rec[n++] = *(const uint64_t *)sp;
    while (n < RECORD && fp >= sp && fp - sp < MAX_STACK && (fp & 7) == 0) {
        const uint64_t *frame = (const uint64_t *)fp;
        rec[n++] = frame[1];
        if (frame[0] <= fp)
            break;
        fp = frame[0];
    }
    rec[0] = n - 1;
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, 1000000 / RATE_HZ}, {0, 1000000 / RATE_HZ}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROF_OUT");
    FILE *out = fopen(path ? path : "prof.out", "w");
    if (!out)
        return;
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    while (maps && fgets(line, sizeof line, maps))
        fprintf(out, "map %s", line);
    if (maps)
        fclose(maps);
    size_t n = taken < MAX_RECORDS ? taken : MAX_RECORDS;
    fprintf(out, "dropped %llu\n", (unsigned long long)dropped);
    for (size_t i = 0; i < n; i++) {
        fputs("sample", out);
        for (uint64_t k = 1; k <= records[i][0]; k++)
            fprintf(out, " %llx", (unsigned long long)records[i][k]);
        fputc('\n', out);
    }
    fclose(out);
}
