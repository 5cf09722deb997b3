#!/usr/bin/env bash
# CPU profile of a command, without perf or hardware counters.
#
#   scripts/profile.sh [--hz N] [--top N] [--out DIR] -- CMD [ARGS...]
#
# Compiles a small LD_PRELOAD shim with the system C compiler (cc) and
# runs CMD under it. The shim arms ITIMER_PROF, which counts CPU time
# the process consumes, so SIGPROF lands only on threads that are
# running; the handler records the interrupted program counter. At
# exit each process writes its samples and its memory map to DIR.
# The samples are then resolved with `addr2line -f -i` and folded
# into:
#
#   - the share of samples per src/ module: a sample belongs to its
#     innermost inlined frame in src/ (or perfbench/), where helpers in
#     src/common/, such as the RNG, count toward the module that
#     inlined them; other samples are grouped by source file or shared
#     object, such as libm for log();
#   - the hottest source lines, by the same frame.
#
# Profile the program itself, not a wrapper: every process CMD starts
# inherits the shim. For the repository benchmark, after
# `python3 perfbench/run.py ...` has built it:
#
#   scripts/profile.sh -- .bench_build/perfbench --workload fleet-capped \
#       --seed 1 --seconds 10 --trace 0
#
# Options: --hz sampling rate per CPU second (default 1000; the kernel
# delivers at most one SIGPROF per scheduler tick), --top number of
# hot lines (default 20), --out DIR keeps the raw samples (default: a
# temporary directory, removed at exit). A blocked thread takes no
# samples, so time spent waiting does not show.
#
# Exit status: CMD's status; 1 also when no sample was taken or the
# shim does not build.

set -euo pipefail

hz=1000
top=20
out=
keep=0

usage() {
    sed -n '2,/^$/p' "$0" | sed 's/^# \{0,1\}//'
    exit "${1:-0}"
}

while [ $# -gt 0 ]; do
    case "$1" in
      --hz) hz=$2; shift 2 ;;
      --top) top=$2; shift 2 ;;
      --out) out=$2; keep=1; shift 2 ;;
      --) shift; break ;;
      -h|--help) usage 0 ;;
      *) echo "profile.sh: unknown argument '$1'" >&2; usage 1 ;;
    esac
done
if [ $# -eq 0 ]; then
    echo "profile.sh: no command given" >&2
    usage 1
fi
case "$hz" in
  ''|*[!0-9]*|0) echo "profile.sh: --hz must be a positive integer" >&2
                 exit 1 ;;
esac

if [ -z "$out" ]; then
    out=$(mktemp -d "${TMPDIR:-/tmp}/profile.XXXXXX")
fi
mkdir -p "$out"
out=$(cd "$out" && pwd)
cleanup() {
    if [ "$keep" = 0 ]; then
        rm -rf "$out"
    fi
}
trap cleanup EXIT

cat > "$out/shim.c" <<'EOF'
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 21)

static uintptr_t samples[MAX_SAMPLES];
static unsigned long taken;

static void
onProf(int sig, siginfo_t *info, void *ctx)
{
    (void)sig;
    (void)info;
    const ucontext_t *uc = ctx;
#if defined(__x86_64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "profile shim: unsupported architecture"
#endif
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = pc;
}

__attribute__((constructor)) static void
start(void)
{
    const char *hz = getenv("PROFILE_SHIM_HZ");
    long rate = hz ? atol(hz) : 0;
    if (rate <= 0)
        return;
    struct sigaction sa = {0};
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    long us = 1000000 / rate > 0 ? 1000000 / rate : 1;
    struct itimerval it = {{0, us}, {0, us}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void
stop(void)
{
    const char *dir = getenv("PROFILE_SHIM_DIR");
    if (!dir)
        return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    unsigned long n = __atomic_load_n(&taken, __ATOMIC_RELAXED);
    if (n > MAX_SAMPLES)
        n = MAX_SAMPLES;
    char path[4096];
    snprintf(path, sizeof path, "%s/samples.%ld", dir, (long)getpid());
    FILE *f = fopen(path, "w");
    if (!f)
        return;
    for (unsigned long i = 0; i < n; ++i)
        fprintf(f, "%lx\n", (unsigned long)samples[i]);
    fclose(f);
    snprintf(path, sizeof path, "%s/maps.%ld", dir, (long)getpid());
    FILE *in = fopen("/proc/self/maps", "r");
    FILE *o = fopen(path, "w");
    char buf[8192];
    size_t got;
    while (in && o && (got = fread(buf, 1, sizeof buf, in)) > 0)
        fwrite(buf, 1, got, o);
    if (in)
        fclose(in);
    if (o)
        fclose(o);
}
EOF

if ! cc -O2 -shared -fPIC -o "$out/shim.so" "$out/shim.c" 2> "$out/shim.err"; then
    echo "profile.sh: building the sampling shim failed:" >&2
    cat "$out/shim.err" >&2
    exit 1
fi

status=0
PROFILE_SHIM_DIR="$out" PROFILE_SHIM_HZ="$hz" \
    LD_PRELOAD="$out/shim.so${LD_PRELOAD:+:$LD_PRELOAD}" "$@" || status=$?

repo=$(cd "$(dirname "$0")/.." && pwd)
if ! python3 - "$out" "$top" "$hz" "$repo" <<'EOF'
import bisect
import collections
import glob
import os
import re
import struct
import subprocess
import sys

out, top, hz, repo = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]


def load_segments(path):
    """(p_offset, p_vaddr, p_filesz) of each PT_LOAD segment of an ELF."""
    try:
        with open(path, "rb") as f:
            ident = f.read(64)
            if ident[:4] != b"\x7fELF" or ident[4] != 2:
                return []
            end = "<" if ident[5] == 1 else ">"
            phoff, = struct.unpack_from(end + "Q", ident, 32)
            phentsize, phnum = struct.unpack_from(end + "HH", ident, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return []
    segs = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            end + "IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segs.append((p_offset, p_vaddr, p_filesz))
    return segs


def file_address(segs, file_off):
    for p_offset, p_vaddr, p_filesz in segs:
        if p_offset <= file_off < p_offset + p_filesz:
            return p_vaddr + (file_off - p_offset)
    return None


# Every sample becomes (object, address in the object's ELF view).
by_object = collections.defaultdict(collections.Counter)
unmapped = 0
total = 0
procs = 0
segments = {}
for sample_file in sorted(glob.glob(os.path.join(out, "samples.*"))):
    pid = sample_file.rsplit(".", 1)[1]
    with open(sample_file) as f:
        pcs = [int(line, 16) for line in f if line.strip()]
    if not pcs:
        continue
    procs += 1
    maps = []
    with open(os.path.join(out, "maps." + pid)) as f:
        for line in f:
            parts = line.split(None, 5)
            if len(parts) < 6 or "x" not in parts[1]:
                continue
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            maps.append((lo, hi, int(parts[2], 16), parts[5].strip()))
    maps.sort()
    starts = [m[0] for m in maps]
    for pc in pcs:
        total += 1
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1] or not maps[i][3].startswith("/"):
            unmapped += 1
            continue
        lo, _, off, path = maps[i]
        if path not in segments:
            segments[path] = load_segments(path)
        addr = file_address(segments[path], pc - lo + off)
        if addr is None:
            unmapped += 1
            continue
        by_object[path][addr] += 1

if total == 0:
    print("profile.sh: no samples taken", file=sys.stderr)
    sys.exit(1)

# A location's module: its directory under src/, or perfbench.
module_re = re.compile(r"(?:^|/)(?:src/([^/]+)|(perfbench))/")
addr_re = re.compile(r"0x[0-9a-f]+")


def last_module_dir(loc):
    """The last src/<module>/ or perfbench/ component of a location."""
    path = os.path.normpath(loc.split(" ")[0])
    found = list(module_re.finditer(path))
    return (path, found[-1]) if found else (path, None)


def module_of(loc):
    _, m = last_module_dir(loc)
    return (m.group(1) or m.group(2)) if m else None


def shorten(loc):
    path, m = last_module_dir(loc)
    return path[m.start():].lstrip("/") if m else os.path.basename(path)


modules = collections.Counter()
lines = collections.Counter()
where = {}
for obj, addrs in by_object.items():
    order = sorted(addrs)
    res = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", obj],
        input="".join(f"{a:x}\n" for a in order), capture_output=True,
        text=True, check=False)
    # -a starts each address's block with the address itself; -i then
    # lists (function, file:line) pairs from the innermost frame out.
    blocks = []
    for line in res.stdout.splitlines():
        if addr_re.fullmatch(line):
            blocks.append([])
        elif blocks:
            blocks[-1].append(line)
    if len(blocks) != len(order):
        blocks = [[] for _ in order]
    for addr, block in zip(order, blocks):
        n = addrs[addr]
        frames = [(block[k], block[k + 1]) for k in range(0, len(block) - 1, 2)
                  if not block[k + 1].startswith("??")]
        # The sample belongs to the innermost frame in the repository's
        # own modules; helpers in src/common/ (the RNG, say) count
        # toward the module that inlined them.
        ours = [f for f in frames if module_of(f[1])]
        rep = next((f for f in ours if module_of(f[1]) != "common"),
                   ours[0] if ours else (frames[0] if frames else None))
        if rep is None:
            key = module = "[" + os.path.basename(obj) + "]"
            fn = ""
        else:
            fn, loc = rep
            key = shorten(loc)
            module = module_of(loc) or "[" + key.split(":")[0] + "]"
        modules[module] += n
        lines[key] += n
        where.setdefault(key, fn)

print(f"profile: {total} samples at {hz} Hz from {procs} process(es)"
      + (f", {unmapped} outside any mapped file" if unmapped else ""))
print("module shares:")
for module, n in modules.most_common():
    print(f"  {module:<28} {100.0 * n / total:6.1f}%  {n:>8}")
if unmapped:
    print(f"  {'[unmapped]':<28} {100.0 * unmapped / total:6.1f}%  "
          f"{unmapped:>8}")
print(f"hottest lines, top {top}:")
for key, n in lines.most_common(top):
    fn = where[key]
    if len(fn) > 60:
        fn = fn[:57] + "..."
    print(f"  {100.0 * n / total:6.1f}%  {key:<40} {fn}")
EOF
then
    [ "$status" = 0 ] && status=1
fi
exit "$status"
