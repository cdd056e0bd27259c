#!/usr/bin/env python3
"""Where a running process's threads spend their CPU, by sampling them.

    scripts/profile.py PID [--seconds S] [--hz H] [--top N]

Every 1/H seconds, for S seconds, each thread of PID that is running
(state `R` in /proc/PID/task/TID/stat) is stopped with PTRACE_INTERRUPT
(after PTRACE_SEIZE), its registers are read with PTRACE_GETREGS, its
stack is walked along the frame-pointer chain with process_vm_readv, and
it is let go. Addresses are named with `nm -C` for the executable and
`nm -D -C` for shared libraries, each placed at the start of its offset-0
mapping in /proc/PID/maps. Then, per thread name, it prints the top N
functions by self samples (the sampled instruction) and by inclusive
samples (anywhere on the stack).

A sample counts only if its thread is in state `R` and its instruction is
not in libc's `syscall`: a runnable thread waiting for a CPU, or one
entering a futex wait, is not spending CPU. Stacks are only as deep as
the frame pointers go, so profile a build that keeps them, in a target
directory of its own:

    RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR=target-fp \\
        cargo build --release -p saql-cli

`nm -D` sees only a library's exported symbols, so a static function
inside libc (malloc's internals, thread start) is named after the nearest
export below it, such as `__default_morecore` or `__nss_database_lookup`.

x86-64 Linux only. It needs the right to ptrace PID (the same user, and
a kernel.yama.ptrace_scope that allows it, or CAP_SYS_PTRACE).
"""

import argparse
import bisect
import collections
import ctypes
import os
import re
import subprocess
import sys
import time

PTRACE_CONT, PTRACE_GETREGS = 7, 12
PTRACE_SEIZE, PTRACE_INTERRUPT = 0x4206, 0x4207
WALL = 0x40000000
MAX_DEPTH = 128

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


class Regs(ctypes.Structure):
    """struct user_regs_struct on x86-64."""

    _fields_ = [
        (name, ctypes.c_ulonglong)
        for name in "r15 r14 r13 r12 rbp rbx r11 r10 r9 r8 rax rcx rdx rsi rdi orig_rax "
        "rip cs eflags rsp ss fs_base gs_base ds es fs gs".split()
    ]


class IoVec(ctypes.Structure):
    _fields_ = [("base", ctypes.c_void_p), ("len", ctypes.c_size_t)]


def ptrace(request, tid, data=0):
    return libc.ptrace(request, tid, None, ctypes.c_void_p(data)) == 0


def interrupt(tid):
    """Stop a seized thread; False once it is gone. A signal that arrives
    first is passed on, and the requested stop follows it."""
    if not ptrace(PTRACE_INTERRUPT, tid):
        return False
    status = ctypes.c_int()
    while libc.waitpid(tid, ctypes.byref(status), WALL) == tid:
        s = status.value
        if (s & 0xFF) != 0x7F:  # exited or killed
            return False
        if s >> 16:  # PTRACE_EVENT_STOP: the stop asked for
            return True
        ptrace(PTRACE_CONT, tid, (s >> 8) & 0xFF)
    return False


def read_words(pid, addr, n):
    buf = (ctypes.c_ulonglong * n)()
    local = IoVec(ctypes.cast(buf, ctypes.c_void_p), 8 * n)
    remote = IoVec(ctypes.c_void_p(addr), 8 * n)
    got = libc.process_vm_readv(pid, ctypes.byref(local), 1, ctypes.byref(remote), 1, 0)
    return list(buf) if got == 8 * n else None


def stack(pid, regs):
    """The sampled instruction, then each return address on the chain."""
    frames, fp = [regs.rip], regs.rbp
    while fp and len(frames) < MAX_DEPTH:
        words = read_words(pid, fp, 2)
        if not words or not words[1]:
            break
        frames.append(words[1] - 1)  # inside the call, not after it
        if words[0] <= fp:
            break
        fp = words[0]
    return frames


class Symbols:
    """Function names for the executable and shared objects of a process."""

    HASH = re.compile(r"::h[0-9a-f]{16}$")

    def __init__(self, pid):
        exe = os.path.realpath(f"/proc/{pid}/exe")
        self.starts, self.names = [], []
        with open(f"/proc/{pid}/maps") as maps:
            for line in maps:
                cols = line.split()
                if len(cols) < 6 or int(cols[2], 16) != 0 or not cols[5].startswith("/"):
                    continue
                base, path = int(cols[0].split("-")[0], 16), cols[5]
                flags = ["-C"] if path == exe else ["-D", "-C"]
                lib = os.path.basename(path)
                for addr, name in self.nm(flags, path):
                    self.starts.append(base + addr)
                    self.names.append((lib, name))
        order = sorted(range(len(self.starts)), key=self.starts.__getitem__)
        self.starts = [self.starts[i] for i in order]
        self.names = [self.names[i] for i in order]

    def nm(self, flags, path):
        try:
            out = subprocess.run(["nm", "--defined-only", *flags, path],
                                 capture_output=True, text=True).stdout
        except OSError:
            return
        for line in out.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "tTwWiI" and parts[0]:
                # `name@@GLIBC_2.2.5`: a shared object's versioned symbol.
                yield int(parts[0], 16), self.HASH.sub("", parts[2].split("@")[0])

    def lookup(self, addr):
        i = bisect.bisect_right(self.starts, addr) - 1
        return self.names[i] if i >= 0 else ("?", hex(addr))


def thread_state(pid, tid):
    try:
        with open(f"/proc/{pid}/task/{tid}/stat") as f:
            stat = f.read()
        with open(f"/proc/{pid}/task/{tid}/comm") as f:
            return stat[stat.rindex(")") + 2], f.read().strip()
    except (OSError, ValueError):
        return None, None


def sample(pid, seconds, hz):
    """{thread name: [stack of (lib, function)]} over the window."""
    symbols = Symbols(pid)
    seized, samples = set(), collections.defaultdict(list)
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        tick = time.monotonic()
        for tid in map(int, os.listdir(f"/proc/{pid}/task")):
            if tid not in seized and ptrace(PTRACE_SEIZE, tid):
                seized.add(tid)
            state, name = thread_state(pid, tid)
            if state != "R" or tid not in seized:
                continue
            if not interrupt(tid):
                seized.discard(tid)
                continue
            regs = Regs()
            if ptrace(PTRACE_GETREGS, tid, ctypes.addressof(regs)):
                frames = [symbols.lookup(a) for a in stack(pid, regs)]
                if not (frames[0][1] == "syscall" and frames[0][0].startswith("libc")):
                    samples[name].append(frames)
            ptrace(PTRACE_CONT, tid)
        time.sleep(max(0.0, 1.0 / hz - (time.monotonic() - tick)))
    # Seized threads run on untouched; they are detached when this process
    # exits (interrupting a sleeping one could end its syscall with EINTR).
    return samples


def report(samples, top):
    for name in sorted(samples, key=lambda n: -len(samples[n])):
        stacks = samples[name]
        own = collections.Counter(f"{s[0][1]}" for s in stacks)
        incl = collections.Counter(f for s in stacks for f in {frame[1] for frame in s})
        print(f"== {name}: {len(stacks)} samples")
        for title, counts in (("self", own), ("inclusive", incl)):
            print(f"  {title}")
            for func, n in counts.most_common(top):
                print(f"    {100 * n / len(stacks):5.1f}%  {func[:110]}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("pid", type=int)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--hz", type=float, default=100.0)
    ap.add_argument("--top", type=int, default=10)
    args = ap.parse_args()
    if not os.path.isdir(f"/proc/{args.pid}/task"):
        sys.exit(f"no process {args.pid}")
    report(sample(args.pid, args.seconds, args.hz), args.top)


if __name__ == "__main__":
    main()
