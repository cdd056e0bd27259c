#!/usr/bin/env bash
# CPU time of a running process per thread name, from /proc: user and
# system seconds summed over every live thread that carries the name (all
# connections' `saql-apply` stages together, say), busiest first.
#
#   scripts/thread_cpu.sh PID
#
# Only live threads count — a thread that has exited is in the process
# totals but no longer under /proc/PID/task — so sample while the load
# runs (e.g. every second, keeping the last table).
set -euo pipefail
pid=${1:?usage: scripts/thread_cpu.sh PID}
[ -d "/proc/$pid/task" ] || { echo "no process $pid" >&2; exit 1; }
hz=$(getconf CLK_TCK)

for stat in /proc/"$pid"/task/*/stat; do
    cat "$stat" 2>/dev/null || true # a thread may exit mid-walk
done | awk -v hz="$hz" '
    {
        # The name sits in parentheses and may itself hold spaces or
        # parentheses; the fields after the last ")" start at the state.
        match($0, /\(.*\)/)
        name = substr($0, RSTART + 1, RLENGTH - 2)
        split(substr($0, RSTART + RLENGTH + 1), f, " ")
        threads[name]++
        user[name] += f[12] / hz # utime, field 14 of stat
        sys[name] += f[13] / hz  # stime, field 15
    }
    END {
        for (name in threads)
            printf "%-16s %7d %9.2f %9.2f %9.2f\n", name, threads[name],
                user[name], sys[name], user[name] + sys[name]
    }
' | sort -k5,5 -rn | {
    printf '%-16s %7s %9s %9s %9s\n' thread count user_s sys_s total_s
    cat
}
