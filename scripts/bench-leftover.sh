#!/usr/bin/env bash
# Runs one short benchmark workload, then lists every process that
# started after the run began and is still alive once it has exited, and
# fails if there is any. Run from the repository root:
#
#   bash scripts/bench-leftover.sh cold_regular      (or: make bench-leftover W=cold_regular)
#
# The run's own output goes to stdout unchanged, so its last line is
# still the run's JSON summary; the check reports on stderr. A process's
# start time is field 22 of /proc/PID/stat, in clock ticks since boot.
# This script and its ancestors are left out, and so are zombies (state
# Z: they have exited and only wait to be reaped) and kernel threads
# (children of kthreadd, PID 2), which the kernel starts on its own.
set -euo pipefail

workload=${1:?usage: bench-leftover.sh WORKLOAD}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
ticks=$(getconf CLK_TCK)

# procstat PID: sets f to the fields of /proc/PID/stat from field 3 on,
# read in one go without a fork, so f[0] is the state, f[1] the parent
# and f[19] the start time; fails if the process is gone. The command
# name (field 2) may hold spaces and parentheses, so fields are counted
# after its closing parenthesis.
procstat() {
	local line
	read -r line <"/proc/$1/stat" 2>/dev/null || return 1
	read -r -a f <<<"${line##*) }"
}

read -r up _ </proc/uptime
began=$(( ${up%.*} * ticks + 10#${up#*.} * ticks / 100 ))

bash "$root/benchmark/run.sh" --workload "$workload" --seed 1 --seconds 2 --trace 0

declare -A mine=()
pid=$$
while [ "$pid" -gt 1 ] && procstat "$pid"; do
	mine[$pid]=1
	pid=${f[1]}
done

left=0
for dir in /proc/[0-9]*; do
	pid=${dir#/proc/}
	[ -z "${mine[$pid]:-}" ] && procstat "$pid" || continue
	if [ "${f[19]}" -ge "$began" ] && [ "${f[0]}" != Z ] && [ "${f[1]}" != 2 ]; then
		cmd=$(tr '\0' ' ' <"$dir/cmdline" 2>/dev/null || true)
		echo "bench-leftover: pid $pid (parent ${f[1]}, state ${f[0]}, started $((f[19] - began)) ticks into the run) is still alive: ${cmd:-?}" >&2
		left=$((left + 1))
	fi
done
if [ "$left" -gt 0 ]; then
	echo "bench-leftover: $left process(es) outlived the $workload run" >&2
	exit 1
fi
echo "bench-leftover: no process outlived the $workload run" >&2
