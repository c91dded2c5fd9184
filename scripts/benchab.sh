#!/bin/sh
# Interleaved A/B of the simulator's benchmark (_perfbench) between a git
# revision and the working tree. The revision (default HEAD) is checked
# out in a temporary git worktree, removed on exit. For every workload
# and seed the script runs `bash _perfbench/run.sh` once from each tree,
# alternating which tree goes first from pair to pair. It prints each
# run's five end-to-end metrics and failed/attempted repetitions, then
# per workload and metric the median of each side, the interquartile
# range of the base side, the change of the working tree's median, and
# how many pairs the working tree won.
#
#   scripts/benchab.sh [-r rev] [-w "workload ..."] [-s "seed ..."] [-t seconds]
#
# Defaults: -r HEAD -w "rr-fanout busypoll-tx paper-quick" -s "1 2 3 4 5"
# -t 8. Each run builds its tree's benchmark into that tree's
# .bench_build/ (see _perfbench/run.sh); nothing under _perfbench/ is
# written. Per-run progress goes to standard error.
set -eu

cd "$(dirname "$0")/.."
root=$(pwd)

rev=HEAD
workloads="rr-fanout busypoll-tx paper-quick"
seeds="1 2 3 4 5"
seconds=8
while getopts r:w:s:t: opt; do
    case $opt in
    r) rev=$OPTARG ;;
    w) workloads=$OPTARG ;;
    s) seeds=$OPTARG ;;
    t) seconds=$OPTARG ;;
    *) echo "usage: $0 [-r rev] [-w workloads] [-s seeds] [-t seconds]" >&2; exit 2 ;;
    esac
done

metrics="sim_ms_per_s wall_s setup_s alloc_mb heap_mb"
tmp=$(mktemp -d)
base="$tmp/base"
cleanup() {
    git -C "$root" worktree remove --force "$base" >/dev/null 2>&1 || true
    git -C "$root" worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

git -C "$root" worktree add --detach "$base" "$rev" >&2
label=$(git -C "$base" rev-parse --short HEAD)

# run <tree> <side> <workload> <seed>: one benchmark run, appending
# "workload seed side failed attempted <metrics...>" to $tmp/runs.
run() {
    out=$(cd "$1" && bash _perfbench/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace 0) || true
    line=$(printf '%s\n' "$out" | tail -n 1)
    failed=$(printf '%s' "$line" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')
    attempted=$(printf '%s' "$line" | sed -n 's/.*"attempted":\([0-9]*\).*/\1/p')
    if test -z "$failed" || test -z "$attempted"; then
        echo "benchab: $2 $3 seed $4 printed no result" >&2
        printf '%s %s %s run-failed\n' "$3" "$4" "$2" >>"$tmp/runs"
        return
    fi
    vals=""
    for m in $metrics; do
        v=$(printf '%s' "$line" | sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p")
        vals="$vals ${v:-NA}"
    done
    printf '%s %s %s %s %s%s\n' "$3" "$4" "$2" "$failed" "$attempted" "$vals" >>"$tmp/runs"
    echo "benchab: $2 $3 seed $4:$vals ($failed/$attempted failed)" >&2
}

: >"$tmp/runs"
pair=0
for w in $workloads; do
    for s in $seeds; do
        if test $((pair % 2)) -eq 0; then
            run "$base" base "$w" "$s"
            run "$root" new "$w" "$s"
        else
            run "$root" new "$w" "$s"
            run "$base" base "$w" "$s"
        fi
        pair=$((pair + 1))
    done
done

echo "base = $label, new = working tree; $seconds s per run, pairs alternate which side runs first"
echo
printf '%-12s %5s %-4s %14s %10s %10s %10s %10s %8s\n' workload seed side $metrics failed
awk '$4 == "run-failed" { printf "%-12s %5s %-4s run failed\n", $1, $2, $3; next }
     { printf "%-12s %5s %-4s %14.6g %10.4g %10.4g %10.6g %10.6g %4s/%s\n", $1, $2, $3, $6, $7, $8, $9, $10, $4, $5 }' "$tmp/runs"
echo
printf '%-12s %-13s %12s %12s %10s %9s %6s\n' workload metric base_median new_median base_iqr change new_wins
for w in $workloads; do
    col=6
    for m in $metrics; do
        case $m in sim_ms_per_s) better=higher ;; *) better=lower ;; esac
        awk -v w="$w" -v m="$m" -v c="$col" -v better="$better" '
            function median(a, n,    i, j, t) {
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
                return quantile(a, n, 0.5)
            }
            function quantile(a, n, p,    h, l) { # a sorted, linear interpolation
                h = (n - 1) * p + 1; l = int(h)
                return l >= n ? a[n] : a[l] + (h - l) * (a[l+1] - a[l])
            }
            $1 == w && $4 != "run-failed" && $c != "NA" {
                if ($3 == "base") { nb++; b[nb] = $c + 0; bs[$2] = $c + 0 }
                else { nn++; n[nn] = $c + 0; ns[$2] = $c + 0 }
            }
            END {
                if (!nb || !nn) { printf "%-12s %-13s no complete runs\n", w, m; exit }
                for (s in bs) if (s in ns) {
                    pairs++
                    if ((better == "higher" && ns[s] > bs[s]) || (better == "lower" && ns[s] < bs[s])) wins++
                }
                mb = median(b, nb); mn = median(n, nn)
                iqr = quantile(b, nb, 0.75) - quantile(b, nb, 0.25)
                printf "%-12s %-13s %12.4g %12.4g %10.4g %+8.1f%% %3d/%d\n", w, m, mb, mn, iqr, mb ? 100 * (mn - mb) / mb : 0, wins, pairs
            }' "$tmp/runs"
        col=$((col + 1))
    done
done
