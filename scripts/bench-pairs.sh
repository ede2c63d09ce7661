#!/bin/sh
# Alternated parent/change pairs of confbench, the method EXPERIMENTS.md
# reads every wall-clock claim with (single pairs flip sign on a 2-vCPU
# host; ten alternated pairs do not).
#
#   scripts/bench-pairs.sh BASE [N] [bench flags...]
#   make bench-pairs BASE=<rev> N=10 BENCHFLAGS='-workload echo-small'
#
# Builds BASE's ./bench from a temporary git worktree and the working
# tree's ./bench next to it, runs both N times alternating which side
# goes first, writes pairs/{old,new}-<i>.json, and ends with
# `go run ./bench -diff old-1,...,old-N new-1,...,new-N`, whose exit
# status is the script's.
set -eu

base=${1:?usage: bench-pairs.sh BASE [N] [bench flags...]}
n=${2:-10}
shift
[ $# -gt 0 ] && shift

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$tmp/base" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

git -C "$root" worktree add --quiet --detach "$tmp/base" "$base"
(cd "$tmp/base" && go build -o "$tmp/bench-old" ./bench)
(cd "$root" && go build -o "$tmp/bench-new" ./bench)

out=$root/pairs
mkdir -p "$out"
rm -f "$out"/old-*.json "$out"/new-*.json
cd "$root"
olds= news=
i=1
while [ "$i" -le "$n" ]; do
	if [ $((i % 2)) -eq 1 ]; then order="old new"; else order="new old"; fi
	for side in $order; do
		echo "== pair $i/$n: $side"
		"$tmp/bench-$side" -out "$out/$side-$i.json" "$@"
	done
	olds=${olds:+$olds,}$out/old-$i.json
	news=${news:+$news,}$out/new-$i.json
	i=$((i + 1))
done
go run ./bench -diff "$olds" "$news"
