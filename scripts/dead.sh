#!/bin/sh
# make dead: the coverage oracle of ROADMAP item 4d (after "Minimum Viable
# Device Drivers", PAPERS.md). Runs the suites that drive the system the
# way a deployment or an attacker does — attack, chaos, core, gateway,
# netstack and confbench's own tests — with every internal package
# instrumented, and lists each function none of them reaches. A package's
# own unit tests do not count: a function only they call is surface
# someone must keep safe for nobody. Every entry is deleted, covered, or
# justified in EXPERIMENTS.md ("Dead-code oracle").
set -eu
prof=$(mktemp)
trap 'rm -f "$prof"' EXIT
go test -count=1 -coverpkg=./internal/... -coverprofile="$prof" \
	./internal/attack ./internal/chaos ./internal/core \
	./internal/gateway ./internal/netstack ./bench >&2
# cover -func lists functions in file order, so a package's lines are
# adjacent: buffer each package to print its count above its entries.
go tool cover -func="$prof" | awk '
	$NF == "0.0%" && $1 !~ /\/testdata\// {
		split($1, loc, ":")
		sub(/^confio\/internal\//, "", loc[1])
		n = split(loc[1], path, "/")
		pkg = substr(loc[1], 1, length(loc[1]) - length(path[n]) - 1)
		if (!(pkg in count)) order[++pkgs] = pkg
		count[pkg]++
		total++
		body[pkg] = body[pkg] sprintf("  %-28s %s\n", path[n] ":" loc[2], $2)
	}
	END {
		printf "%d functions at 0 %% under the oracle suites\n", total
		for (i = 1; i <= pkgs; i++)
			printf "\n%s %d\n%s", order[i], count[order[i]], body[order[i]]
	}'
