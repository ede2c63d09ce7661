#!/bin/sh
# make dead: the coverage oracle of ROADMAP item 4d (after "Minimum Viable
# Device Drivers", PAPERS.md). Runs the suites that drive the system the
# way a deployment or an attacker does — attack, chaos, core, gateway,
# netstack and confbench's own tests, plus the seed corpora of the four
# fuzz targets (safering, cryptdisk, netstack), which drive the boundary the
# way an attacker does — with every internal package instrumented. It
# lists each function none of them reaches, then each statement block
# of the three boundary packages (safering, blkring, cryptdisk) none of
# them executes. A package's own unit tests do not count: a function only
# they call is surface someone must keep safe for nobody. Every function
# entry is deleted, covered, or justified in EXPERIMENTS.md ("Dead-code
# oracle"); the statement section is a list, not yet triaged.
set -eu
prof=$(mktemp)
seeds=$(mktemp)
trap 'rm -f "$prof" "$seeds"' EXIT
go test -count=1 -coverpkg=./internal/... -coverprofile="$prof" \
	./internal/attack ./internal/chaos ./internal/core \
	./internal/gateway ./internal/netstack ./bench >&2
go test -count=1 -run '^Fuzz' -coverpkg=./internal/... -coverprofile="$seeds" \
	./internal/safering ./internal/cryptdisk ./internal/netstack >&2
# One profile: cover merges the blocks every test binary repeats.
tail -n +2 "$seeds" >>"$prof"
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
# Statements: a profile line is "file:l0.c0,l1.c1 stmts count", once per
# test binary; a block ran if any binary counted it.
awk '
	NR > 1 && $1 ~ /^confio\/internal\/(safering|blkring|cryptdisk)\/[^\/]*:/ {
		stmts[$1] = $2
		if ($3 > 0) ran[$1] = 1
	}
	END {
		for (b in stmts) if (!(b in ran)) {
			split(b, loc, ":")
			split(loc[2], pos, "[.,]")
			print loc[1], pos[1], pos[2], loc[2], stmts[b]
		}
	}' "$prof" | sort -k1,1 -k2,2n -k3,3n | awk '
	{
		sub(/^confio\/internal\//, "", $1)
		split($1, path, "/")
		if (!(path[1] in count)) order[++pkgs] = path[1]
		count[path[1]] += $5
		total += $5
		body[path[1]] = body[path[1]] sprintf("  %-28s %d\n", path[2] ":" $4, $5)
	}
	END {
		printf "\n%d statements unexecuted under the oracle suites in safering, blkring and cryptdisk\n", total
		for (i = 1; i <= pkgs; i++)
			printf "\n%s %d\n%s", order[i], count[order[i]], body[order[i]]
	}'
