#!/bin/sh
# reach.sh — fail when production code is linked into no binary. Used by
# `make reach` (part of `make check`) and the CI check job.
#
# Builds every main of the repository — ./cmd/hyperprof, each ./examples/*
# and the study benchmark in bench/ — with inlining off (-gcflags=all=-l), so
# a function the program calls keeps its own symbol, and reads the functions
# the linker kept with `go tool nm`. Every func declared in a non-test Go file
# outside bench/ must be among them, or be named in the keep-list
# (scripts/reach.keep) with one reason:
#
#   fixture    a test of another package, or a study test, drives it
#   reference  tests compare production output against it
#   paper      it holds the paper's published data
#   rootbench  a root benchmark runs it and EXPERIMENTS.md reports the result
#
# A keep-list entry that is no longer declared, or that a binary now reaches,
# is stale and fails the check too, so the list only ever names live
# exceptions.
#
# Symbols are compared as the linker names them, with each generic
# instantiation's brackets removed: `pkg.F`, `pkg.T.M`, `pkg.(*T).M`. Main
# packages are named by their directory (`hyperprof/cmd/hyperprof.run`).
#
# Only POSIX sh + awk + the go toolchain; no external dependencies.
set -e

keep=scripts/reach.keep
module=hyperprof

if [ ! -f "$keep" ]; then
	echo "reach: keep-list $keep not found" >&2
	exit 2
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# One binary per main; its file name is the package directory with / as _.
for d in cmd/hyperprof examples/*; do
	[ -d "$d" ] || continue
	go build -gcflags=all=-l -o "$tmp/bin/$(echo "$d" | tr / _)" "./$d"
done
(cd bench && go build -gcflags=all=-l -o "$tmp/bin/bench" .)

# strip removes every bracketed group, nested ones included:
# "p.(*c[go.shape.struct { a [2]int }]).add" becomes "p.(*c).add".
strip='
function strip(s,    out, i, c, depth) {
	out = ""; depth = 0
	for (i = 1; i <= length(s); i++) {
		c = substr(s, i, 1)
		if (c == "[") depth++
		else if (c == "]") depth--
		else if (depth == 0) out = out c
	}
	return out
}'

# Reached: every text symbol of every binary. A main package's `main.` prefix
# becomes its import path; bench's own main is outside the scan.
for b in "$tmp"/bin/*; do
	dir="$(basename "$b" | tr _ /)"
	go tool nm "$b" | awk -v pkg="$module/$dir" -v bench="$(basename "$b")" '
	$2 == "T" || $2 == "t" {
		name = substr($0, index($0, " " $2 " ") + 3)
		if (name ~ /^main\./) {
			if (bench == "bench") next
			name = pkg substr(name, 5)
		}
		print name
	}'
done | awk "$strip"'
{
	s = strip($0)
	# A closure, method value or go/defer wrapper is reached only through
	# the function that declares it.
	while (sub(/(\.func[0-9]+|\.gowrap[0-9]+|\.deferwrap[0-9]+|-range[0-9]+|-fm)$/, "", s)) {}
	print s
}' | sort -u > "$tmp/reached"

# Declared: every func of every non-test Go file outside bench/, as
# "symbol file:line". A value-receiver method is also listed by its pointer
# wrapper's name, so either symbol counts as reached.
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | sort |
	xargs awk -v module="$module" "$strip"'
FNR == 1 {
	file = substr(FILENAME, 3)
	dir = file
	sub(/\/[^\/]*$/, "", dir)
	pkg = (dir == file) ? module : module "/" dir
}
/^func / {
	s = substr($0, 6)
	recv = ""
	if (substr(s, 1, 1) == "(") {
		recv = substr(s, 2, index(s, ")") - 2)
		s = substr(s, index(s, ")") + 1)
		sub(/^ +/, "", s)
		n = split(strip(recv), w, " ")
		recv = w[n]
	}
	match(s, /^[A-Za-z_][A-Za-z0-9_]*/)
	name = substr(s, 1, RLENGTH)
	if (recv == "" && (name == "init" || name == "main")) next
	where = file ":" FNR
	if (recv == "") { print pkg "." name, where; next }
	if (substr(recv, 1, 1) == "*") {
		print pkg ".(" recv ")." name, where
	} else {
		print pkg "." recv "." name, where, pkg ".(*" recv ")." name
	}
}' > "$tmp/declared"

# Compare. The keep-list is "symbol reason" per line; # starts a comment.
awk -v keepfile="$keep" -v reachfile="$tmp/reached" '
BEGIN {
	while ((getline line < reachfile) > 0) reached[line] = 1
	while ((getline line < keepfile) > 0) {
		kn++
		sub(/#.*/, "", line)
		if (split(line, f, " ") == 0) continue
		if (f[2] !~ /^(fixture|reference|paper|rootbench)$/) {
			printf "reach: %s:%d: %s needs one reason: fixture, reference, paper or rootbench\n", keepfile, kn, f[1]
			bad++
			continue
		}
		keepline[f[1]] = kn
	}
}
{
	sym = $1
	declared[sym] = 1
	if (sym in reached || ($3 != "" && $3 in reached)) {
		if (sym in keepline) {
			printf "reach: %s:%d: stale entry %s: a binary now reaches it\n", keepfile, keepline[sym], sym
			bad++
		}
		next
	}
	if (sym in keepline) { kept++; next }
	printf "reach: %s: %s is linked into no binary\n", $2, sym
	bad++
}
END {
	for (sym in keepline) if (!(sym in declared)) {
		printf "reach: %s:%d: stale entry %s: no such func is declared\n", keepfile, keepline[sym], sym
		bad++
	}
	if (bad) {
		printf "reach: %d problem(s); delete the code, call it, or name it in %s with its reason\n", bad, keepfile
		exit 1
	}
	printf "reach: %d funcs declared, every one reached or kept (%d kept)\n", NR, kept
}' "$tmp/declared"
