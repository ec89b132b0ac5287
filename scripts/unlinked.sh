#!/bin/sh
# Lists the exported functions and methods under internal/ that no program
# links: every main package of the module and the repobench module are built
# with inlining off into a temporary directory, their symbols are listed
# with `go tool nm`, and the symbols are subtracted from the declarations.
# Symbols are named pkg.Func, pkg.(*T).Method and pkg.T.Method; methods of
# generic receivers are not matched. The list is a report for a reader to
# check against the tests, not a gate: an unlinked function may be exported
# API, a test oracle or a seam.
#
# Run it from the repository root: sh scripts/unlinked.sh (or make unlinked).
set -eu

bins=$(mktemp -d)
trap 'rm -rf "$bins"' EXIT

for p in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
	go build -gcflags=all=-l -o "$bins/" "$p"
done
(cd repobench && GOWORK=off GOPROXY=off go build -gcflags=all=-l -o "$bins/repobench" .)

for b in "$bins"/*; do
	go tool nm "$b"
done | awk '{print $NF}' | grep '^skydiver/' | sort -u >"$bins/linked.txt"

find internal -name '*.go' ! -name '*_test.go' | sort | while read -r f; do
	sed -nE "s#^func (\(\w+ (\*?)(\w+)\) )?([A-Z]\w*)[[(].*#skydiver/$(dirname "$f")|\2|\3|\4#p" "$f"
done | awk -F'|' '
	$3 == "" { print $1 "." $4; next }
	$2 == "*" { print $1 ".(*" $3 ")." $4; next }
	{ print $1 "." $3 "." $4 }' | sort -u | comm -23 - "$bins/linked.txt" >"$bins/unlinked.txt"

cat "$bins/unlinked.txt"
echo "unlinked: $(wc -l <"$bins/unlinked.txt") exported functions and methods under internal/ linked by no program" >&2
