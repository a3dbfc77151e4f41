#!/bin/sh
# surface.sh — how much the repository ships, in the units ROADMAP aim 2
# tracks per PR: non-test Go lines, packages, exported identifiers, command
# line flags and option fields. No arguments, no environment variables,
# offline (go list, go doc -short, grep, awk). Run it at the parent and at
# the change and quote both totals in CHANGES.md.
#
# What is counted, over every package except bench/ and examples/:
#   lines     physical lines of the package's non-test .go files
#   exported  for a library package, the lines of `go doc -short` (each
#             exported func, type and constructor; a parenthesised const or
#             var group counts once) plus the exported methods of exported
#             types; a main package has none
#   flags     for a main package, its flag.Xxx("name", ...) definitions
#   fields    the exported fields of every exported struct type whose name
#             ends in Options or Config
set -eu
cd "$(dirname "$0")/.."

list=$(go list -f '{{.ImportPath}} {{.Name}} {{.Dir}} {{join .GoFiles " "}}' ./... |
    grep -v -e '^cogrid/bench ' -e '^cogrid/examples/')

echo "== non-test Go lines and exported identifiers per package"
printf '%-32s %7s %9s\n' package lines exported
total_lines=0 total_exported=0 packages=0
flags="" fields=""
while read -r pkg name dir files; do
    paths=$(for f in $files; do printf '%s/%s ' "$dir" "$f"; done)
    lines=$(cat $paths | wc -l)
    exported=0
    if [ "$name" = main ]; then
        defs=$(grep -ohE 'flag\.[A-Z][A-Za-z0-9]*\("[^"]+"' $paths | sed 's/.*("\(.*\)"/-\1/' | tr '\n' ' ')
        flags="$flags$(printf '%-32s %3d  %s' "$pkg" "$(echo $defs | wc -w)" "$defs")
"
    else
        decls=$(go doc -short "$pkg" | wc -l)
        methods=$(grep -hcE '^func \([a-z][A-Za-z0-9]* \*?[A-Z][A-Za-z0-9]*(\[[^]]*\])?\) [A-Z]' $paths |
            awk '{n += $1} END {print n + 0}')
        exported=$((decls + methods))
    fi
    structs=$(awk -v pkg="${pkg#cogrid/}" '
        /^type [A-Z][A-Za-z0-9]* struct \{/ && $2 ~ /(Options|Config)$/ { name = $2; n = 0; next }
        name != "" && /^}/ { printf "%-40s %3d\n", pkg "." name, n; name = ""; next }
        name != "" && match($0, /^\t[A-Z][A-Za-z0-9]*(, *[A-Za-z][A-Za-z0-9]*)*/) {
            names = substr($0, RSTART, RLENGTH); n += gsub(/,/, ",", names) + 1 }
    ' $paths)
    [ -n "$structs" ] && fields="$fields$structs
"
    printf '%-32s %7d %9d\n' "${pkg#cogrid/}" "$lines" "$exported"
    total_lines=$((total_lines + lines))
    total_exported=$((total_exported + exported))
    packages=$((packages + 1))
done <<EOF
$list
EOF
printf '%-32s %7d %9d\n' "total ($packages packages)" "$total_lines" "$total_exported"

echo
echo "== flag definitions per binary"
printf '%s' "$flags"
printf '%-32s %3d\n' total "$(printf '%s' "$flags" | awk '{n += $2} END {print n + 0}')"

echo
echo "== exported fields of exported Options/Config structs"
printf '%s' "$fields"
printf '%-40s %3d\n' total "$(printf '%s' "$fields" | awk '{n += $2} END {print n + 0}')"
