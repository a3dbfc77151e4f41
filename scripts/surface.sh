#!/bin/sh
# surface.sh — how much the repository ships, in the units ROADMAP aim 2
# tracks per PR: non-test Go lines, packages, exported identifiers, command
# line flags and option fields. No arguments, no environment variables,
# offline (go list, go doc -short, grep, awk). Run it at the parent and at
# the change and quote both totals in CHANGES.md. An entry under "unset
# fields" is a knob nothing outside its package turns (a smoke setting
# inside it still may): a candidate for the constant it defaults to.
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
#   unset     those of them that no code sets: no composite-literal key
#             (Field:) and no assignment (.Field =) in any .go file of the
#             repository, tests, examples/ and bench/ included, other than
#             the non-test files of the defining package. Matching is by
#             field name: a name two structs share counts as set if either
#             is, so the list can miss a dead field but never names a live one
#   dead      exported functions and methods no non-test code names: each
#             func declared in a non-test file under internal/ whose name
#             has no whole-word use, beyond its declaration, in any non-test
#             .go file of the repository, comment lines removed. A textual
#             match: a name two declarations share counts as used, so the
#             list can miss a dead name. MarshalJSON, UnmarshalJSON, String
#             and Error, which the standard library calls through an
#             interface, are left out. A report, not a gate
set -eu
cd "$(dirname "$0")/.."

list=$(go list -f '{{.ImportPath}} {{.Name}} {{.Dir}} {{join .GoFiles " "}}' ./... |
    grep -v -e '^cogrid/bench ' -e '^cogrid/examples/')

echo "== non-test Go lines and exported identifiers per package"
printf '%-32s %7s %9s\n' package lines exported
total_lines=0 total_exported=0 packages=0
flags="" fields="" names=""
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
    # One line per field, "pkg.Struct Field", folded into per-struct counts.
    found=$(awk -v pkg="${pkg#cogrid/}" '
        /^type [A-Z][A-Za-z0-9]* struct \{/ && $2 ~ /(Options|Config)$/ { name = $2; next }
        name != "" && /^}/ { name = ""; next }
        name != "" && match($0, /^\t[A-Z][A-Za-z0-9]*(, *[A-Za-z][A-Za-z0-9]*)*/) {
            n = split(substr($0, RSTART + 1, RLENGTH - 1), f, /, */)
            for (i = 1; i <= n; i++) print pkg "." name, f[i] }
    ' $paths)
    if [ -n "$found" ]; then
        names="$names$found
"
        fields="$fields$(printf '%s\n' "$found" | awk '
            $1 != last { if (last != "") printf "%-40s %3d\n", last, n; last = $1; n = 0 }
            { n++ }
            END { printf "%-40s %3d\n", last, n }')
"
    fi
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

echo
echo "== unset fields (exported Options/Config fields with no setter outside their package's non-test files)"
unset_fields=0
while read -r owner field; do
    [ -n "$owner" ] || continue
    dir=./${owner%.*}
    setters=$(grep -rlE --include='*.go' \
        "(^|[^A-Za-z0-9_.])$field:|\\.$field[[:space:]]*[-+*/|&^]?=([^=]|\$)" . || true)
    set=no
    for f in $setters; do
        case $f in
        "$dir"/*_test.go | "$dir"/*/*) set=yes ;; # its own tests; a package beneath it
        "$dir"/*) ;;                              # the defining package itself
        *) set=yes ;;
        esac
    done
    if [ $set = no ]; then
        printf '%s.%s\n' "$owner" "$field"
        unset_fields=$((unset_fields + 1))
    fi
done <<EOF
$names
EOF
printf '%-40s %3d\n' total "$unset_fields"

echo
echo "== exported functions and methods no non-test code names"
# One pass over every non-test .go file: a file under internal/ contributes
# its func declarations, and every file its words outside comment lines.
dead=$(awk '
    FNR == 1 { pkg = FILENAME; sub(/^\.\//, "", pkg); sub(/\/[^\/]*$/, "", pkg) }
    /^[[:space:]]*\/\// { next }
    pkg ~ /^internal\// && match($0, /^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*/) {
        name = substr($0, RSTART, RLENGTH); sub(/.* /, "", name); sub(/^\(.*\) /, "", name)
        decls[name]++; where[name] = pkg
    }
    {
        n = split($0, w, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) if (w[i] != "") uses[w[i]]++
    }
    END {
        split("MarshalJSON UnmarshalJSON String Error", skip, " ")
        for (i in skip) iface[skip[i]] = 1
        for (name in decls)
            if (decls[name] == 1 && uses[name] == 1 && !(name in iface))
                printf "%-32s %s\n", where[name], name
    }' $(find . -name '*.go' ! -name '*_test.go' | sort) | sort)
[ -z "$dead" ] || printf '%s\n' "$dead"
printf '%-32s %3d\n' total "$(printf '%s' "$dead" | grep -c . || true)"
