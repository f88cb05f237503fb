#!/bin/sh
# Counts the first-party Rust lines of a checkout, split into test and
# non-test code.
#
#   scripts/count-lines.sh [DIR]      (DIR defaults to the current directory)
#
# The rule:
# - Only `.rs` files count. `vendor/` (the offline stand-ins for
#   third-party crates), `perfbench/` (the repo benchmark, a package of
#   its own) and every `target/` directory are left out.
# - Test code is every file under a `tests/` or `benches/` directory,
#   every item gated by `#[cfg(test)]` (from the attribute line through
#   the item's closing brace, or its semicolon), and every file that such
#   an item pulls in with `mod name;` or `#[path = "..."] mod name;`.
# - Everything else is non-test code.
# - `lines` are all lines, blank and comment lines included. `code` is
#   the non-test lines that are neither blank nor `//` comments.
#
# Prints one line: `total T test S non-test N code C`.
set -eu
cd "${1:-.}"

find . \( -path ./vendor -o -path ./perfbench -o -name target -o -name .git \) -prune \
    -o -name '*.rs' -type f -print | sed 's|^\./||' | LC_ALL=C sort | awk '
function dir_of(path) {
    return path ~ /\// ? substr(path, 1, match(path, /\/[^\/]*$/) - 1) : "."
}
# `path` with every `dir/../` folded away.
function normal(path) {
    while (sub(/[^\/.][^\/]*\/\.\.\//, "", path)) {}
    return path
}
# The directory `mod name;` in `file` resolves against.
function mod_dir(file,    dir, base) {
    dir = dir_of(file)
    base = substr(file, length(dir) + 2)
    if (base == "lib.rs" || base == "main.rs" || base == "mod.rs") return dir
    return dir "/" substr(base, 1, length(base) - 3)
}
# `line` without its string literals, brace char literals and `//`
# comment, so that its braces can be counted.
function bare(line) {
    gsub(/"([^"\\]|\\.)*"/, "", line)
    gsub(/\047[{}]\047/, "", line)
    sub(/\/\/.*/, "", line)
    return line
}
{
    file = $0
    gated = 0
    while ((getline text < file) > 0) {
        lines[file]++
        trimmed = text
        gsub(/^[ \t]+|[ \t]+$/, "", trimmed)
        if (!gated && trimmed ~ /^#\[cfg\(test\)\]/) {
            gated = 1; depth = 0; opened = 0; nest = ""; path_attr = ""
        }
        if (!gated) {
            if (trimmed != "" && trimmed !~ /^\/\//) code[file]++
            continue
        }
        gated_lines[file]++
        b = bare(text)
        if (trimmed ~ /^#\[path *= *"/) {
            path_attr = trimmed
            sub(/^#\[path *= *"/, "", path_attr)
            sub(/".*/, "", path_attr)
        }
        if (match(b, /(^|[ \t])mod [A-Za-z_0-9]+ *;/)) {
            name = substr(b, RSTART, RLENGTH)
            sub(/.*mod /, "", name)
            sub(/ *;.*/, "", name)
            if (path_attr != "") {
                declared[normal(dir_of(file) "/" path_attr)] = 1
            } else {
                declared[mod_dir(file) nest "/" name ".rs"] = 1
                declared[mod_dir(file) nest "/" name "/mod.rs"] = 1
            }
            path_attr = ""
        } else if (match(b, /(^|[ \t])mod [A-Za-z_0-9]+ *\{/)) {
            name = substr(b, RSTART, RLENGTH)
            sub(/.*mod /, "", name)
            sub(/ *\{.*/, "", name)
            nest = nest "/" name
        }
        n_open = gsub(/\{/, "{", b)
        depth += n_open - gsub(/\}/, "}", b)
        if (n_open > 0) opened = 1
        if (opened ? depth <= 0 : (trimmed ~ /;$/ && trimmed !~ /^#/)) gated = 0
    }
    close(file)
}
END {
    for (file in lines) {
        total += lines[file]
        if (file ~ /(^|\/)(tests|benches)\// || file in declared) {
            test += lines[file]
        } else {
            test += gated_lines[file]
            nontest_code += code[file]
        }
    }
    printf "total %d test %d non-test %d code %d\n", total, test, total - test, nontest_code
}'
