# Non-test line ledger: counts the lines of Rust files, skipping each
# `#[cfg(test)]` attribute and the item it gates (one line ending in
# `;`, or a braced block). Prints one `count<TAB>path` row per file and
# a final `count<TAB>total` row.
#
#   awk -f .github/scripts/nontest-lines.awk crates/core/src/*.rs
#
# Braces inside string and char literals and after `//` do not count.

# Sets `opens` and `closes` to the line's brace counts.
function braces(line,   t) {
    t = line
    gsub(/"([^"\\]|\\.)*"/, "", t)
    gsub(/'([^'\\]|\\.)'/, "", t)
    sub(/\/\/.*/, "", t)
    opens = gsub(/\{/, "", t)
    closes = gsub(/\}/, "", t)
}

function flush() {
    if (file != "") {
        printf "%d\t%s\n", count, file
        total += count
    }
}

FNR == 1 {
    flush()
    file = FILENAME
    count = 0
    gated = 0
}

!gated && /^[ \t]*#\[cfg\(test\)\]/ {
    gated = 1
    depth = 0
    braced = 0
    next
}

gated {
    # Further attributes of the gated item belong to it.
    if (!braced && /^[ \t]*#\[/)
        next
    braces($0)
    depth += opens - closes
    if (opens)
        braced = 1
    if (depth <= 0 && (braced || /;[ \t]*$/))
        gated = 0
    next
}

{ count++ }

END {
    flush()
    printf "%d\ttotal\n", total
}
