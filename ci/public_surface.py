#!/usr/bin/env python3
"""No public surface without a caller.

Usage: python3 ci/public_surface.py [TREE]

Audits TREE (default: the current directory), a checkout of this
workspace, and exits non-zero if it finds either of:

* a `pub fn`, `pub const` or `pub static` in the non-test part of
  `crates/*/src` (every line outside the items `#[cfg(test)]` gates) whose
  name appears in no file outside its own crate's `src`, unless the
  allow-list names it. `crates/bench` and `crates/workloads` (harness
  and test support) are not audited, but their references count.
  References are searched in `crates`, `src`, `tests`, `examples` and
  `benchmark/src`; a comment line is not a reference. Whatever is
  crate-private is rustc's `dead_code` lint's to catch.
* a `[dependencies]` entry of a crate's `Cargo.toml` that its `src`
  never names (`ids-x` as `ids_x`). Here doc comments count: an
  intra-doc link or a doctest needs the dependency too.

The allow-list, `public_surface.allow` beside this script, has
one entry per line, `<crate dir>/<item name>: <why it stays public>`;
blank lines and lines starting with `#` are skipped. An entry that
matches no hit fails the audit too, so the list cannot go stale.
"""

import pathlib
import re
import sys

EXEMPT = {"bench", "workloads"}
SEARCHED = ["crates", "src", "tests", "examples", "benchmark/src"]
ITEM = re.compile(
    r"^\s*pub\s+(?:(?:const|unsafe|async)\s+)*fn\s+(\w+)"
    r"|^\s*pub\s+const\s+(\w+)\s*:"
    r"|^\s*pub\s+static\s+(?:mut\s+)?(\w+)\s*:"
)
COMMENT = re.compile(r"^\s*//")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# String and char literals, so a brace inside one does not count.
STRING = re.compile(r'"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])\'')


def code_lines(path):
    """The file's lines with comment lines blanked (kept for numbering)."""
    text = path.read_text(encoding="utf-8", errors="replace")
    return ["" if COMMENT.match(line) else line for line in text.splitlines()]


def non_test(lines):
    """The lines with each `#[cfg(test)]` item blanked: from the attribute
    through the `;` that ends the item, or through the brace that closes
    its body if a `{` comes first."""
    kept = list(lines)
    i = 0
    while i < len(kept):
        at = kept[i].find("#[cfg(test)]")
        if at < 0:
            i += 1
            continue
        depth, col = 0, at + len("#[cfg(test)]")
        while i < len(kept):
            rest = STRING.sub('""', kept[i][col:])
            end = None
            for j, ch in enumerate(rest):
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    if depth == 0:
                        end = j
                        break
                elif ch == ";" and depth == 0:
                    end = j
                    break
            kept[i] = ""
            i += 1
            if end is not None:
                break
            col = 0
    return kept


def words(lines):
    found = set()
    for line in lines:
        found.update(WORD.findall(line))
    return found


def rust_files(root):
    return sorted(p for p in root.rglob("*.rs") if "target" not in p.relative_to(root).parts)


def unused_public_items(tree):
    # Identifier set of every searched file, keyed by path.
    names_in = {}
    for top in SEARCHED:
        root = tree / top
        if root.is_dir():
            for path in rust_files(root):
                names_in[path] = words(code_lines(path))
    hits = []
    for crate in sorted(p for p in (tree / "crates").iterdir() if (p / "src").is_dir()):
        if crate.name in EXEMPT:
            continue
        src = crate / "src"
        outside = set()
        for path, names in names_in.items():
            if src not in path.parents:
                outside |= names
        for path in rust_files(src):
            for number, line in enumerate(non_test(code_lines(path)), 1):
                m = ITEM.match(line)
                if m:
                    name = next(g for g in m.groups() if g)
                    if name not in outside:
                        hits.append((crate.name, name, f"{path.relative_to(tree)}:{number}: {line.strip()}"))
    return hits


def unused_dependencies(tree):
    hits = []
    for manifest in sorted((tree / "crates").glob("*/Cargo.toml")):
        section, deps = None, []
        for line in manifest.read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("["):
                section = line
            elif section == "[dependencies]" and line:
                deps.append(re.split(r"[\s.=]", line, 1)[0])
        if not deps:
            continue
        used = set()
        for path in rust_files(manifest.parent / "src"):
            used |= words(path.read_text(encoding="utf-8", errors="replace").splitlines())
        for dep in deps:
            if dep.replace("-", "_") not in used:
                hits.append(f"{manifest.relative_to(tree)}: [dependencies] {dep} is never named in src")
    return hits


def read_allow(path):
    allowed = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, why = line.partition(":")
        if not sep or "/" not in key or not why.strip():
            sys.exit(f"{path}:{number}: expected `<crate dir>/<item>: <why>`, got {line!r}")
        allowed[key.strip()] = why.strip()
    return allowed


def main(argv):
    tree = pathlib.Path(argv[0] if argv else ".").resolve()
    allowed = read_allow(pathlib.Path(__file__).with_name("public_surface.allow"))

    failures = []
    listed = set()
    items = unused_public_items(tree)
    for crate, name, where in items:
        key = f"{crate}/{name}"
        if key in allowed:
            listed.add(key)
            print(f"allowed  {where}  ({allowed[key]})")
        else:
            failures.append(f"no caller outside crates/{crate}/src: {where}")
    failures += [f"allow-list entry matches nothing: {key}" for key in sorted(set(allowed) - listed)]
    failures += unused_dependencies(tree)

    print(f"{len(items)} public items with no caller outside their crate, {len(listed)} allow-listed")
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
