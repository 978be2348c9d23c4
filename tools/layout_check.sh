#!/usr/bin/env bash
# Layout check for perfbench: does a change move the code perfbench links?
#
#   tools/layout_check.sh PARENT_TREE CHANGE_TREE
#
# perfbench scales its timings by a host probe (perfbench::probe_host_ms),
# and the probe's speed follows its address, which moves whenever any
# object linked before it changes the size of its code. This script builds
# each tree's perfbench/ CMake project (RelWithDebInfo, as perfbench/run.py
# does) into TREE/.bench_build/layout with a linker map, then:
#
#   - prints which libpprophet.a members the binary links and which it
#     does not (from the map's archive-member list);
#   - prints probe_host_ms's address on both sides;
#   - compares the .text, .text.unlikely and .text.startup sizes of every
#     object the binary links on either side: perfbench's own sources,
#     bench/kernel_suite.cpp and the linked library members.
#
# Exit status: 0 when the probe address and every compared size match,
# 1 when any differs, 2 on a usage or build error. Only the perfbench/
# project is built; the trees' own build directories are not touched.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_TREE CHANGE_TREE" >&2
  exit 2
fi

jobs=$(nproc 2>/dev/null || echo 1)
((jobs > 4)) && jobs=4

build() {
  local tree dir
  tree=$(cd "$1" && pwd)
  dir="$tree/.bench_build/layout"
  if [[ ! -f "$tree/perfbench/CMakeLists.txt" ]]; then
    echo "layout_check: no perfbench/ project in $tree" >&2
    exit 2
  fi
  if [[ ! -f "$dir/CMakeCache.txt" ]]; then
    cmake -S "$tree/perfbench" -B "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      "-DCMAKE_EXE_LINKER_FLAGS=-Wl,-Map=$dir/perfbench.map" >&2
  fi
  cmake --build "$dir" -j "$jobs" >&2
  echo "$dir"
}

parent_dir=$(build "$1") || exit 2
change_dir=$(build "$2") || exit 2

python3 - "$parent_dir" "$change_dir" <<'EOF'
import pathlib
import re
import subprocess
import sys

SECTIONS = (".text", ".text.unlikely", ".text.startup")


def run(*cmd):
    return subprocess.run(cmd, check=True, capture_output=True,
                          text=True).stdout


def included_members(map_path):
    """Basenames of libpprophet.a members the map says were pulled in."""
    members = set()
    in_list = False
    for line in map_path.read_text(errors="replace").splitlines():
        if line.startswith("Archive member included"):
            in_list = True
            continue
        if in_list and line and not line[0].isspace():
            m = re.search(r"libpprophet\.a\(([^)]+)\)", line)
            if m:
                members.add(m.group(1))
            elif not line.startswith("/") and "(" not in line:
                break  # the next map section
    return members


def strong_symbols(obj):
    """Global symbols the object defines outside COMDAT groups."""
    out = set()
    for line in run("nm", "--defined-only", "-g", str(obj)).splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "TDBR":
            out.add(parts[2])
    return out


def section_sizes(obj):
    sizes = dict.fromkeys(SECTIONS, 0)
    for line in run("size", "-A", str(obj)).splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] in sizes:
            sizes[parts[0]] += int(parts[1])
    return sizes


def side(build_dir):
    build_dir = pathlib.Path(build_dir)
    exe = build_dir / "perfbench"
    exe_symbols = {l.split()[-1] for l in run("nm", str(exe)).splitlines()
                   if l.split()}
    pulled = included_members(build_dir / "perfbench.map")
    lib_dir = build_dir / "pprophet/CMakeFiles/pprophet.dir"
    lib_objs = sorted(lib_dir.rglob("*.o"))
    linked, unlinked = {}, []
    for obj in lib_objs:
        name = str(obj.relative_to(lib_dir))[: -len(".o")]
        # Two sources can share a member name (core/ and emul/ both have a
        # pipeline.cpp): a member counts as linked when its strong symbols
        # made it into the binary.
        if obj.name in pulled and strong_symbols(obj) & exe_symbols:
            linked[name] = obj
        else:
            unlinked.append(name)
    # perfbench's own objects and the kernel suite's, keyed by target and
    # source name (the suite's object path embeds the tree's location).
    for obj in sorted((build_dir / "CMakeFiles").rglob("*.o")):
        target = obj.relative_to(build_dir / "CMakeFiles").parts[0]
        linked[f"{target}/{obj.name[:-2]}"] = obj
    probe = ""
    for line in run("nm", "-C", str(exe)).splitlines():
        if line.endswith(" T perfbench::probe_host_ms()"):
            probe = "0x" + line.split()[0].lstrip("0")
    return linked, unlinked, probe


parent, change = side(sys.argv[1]), side(sys.argv[2])
failed = False
for label, (linked, unlinked, probe) in (("parent", parent),
                                         ("change", change)):
    print(f"{label}: probe_host_ms at {probe or '(not found)'}")
    print(f"{label}: links {len(linked)} objects: " +
          " ".join(sorted(linked)))
    print(f"{label}: does not link {len(unlinked)} libpprophet members: " +
          " ".join(unlinked))
if not parent[2] or parent[2] != change[2]:
    print(f"DIFF probe_host_ms: {parent[2]} -> {change[2]}")
    failed = True
for name in sorted(set(parent[0]) | set(change[0])):
    before = section_sizes(parent[0][name]) if name in parent[0] else None
    after = section_sizes(change[0][name]) if name in change[0] else None
    if before != after:
        print(f"DIFF {name}: {before} -> {after}")
        failed = True
print("layout: " + ("DIFFERS" if failed else "identical"))
sys.exit(1 if failed else 0)
EOF
