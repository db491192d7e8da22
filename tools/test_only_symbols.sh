#!/usr/bin/env bash
# Lists the library symbols that only the tests reach.
#
#   tools/test_only_symbols.sh [BUILD_DIR]     (default: build-symbols/)
#
# Builds the project at -O0 with one section per function and data item
# and links every binary with --gc-sections, so each binary keeps only
# the code it can reach.  It also links benchmark/driver.cpp, the
# repository benchmark, which builds outside the main CMake project and
# so is missed by a scan of the main build.  It then prints the acic::
# entities that acic_tests defines and that no bench, example or
# benchmark binary does.  Names are compared as entities: template
# arguments, parameter lists and return types are dropped, so a library
# template that the tests instantiate with their own types counts as
# reached when any binary instantiates it.  Build output goes to stderr.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-$root/build-symbols}"
flags="-O0 -ffunction-sections -fdata-sections"

{
  cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS_DEBUG="$flags" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" -DACIC_LTO=OFF
  cmake --build "$build" -j 4
  "${CXX:-c++}" -std=c++20 $flags -I"$root" "$root/benchmark/driver.cpp" \
    "$build/src/libacic.a" -pthread -Wl,--gc-sections \
    -o "$build/acic_benchmark"
} >&2

# The acic:: entities a binary defines: functions, data, vtables and
# typeinfo, demangled and reduced to their qualified names.
symbols() {
  nm --defined-only "$1" | awk '{ print $3 }' |
    grep -E '^_Z(T[VIS])?[NZKL]*4acic' | c++filt | sed -E '
      s/\(anonymous namespace\)/{anon}/g
      s/\{unnamed type/{unnamed_type/g
      s/\[abi:[^]]*\]//g
      :targs
      s/<[^<>]*>//g
      t targs
      :params
      s/\([^()]*\)//g
      t params
      s/( (const|volatile|&|&&))+$//
      s/.* //' | grep '^acic::' | sort -u
}

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
symbols "$build/tests/acic_tests" > "$scratch/tests"
: > "$scratch/reached"
for bin in "$build/acic_benchmark" \
    $(find "$build/bench" "$build/examples" -maxdepth 1 -type f -perm -u+x); do
  symbols "$bin" >> "$scratch/reached"
done
sort -u -o "$scratch/reached" "$scratch/reached"
comm -23 "$scratch/tests" "$scratch/reached"
